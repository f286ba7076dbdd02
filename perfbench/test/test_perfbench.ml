(* Tests for the benchmark's own code: the tail-percentile rule, the
   seeded schedules, the max-rate selection with backlog detection, and
   the outside-in ledger check. *)

open Perfbench

let floats = Alcotest.(list (float 0.))

(* ---- tail rule ---- *)

let test_tail_rank () =
  let xs = List.init 1000 (fun i -> float_of_int (999 - i)) in
  match Bstats.tail xs with
  | None -> Alcotest.fail "1000 samples must have a tail"
  | Some t ->
      Alcotest.(check (float 1e-9)) "percentile" 99. t.percentile;
      Alcotest.(check (float 0.)) "value at rank 990" 989. t.value;
      Alcotest.(check int) "samples" 1000 t.samples;
      let beyond = List.length (List.filter (fun x -> x > t.value) xs) in
      Alcotest.(check int) "ten samples beyond" 10 beyond

let test_tail_small () =
  Alcotest.(check bool) "10 samples: none" true (Bstats.tail (List.init 10 float_of_int) = None);
  match Bstats.tail (List.init 11 float_of_int) with
  | Some t ->
      Alcotest.(check (float 0.)) "11 samples: the minimum" 0. t.value;
      Alcotest.(check int) "beyond" 10
        (List.length (List.filter (fun x -> x > t.value) (List.init 11 float_of_int)))
  | None -> Alcotest.fail "11 samples must have a tail"

let test_tail_percentile_moves_with_n () =
  let p n =
    match Bstats.tail (List.init n float_of_int) with
    | Some t -> t.percentile
    | None -> nan
  in
  Alcotest.(check (float 1e-9)) "n=200" 95. (p 200);
  Alcotest.(check (float 1e-9)) "n=600" (100. *. 590. /. 600.) (p 600)

(* ---- schedules ---- *)

let test_poisson_reproducible () =
  let a = Sched.poisson ~seed:7 ~salt:1 ~rate_tps:40. ~n:500 ~start:100. in
  let b = Sched.poisson ~seed:7 ~salt:1 ~rate_tps:40. ~n:500 ~start:100. in
  let c = Sched.poisson ~seed:8 ~salt:1 ~rate_tps:40. ~n:500 ~start:100. in
  Alcotest.check floats "same seed, same schedule" (Array.to_list a) (Array.to_list b);
  Alcotest.(check bool) "another seed differs" true (a <> c);
  Array.iteri
    (fun i t -> if i > 0 then Alcotest.(check bool) "ascending" true (t >= a.(i - 1)))
    a;
  Alcotest.(check bool) "after start" true (a.(0) > 100.);
  let mean_gap = (a.(499) -. 100.) /. 500. in
  Alcotest.(check bool) "mean gap near 25 ms" true (mean_gap > 20. && mean_gap < 30.)

let test_bodies_reproducible () =
  let u s = Sched.updates ~seed:s ~salt:2 ~accounts:100 ~n:50 in
  Alcotest.(check (array string)) "updates" (u 3) (u 3);
  let shard_of a = Hashtbl.hash a mod 2 in
  let m = Sched.mixed ~seed:4 ~salt:5 ~accounts:64 ~shard_of ~n:1000 in
  Alcotest.(check (array string)) "mixed"
    m (Sched.mixed ~seed:4 ~salt:5 ~accounts:64 ~shard_of ~n:1000);
  let shape b = List.length (String.split_on_char ':' b) in
  let count k = Array.fold_left (fun n b -> if shape b = k then n + 1 else n) 0 m in
  Alcotest.(check int) "audits" 600 (count 1);
  Alcotest.(check int) "updates" 200 (count 2);
  Alcotest.(check int) "transfers" 200 (count 3);
  let cross =
    Array.fold_left
      (fun n b ->
        match String.split_on_char ':' b with
        | [ x; y; _ ] when shard_of x <> shard_of y -> n + 1
        | _ -> n)
      0 m
  in
  Alcotest.(check int) "half the transfers cross" 100 cross

(* ---- max rate and backlog ---- *)

let uniform ~rate ~n = Array.init n (fun i -> 1000. *. float_of_int i /. rate)

let test_backlog () =
  let due = uniform ~rate:10. ~n:400 in
  let steady = Array.map (fun t -> t +. 150.) due in
  Alcotest.(check bool) "keeping up" false
    (Bstats.backlog_growing ~due ~committed:steady);
  (* served at half the offered rate: the queue grows without bound *)
  let slow = Array.mapi (fun i _ -> 200. *. float_of_int (i + 1)) due in
  Alcotest.(check bool) "falling behind" true
    (Bstats.backlog_growing ~due ~committed:slow)

let test_max_rate () =
  let r rate p99 growing = { Bstats.rate; p99; growing } in
  let rungs = [ r 20. 400. false; r 40. 600. false; r 50. 900. false; r 60. 2500. true; r 80. 8000. true ] in
  Alcotest.(check (option (float 0.))) "highest passing" (Some 50.)
    (Bstats.max_rate ~limit:1000. rungs);
  (* a rung inside the latency limit whose backlog grows does not count *)
  let rungs = [ r 20. 400. false; r 40. 600. false; r 50. 900. true ] in
  Alcotest.(check (option (float 0.))) "growing backlog excluded" (Some 40.)
    (Bstats.max_rate ~limit:1000. rungs);
  Alcotest.(check (option (float 0.))) "none passes" None
    (Bstats.max_rate ~limit:100. rungs)

let test_longest_gap () =
  Alcotest.(check (float 1e-9)) "from the origin" 30.
    (Bstats.longest_gap ~from:0. [ 10.; 20.; 50.; 55. ]);
  Alcotest.(check (float 1e-9)) "first interval counts" 40.
    (Bstats.longest_gap ~from:5. [ 45.; 50. ])

(* ---- ledger ---- *)

let seed = [ ("a", 100); ("b", 100); ("c", 100) ]

let delivered =
  [
    ("a:+5", "updated:a:105");
    ("a:b:10", "transferred:10:a->b");
    ("c", "balance:c:100");
    ("b:c:1", "failed:insufficient-funds:b=0");
  ]

let reader tbl a = List.assoc_opt a tbl

let test_ledger_balanced () =
  let final = [ ("a", 95); ("b", 110); ("c", 100) ] in
  Alcotest.(check (list string)) "balanced" []
    (Ledger.check ~seed ~delivered ~read:(reader final))

let test_ledger_double_apply () =
  (* the update of a applied twice *)
  let final = [ ("a", 100); ("b", 110); ("c", 100) ] in
  match Ledger.check ~seed ~delivered ~read:(reader final) with
  | [ v ] -> Alcotest.(check bool) "names the account" true (String.starts_with ~prefix:"balance of a " v)
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_ledger_bad_result () =
  let final = [ ("a", 100); ("b", 100); ("c", 100) ] in
  let vs = Ledger.check ~seed ~delivered:[ ("a:+5", "busy:a") ] ~read:(reader final) in
  Alcotest.(check int) "a committed busy report is a violation" 1 (List.length vs)

let test_delivery () =
  Alcotest.(check (list string)) "exactly once" []
    (Ledger.delivery ~attempted:3 ~rids:[ 1; 2; 3 ]);
  Alcotest.(check int) "duplicate and surplus" 2
    (List.length (Ledger.delivery ~attempted:3 ~rids:[ 1; 2; 3; 3 ]));
  Alcotest.(check int) "missing" 1 (List.length (Ledger.delivery ~attempted:3 ~rids:[ 1; 2 ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "tail",
        [
          Alcotest.test_case "rank n-10" `Quick test_tail_rank;
          Alcotest.test_case "small samples" `Quick test_tail_small;
          Alcotest.test_case "percentile follows n" `Quick test_tail_percentile_moves_with_n;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "poisson reproducible" `Quick test_poisson_reproducible;
          Alcotest.test_case "bodies reproducible" `Quick test_bodies_reproducible;
        ] );
      ( "rate",
        [
          Alcotest.test_case "backlog" `Quick test_backlog;
          Alcotest.test_case "max rate" `Quick test_max_rate;
          Alcotest.test_case "longest gap" `Quick test_longest_gap;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "balanced" `Quick test_ledger_balanced;
          Alcotest.test_case "double apply" `Quick test_ledger_double_apply;
          Alcotest.test_case "bad result" `Quick test_ledger_bad_result;
          Alcotest.test_case "delivery" `Quick test_delivery;
        ] );
    ]
