(* Batched commit pipeline and leader leases: register-name helpers,
   group-commit durability at the resource manager, batch=1 equivalence
   with the classic path, failure-free batched runs, and the spec under
   leaseholder crashes mid-batch. *)

open Etx

(* ------------------------------------------------------------------ *)
(* Register-name encode/decode (the one shared helper, Etx_types.Reg_name) *)

let test_reg_name_round_trip () =
  List.iter
    (fun (g, r) ->
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "round-trip g%d r%d" g r)
        (Some (g, r))
        (Etx_types.Reg_name.parse_reg_a (Etx_types.Reg_name.reg_a ~group:g ~rid:r)))
    [ (0, 0); (0, 1); (3, 1007); (17, 123456789) ];
  (* consensus instance keys carry a "[j]" suffix; the parse ignores it *)
  Alcotest.(check (option (pair int int)))
    "instance-key suffix tolerated" (Some (2, 41))
    (Etx_types.Reg_name.parse_reg_a
       (Etx_types.Reg_name.reg_a ~group:2 ~rid:41 ^ "[5]"))

let test_reg_name_rejects_others () =
  let none name =
    Alcotest.(check (option (pair int int)))
      (name ^ " is not a regA") None
      (Etx_types.Reg_name.parse_reg_a name)
  in
  none (Etx_types.Reg_name.reg_d ~group:1 ~rid:2);
  none (Etx_types.Reg_name.lease ~group:1);
  none (Etx_types.Reg_name.batch_a ~group:1 ~epoch:2 ~seq:3);
  none (Etx_types.Reg_name.batch_d ~group:1 ~epoch:2 ~seq:3);
  none "regA:r1";
  none "garbage"

let prop_reg_name_round_trip =
  QCheck.Test.make ~name:"Reg_name.reg_a round-trips through parse_reg_a"
    ~count:200
    QCheck.(pair (int_range 0 64) (int_range 0 1_000_000))
    (fun (group, rid) ->
      Etx_types.Reg_name.parse_reg_a (Etx_types.Reg_name.reg_a ~group ~rid)
      = Some (group, rid))

(* ------------------------------------------------------------------ *)
(* The batching window's request queue: FIFO, deduplicated by (rid, j).
   Items here are (name, j) with the request id taken from the name. *)

let intake () = Intake.create ~rid:(fun (r, _) -> r) ()
let item rid j = ((rid, Printf.sprintf "r%d" rid), j)
let contents q = List.map (fun ((rid, _), j) -> (rid, j)) (Intake.take q max_int)
let check_items = Alcotest.(check (list (pair int int)))

let test_intake_dedupe () =
  let q = intake () in
  Intake.add q (item 1 0);
  Intake.add q (item 2 0);
  Intake.add q (item 1 0);
  Intake.add q (item 1 1);
  Intake.add q (item 2 0);
  Alcotest.(check int) "length" 3 (Intake.length q);
  check_items "one per (rid, j), first arrival's place"
    [ (1, 0); (2, 0); (1, 1) ] (contents q);
  Alcotest.(check bool) "empty after take all" true (Intake.is_empty q)

let test_intake_take () =
  let q = intake () in
  List.iter (fun r -> Intake.add q (item r 0)) [ 5; 3; 9; 1 ];
  check_items "first two, oldest first" [ (5, 0); (3, 0) ]
    (List.map (fun ((r, _), j) -> (r, j)) (Intake.take q 2));
  Alcotest.(check int) "two left" 2 (Intake.length q);
  (* a taken (rid, j) is no longer queued: a retransmission re-enters *)
  Intake.add q (item 5 0);
  Intake.add q (item 9 0);
  check_items "re-add after take accepted, queued one still deduped"
    [ (9, 0); (1, 0); (5, 0) ] (contents q);
  check_items "take on empty" [] (contents q)

let test_intake_requeue () =
  let q = intake () in
  List.iter (fun r -> Intake.add q (item r 0)) [ 1; 2; 3; 4 ];
  let taken = Intake.take q 2 in
  Intake.add q (item 5 0);
  (* 4 is back in the queue too: a requeued copy must not duplicate it *)
  Intake.requeue q (taken @ [ item 4 0 ]);
  check_items "requeued in front, in order, no duplicate"
    [ (1, 0); (2, 0); (3, 0); (4, 0); (5, 0) ] (contents q)

let test_intake_transfer_clear () =
  let limbo = intake () and pending = intake () in
  List.iter (fun r -> Intake.add limbo (item r 0)) [ 7; 8 ];
  Intake.transfer limbo pending;
  Alcotest.(check bool) "source emptied" true (Intake.is_empty limbo);
  Intake.add limbo (item 9 0);
  Intake.add limbo (item 7 0);
  Intake.transfer limbo pending;
  check_items "appended, already-queued skipped" [ (7, 0); (8, 0); (9, 0) ]
    (contents pending);
  Intake.add limbo (item 1 0);
  Intake.add limbo (item 7 0);
  Intake.clear limbo;
  Alcotest.(check int) "cleared" 0 (Intake.length limbo);
  Intake.add limbo (item 7 0);
  check_items "re-add after clear accepted" [ (7, 0) ] (contents limbo)

(* ------------------------------------------------------------------ *)
(* Group commit at the storage / resource-manager layer: one forced write
   covers a whole batch. *)

let in_sim f =
  let t = Dsim.Engine.create () in
  let result = ref None in
  let _ =
    Dsim.Engine.spawn t ~name:"p" ~main:(fun ~recovery:_ () ->
        result := Some (f t))
  in
  ignore (Dsim.Engine.run t);
  match !result with Some r -> r | None -> Alcotest.fail "fiber did not run"

let test_log_append_list_single_force () =
  in_sim (fun _ ->
      let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
      let log = Dstore.Log.create ~disk () in
      Dstore.Log.append_list log [ "a"; "b"; "c"; "d" ];
      Dstore.Log.force log;
      Alcotest.(check int) "one force for four records" 1
        (Dstore.Disk.forced_writes disk);
      Alcotest.(check (list string))
        "records in order" [ "a"; "b"; "c"; "d" ]
        (Dstore.Log.records log))

let batch_of_active rm n =
  (* n independent started transactions on distinct keys, all executed *)
  List.init n (fun i ->
      let xid = Dbms.Xid.make ~rid:(100 + i) ~j:0 in
      Dbms.Rm.xa_start rm ~xid;
      (match
         Dbms.Rm.exec rm ~xid
           [ Dbms.Rm.Put (Printf.sprintf "k%d" i, Dbms.Value.Int i) ]
       with
      | Dbms.Rm.Exec_ok _ -> ()
      | _ -> Alcotest.fail "exec failed");
      Dbms.Rm.xa_end rm ~xid;
      xid)

let test_rm_vote_many_one_force () =
  in_sim (fun _ ->
      let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
      let rm =
        Dbms.Rm.create ~timing:Dbms.Rm.zero_timing ~seed_data:[] ~disk
          ~name:"db-test" ()
      in
      let xids = batch_of_active rm 4 in
      let before = Dstore.Disk.forced_writes disk in
      let votes = Dbms.Rm.vote_many rm ~xids in
      Alcotest.(check int) "one force for the whole prepare batch" 1
        (Dstore.Disk.forced_writes disk - before);
      Alcotest.(check int) "every xid answered" 4 (List.length votes);
      List.iter
        (fun (_, v) ->
          Alcotest.(check bool) "all yes" true (v = Dbms.Rm.Yes))
        votes)

let test_rm_decide_many_one_force () =
  in_sim (fun _ ->
      let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
      let rm =
        Dbms.Rm.create ~timing:Dbms.Rm.zero_timing ~seed_data:[] ~disk
          ~name:"db-test" ()
      in
      let xids = batch_of_active rm 3 in
      ignore (Dbms.Rm.vote_many rm ~xids);
      let before = Dstore.Disk.forced_writes disk in
      let outcomes =
        Dbms.Rm.decide_many rm
          ~items:(List.map (fun x -> (x, Dbms.Rm.Commit)) xids)
      in
      Alcotest.(check int) "one force for the whole decide batch" 1
        (Dstore.Disk.forced_writes disk - before);
      List.iter
        (fun (_, o) ->
          Alcotest.(check bool) "all committed" true (o = Dbms.Rm.Commit))
        outcomes;
      List.iteri
        (fun i _ ->
          match Dbms.Rm.read_committed rm (Printf.sprintf "k%d" i) with
          | Some (Dbms.Value.Int v) ->
              Alcotest.(check int) "batched commit visible" i v
          | _ -> Alcotest.fail "batched commit not applied")
        xids)

let test_rm_decide_many_mixed () =
  in_sim (fun _ ->
      let disk = Dstore.Disk.create ~force_latency:1. ~label:"log" () in
      let rm =
        Dbms.Rm.create ~timing:Dbms.Rm.zero_timing ~seed_data:[] ~disk
          ~name:"db-test" ()
      in
      let xids = batch_of_active rm 2 in
      ignore (Dbms.Rm.vote_many rm ~xids);
      let items =
        match xids with
        | [ a; b ] -> [ (a, Dbms.Rm.Commit); (b, Dbms.Rm.Abort) ]
        | _ -> assert false
      in
      ignore (Dbms.Rm.decide_many rm ~items);
      Alcotest.(check bool) "committed key visible" true
        (Dbms.Rm.read_committed rm "k0" = Some (Dbms.Value.Int 0));
      Alcotest.(check bool) "aborted key absent" true
        (Dbms.Rm.read_committed rm "k1" = None))

(* ------------------------------------------------------------------ *)
(* batch=1 equivalence: the config is accepted and the run is
   record-for-record identical to the classic (unbatched) deployment. *)

let test_batch_one_equivalence () =
  let seed = 7 in
  let seed_data = Workload.Bank.seed_accounts [ ("acct0", 1000) ] in
  let script ~issue =
    for _ = 1 to 3 do
      ignore (issue "acct0:5")
    done
  in
  let _e, plain =
    Harness.Simrun.deployment ~seed ~seed_data ~business:Workload.Bank.update
      ~script ()
  in
  assert (Deployment.run_to_quiescence ~deadline:60_000. plain);
  let _e, b1 =
    Harness.Simrun.deployment ~seed ~batch:1 ~seed_data
      ~business:Workload.Bank.update ~script ()
  in
  assert (Deployment.run_to_quiescence ~deadline:60_000. b1);
  let base = Client.records plain.client and got = Client.records b1.client in
  Alcotest.(check int) "same count" (List.length base) (List.length got);
  List.iter2
    (fun (a : Client.record) b ->
      Alcotest.(check bool)
        (Printf.sprintf "record %d identical" a.rid)
        true (a = b))
    base got;
  Alcotest.(check (list string)) "spec" [] (Spec.check_all b1)

let test_batch_config_validation () =
  Alcotest.check_raises "batch must be >= 1"
    (Invalid_argument "Appserver.config: batch must be >= 1") (fun () ->
      ignore
        (Harness.Simrun.deployment ~batch:0 ~business:Business.trivial
           ~script:(fun ~issue:_ -> ())
           ()));
  Alcotest.check_raises "gc is incompatible with batching"
    (Invalid_argument
       "Appserver.config: register GC is not supported on the batched path \
        (a collected lease or batch register would reopen a decided window)")
    (fun () ->
      ignore
        (Harness.Simrun.deployment ~batch:4 ~gc_after:1000.
           ~business:Business.trivial
           ~script:(fun ~issue:_ -> ())
           ()))

(* ------------------------------------------------------------------ *)
(* Failure-free batched run: many clients on one shard so the leaseholder
   actually assembles multi-transaction windows; every request delivers,
   the spec holds, and the batch-size histogram shows real batching. *)

let bank_scripts ~clients ~requests =
  List.init clients (fun i ->
      fun ~issue ->
        for _ = 1 to requests do
          ignore (issue (Printf.sprintf "acct%d:1" i))
        done)

let bank_seed ~clients =
  Workload.Bank.seed_accounts
    (List.init clients (fun i -> (Printf.sprintf "acct%d" i, 1000)))

let test_batched_run_failure_free () =
  let clients = 8 and requests = 2 in
  let reg = Obs.Registry.create () in
  let _e, c =
    Harness.Simrun.cluster ~seed:21 ~obs:reg ~shards:1 ~batch:4
      ~seed_data:(bank_seed ~clients) ~business:Workload.Bank.update
      ~scripts:(bank_scripts ~clients ~requests)
      ()
  in
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  Alcotest.(check int) "all delivered" (clients * requests)
    (List.length (Cluster.all_records c));
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c);
  (match Obs.Registry.merged_histogram reg "server.batch_size" with
  | None -> Alcotest.fail "no server.batch_size histogram"
  | Some h ->
      Alcotest.(check bool) "windows recorded" true (Obs.Histogram.count h > 0);
      Alcotest.(check bool) "some window held > 1 transaction" true
        (match Obs.Histogram.max_value h with
        | Some m -> m > 1.
        | None -> false));
  Alcotest.(check bool) "a lease was acquired" true
    (Obs.Registry.counter_total reg "server.lease_acquired" >= 1)

(* ------------------------------------------------------------------ *)
(* Crash the leaseholder mid-batch: a survivor must take the lease,
   abort-or-finish every window of the dead epoch, and the spec (per-shard
   T.1/T.2, A.1–A.3, V.1–V.2, plus global exactly-once) must hold with
   every request still delivered exactly once. *)

let test_crash_leaseholder_mid_batch () =
  let clients = 6 and requests = 3 in
  let e, c =
    Harness.Simrun.cluster ~seed:5 ~shards:1 ~batch:4
      ~seed_data:(bank_seed ~clients) ~business:Workload.Bank.update
      ~scripts:(bank_scripts ~clients ~requests)
      ()
  in
  (* the head server takes the bootstrap lease; kill it inside the first
     window (paper timing: SQL alone is ~184 ms) *)
  Dsim.Engine.crash_at e 300. (Cluster.primary c ~shard:0);
  Alcotest.(check bool) "quiesced" true
    (Cluster.run_to_quiescence ~deadline:600_000. c);
  Alcotest.(check int) "all delivered despite the crash" (clients * requests)
    (List.length (Cluster.all_records c));
  Alcotest.(check (list string)) "cluster spec" [] (Cluster.Spec.check_all c)

let prop_batched_spec_under_leaseholder_crashes =
  QCheck.Test.make
    ~name:"batched spec under leaseholder crashes (2 shards, 4 clients)"
    ~count:10
    QCheck.(
      triple (int_range 0 100_000)
        (QCheck.oneofl [ 2; 4; 16 ])
        (float_range 1. 2000.))
    (fun (seed, batch, crash_time) ->
      let map = Shard_map.create ~shards:2 () in
      let keys = [ "acct0"; "acct1"; "acct2"; "acct3" ] in
      let seed_data =
        Workload.Bank.seed_accounts (List.map (fun k -> (k, 1000)) keys)
      in
      let scripts =
        List.map
          (fun k ~issue ->
            ignore (issue (k ^ ":1"));
            ignore (issue (k ^ ":1")))
          keys
      in
      let e, c =
        Harness.Simrun.cluster ~seed ~map ~batch ~client_period:300.
          ~seed_data ~business:Workload.Bank.update ~scripts ()
      in
      (* kill shard 0's bootstrap leaseholder at a random point: before,
         during, or after its first windows *)
      Dsim.Engine.crash_at e crash_time (Cluster.primary c ~shard:0);
      let ok = Cluster.run_to_quiescence ~deadline:600_000. c in
      ok
      && List.length (Cluster.all_records c) = 8
      && Cluster.Spec.check_all c = [])

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "batch"
    [
      ( "reg-name",
        [
          Alcotest.test_case "round-trip" `Quick test_reg_name_round_trip;
          Alcotest.test_case "rejects non-regA names" `Quick
            test_reg_name_rejects_others;
          q prop_reg_name_round_trip;
        ] );
      ( "intake",
        [
          Alcotest.test_case "dedupe by (rid, j)" `Quick test_intake_dedupe;
          Alcotest.test_case "take order, re-add" `Quick test_intake_take;
          Alcotest.test_case "requeue in front" `Quick test_intake_requeue;
          Alcotest.test_case "transfer and clear" `Quick
            test_intake_transfer_clear;
        ] );
      ( "group-commit",
        [
          Alcotest.test_case "log append_list + one force" `Quick
            test_log_append_list_single_force;
          Alcotest.test_case "vote_many forces once" `Quick
            test_rm_vote_many_one_force;
          Alcotest.test_case "decide_many forces once" `Quick
            test_rm_decide_many_one_force;
          Alcotest.test_case "decide_many mixed outcomes" `Quick
            test_rm_decide_many_mixed;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "batch=1 is the classic path" `Quick
            test_batch_one_equivalence;
          Alcotest.test_case "config validation" `Quick
            test_batch_config_validation;
        ] );
      ( "batched-runs",
        [
          Alcotest.test_case "failure-free batched run" `Quick
            test_batched_run_failure_free;
          Alcotest.test_case "crash leaseholder mid-batch" `Quick
            test_crash_leaseholder_mid_batch;
        ] );
      ("random-crashes", [ q prop_batched_spec_under_leaseholder_crashes ]);
    ]
