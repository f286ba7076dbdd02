(* Outside-in correctness of a timed run: every attempted request was
   delivered exactly once, and the final balances equal the seed balances
   plus the deltas of the committed requests. Knows the bank body grammar
   ("<a>" audit, "<a>:<delta>" update, "<a>:<b>:<amount>" transfer) and
   nothing of the program's internals. *)

(* The balance changes a delivered (body, committed result) pair implies,
   or an error when the result cannot belong to the body. *)
let effect_of ~body ~result =
  match String.split_on_char ':' body with
  | [ _ ] ->
      if String.starts_with ~prefix:"balance:" result then Ok []
      else Error (Printf.sprintf "audit %s committed %S" body result)
  | [ a; d ] ->
      if String.starts_with ~prefix:"updated:" result then Ok [ (a, int_of_string d) ]
      else Error (Printf.sprintf "update %s committed %S" body result)
  | [ a; b; amount ] ->
      let amount = int_of_string amount in
      if String.starts_with ~prefix:"transferred:" result then Ok [ (a, -amount); (b, amount) ]
      else if String.starts_with ~prefix:"failed:" result then Ok []
      else Error (Printf.sprintf "transfer %s committed %S" body result)
  | _ -> Error (Printf.sprintf "malformed body %S" body)

(* [check ~seed ~delivered ~read] returns the violations: [seed] holds the
   initial balances, [delivered] the committed (body, result) pairs,
   [read] the final committed balance of an account. *)
let check ~seed ~delivered ~read =
  let expected = Hashtbl.create 1024 in
  List.iter (fun (a, v) -> Hashtbl.replace expected a v) seed;
  let errors = ref [] in
  List.iter
    (fun (body, result) ->
      match effect_of ~body ~result with
      | Ok deltas ->
          List.iter
            (fun (a, d) ->
              let v = Option.value ~default:0 (Hashtbl.find_opt expected a) in
              Hashtbl.replace expected a (v + d))
            deltas
      | Error e -> errors := e :: !errors)
    delivered;
  Hashtbl.iter
    (fun a v ->
      match read a with
      | Some got when got = v -> ()
      | got ->
          errors :=
            Printf.sprintf "balance of %s is %s, ledger says %d" a
              (match got with Some g -> string_of_int g | None -> "missing")
              v
            :: !errors)
    expected;
  List.sort compare !errors

(* Exactly-once delivery: [attempted] requests were issued, [rids] are the
   request ids of every delivered record. *)
let delivery ~attempted ~rids =
  let seen = Hashtbl.create 1024 in
  let dups =
    List.filter
      (fun rid ->
        if Hashtbl.mem seen rid then true
        else (
          Hashtbl.add seen rid ();
          false))
      rids
  in
  let n = List.length rids in
  (if n <> attempted then
     [ Printf.sprintf "%d of %d requests delivered" n attempted ]
   else [])
  @ List.map (Printf.sprintf "request %d delivered twice") dups
