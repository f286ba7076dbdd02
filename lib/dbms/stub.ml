open Runtime
module Rt = Etx_runtime
open Dnet

module Readiness = struct
  (* by database pid; never iterated, so bucket order reaches no output *)
  type t = { epochs : int Itbl.t }

  let create ~dbs =
    let epochs = Itbl.create 8 in
    List.iter (fun db -> Itbl.replace epochs db 0) dbs;
    { epochs }

  let listener t () =
    let rec loop () =
      match Rt.recv_cls Msg.cls_ready with
      | None -> ()
      | Some m ->
          let cur = Option.value ~default:0 (Itbl.find_opt t.epochs m.src) in
          Itbl.replace t.epochs m.src (cur + 1);
          loop ()
    in
    loop ()

  let start t = Rt.fork "readiness" (listener t)

  let epoch t db = Option.value ~default:0 (Itbl.find_opt t.epochs db)
end

(* Core pattern: send the request, wait for a matching reply; if the
   database announces a recovery meanwhile, re-send. *)
let rpc ~poll ch rd ~db ~request ~matches =
  let rec attempt epoch =
    Rchannel.send ch db request;
    wait epoch
  and wait epoch =
    (* [matches] only ever accepts db reply payloads ([Msg.cls_reply]), so
       the scan can stay inside that bucket *)
    let filter m = m.Types.src = db && matches m.Types.payload <> None in
    match Rt.recv ~timeout:poll ~cls:Msg.cls_reply ~filter () with
    | Some m -> (
        match matches m.Types.payload with
        | Some reply -> reply
        | None -> wait epoch (* unreachable: filter checked *))
    | None ->
        let now_epoch = Readiness.epoch rd db in
        if now_epoch <> epoch then attempt now_epoch else wait epoch
  in
  attempt (Readiness.epoch rd db)

let default_poll = 25.

let xa_start ?(poll = default_poll) ch rd ~db ~xid =
  rpc ~poll ch rd ~db
    ~request:(Msg.Xa_start { xid })
    ~matches:(function
      | Msg.Xa_started { xid = x } when Xid.equal x xid -> Some ()
      | _ -> None)

let xa_end ?(poll = default_poll) ch rd ~db ~xid =
  rpc ~poll ch rd ~db
    ~request:(Msg.Xa_end { xid })
    ~matches:(function
      | Msg.Xa_ended { xid = x } when Xid.equal x xid -> Some ()
      | _ -> None)

(* The reply is matched on (xid, seq), not xid alone: a late reply to an
   earlier attempt (e.g. a conflict the caller already moved past) must not
   satisfy a newer attempt's wait. *)
let exec ?(poll = default_poll) ?(seq = 0) ch rd ~db ~xid ops =
  rpc ~poll ch rd ~db
    ~request:(Msg.Exec_req { xid; seq; ops })
    ~matches:(function
      | Msg.Exec_reply { xid = x; seq = s; reply }
        when Xid.equal x xid && s = seq ->
          Some reply
      | _ -> None)

let seq_counter () =
  let c = ref 0 in
  fun () ->
    let s = !c in
    incr c;
    s

(* Every physical attempt — including each conflict retry — draws a fresh
   [seq] so the server executes it exactly once even if the message is
   redelivered across a database recovery (Rm.exec_dedup). [fresh_seq]
   must be scoped to the transaction: the application server threads one
   counter through all the exec calls of a business run. *)
let exec_retry ?(poll = default_poll) ?(backoff = 40.) ?(max_tries = 20)
    ?fresh_seq ch rd ~db ~xid ops =
  let next =
    match fresh_seq with Some f -> f | None -> seq_counter ()
  in
  let rec go tries =
    match exec ~poll ~seq:(next ()) ch rd ~db ~xid ops with
    | Rm.Exec_conflict _ as conflict ->
        if tries >= max_tries then conflict
        else begin
          Rt.sleep backoff;
          go (tries + 1)
        end
    | reply -> reply
  in
  go 1

let wait_vote ?(poll = default_poll) ch rd ~db ~xid =
  rpc ~poll ch rd ~db
    ~request:(Msg.Prepare { xid })
    ~matches:(function
      | Msg.Vote_msg { xid = x; vote } when Xid.equal x xid -> Some vote
      | _ -> None)

let wait_ack_decide ?(poll = default_poll) ch rd ~db ~xid outcome =
  rpc ~poll ch rd ~db
    ~request:(Msg.Decide { xid; outcome })
    ~matches:(function
      | Msg.Ack_decide { xid = x } when Xid.equal x xid -> Some ()
      | _ -> None)

let commit_one_phase ?(poll = default_poll) ch rd ~db ~xid =
  rpc ~poll ch rd ~db
    ~request:(Msg.Commit1 { xid })
    ~matches:(function
      | Msg.Commit1_reply { xid = x; outcome } when Xid.equal x xid ->
          Some outcome
      | _ -> None)

let same_xids = List.equal Xid.equal

let broadcast_collect ?(poll = default_poll) ch rd ~dbs ~request ~matches =
  List.iter (fun db -> Rchannel.send ch db (request db)) dbs;
  let collect db =
    let filter m = m.Types.src = db && matches m.Types.payload <> None in
    let rec wait epoch =
      match Rt.recv ~timeout:poll ~cls:Msg.cls_reply ~filter () with
      | Some m -> (
          match matches m.Types.payload with
          | Some reply -> reply
          | None -> wait epoch)
      | None ->
          let now_epoch = Readiness.epoch rd db in
          if now_epoch <> epoch then begin
            Rchannel.send ch db (request db);
            wait now_epoch
          end
          else wait epoch
    in
    (db, wait (Readiness.epoch rd db))
  in
  List.map collect dbs

(* One transaction's XA rounds at every database at once. *)

let xa_start_all ?poll ch rd ~dbs ~xid =
  ignore
    (broadcast_collect ?poll ch rd ~dbs
       ~request:(fun _ -> Msg.Xa_start { xid })
       ~matches:(function
         | Msg.Xa_started { xid = x } when Xid.equal x xid -> Some ()
         | _ -> None))

let xa_end_all ?poll ch rd ~dbs ~xid =
  ignore
    (broadcast_collect ?poll ch rd ~dbs
       ~request:(fun _ -> Msg.Xa_end { xid })
       ~matches:(function
         | Msg.Xa_ended { xid = x } when Xid.equal x xid -> Some ()
         | _ -> None))

let prepare_all ?poll ch rd ~dbs ~xid =
  let votes =
    broadcast_collect ?poll ch rd ~dbs
      ~request:(fun _ -> Msg.Prepare { xid })
      ~matches:(function
        | Msg.Vote_msg { xid = x; vote } when Xid.equal x xid -> Some vote
        | _ -> None)
  in
  if List.for_all (fun (_, v) -> v = Rm.Yes) votes then Rm.Commit
  else Rm.Abort

let decide_all ?poll ch rd ~dbs ~xid outcome =
  ignore
    (broadcast_collect ?poll ch rd ~dbs
       ~request:(fun _ -> Msg.Decide { xid; outcome })
       ~matches:(function
         | Msg.Ack_decide { xid = x } when Xid.equal x xid -> Some ()
         | _ -> None))

(* Batched XA rounds: one message per database carries the whole window of
   transactions, and one reply carries every answer. Replies are matched on
   the full xid list so a batch RPC can never consume another batch's (or a
   single-transaction call's) reply. *)

let xa_start_batch ?poll ch rd ~dbs ~xids =
  ignore
    (broadcast_collect ?poll ch rd ~dbs
       ~request:(fun _ -> Msg.Xa_start_batch { xids })
       ~matches:(function
         | Msg.Xa_started_batch { xids = x } when same_xids x xids -> Some ()
         | _ -> None))

let xa_end_batch ?poll ch rd ~dbs ~xids =
  ignore
    (broadcast_collect ?poll ch rd ~dbs
       ~request:(fun _ -> Msg.Xa_end_batch { xids })
       ~matches:(function
         | Msg.Xa_ended_batch { xids = x } when same_xids x xids -> Some ()
         | _ -> None))

let prepare_batch ?poll ch rd ~dbs ~xids =
  broadcast_collect ?poll ch rd ~dbs
    ~request:(fun _ -> Msg.Prepare_batch { xids })
    ~matches:(function
      | Msg.Vote_batch { votes } when same_xids (List.map fst votes) xids ->
          Some votes
      | _ -> None)

let decide_batch ?poll ch rd ~dbs ~items =
  let xids = List.map fst items in
  ignore
    (broadcast_collect ?poll ch rd ~dbs
       ~request:(fun _ -> Msg.Decide_batch { items })
       ~matches:(function
         | Msg.Ack_decide_batch { xids = x } when same_xids x xids -> Some ()
         | _ -> None))
