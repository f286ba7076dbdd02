open Runtime
module Rt = Etx_runtime

type context = {
  xid : Dbms.Xid.t;
  dbs : Types.proc_id list;
  exec : db:Types.proc_id -> Dbms.Rm.op list -> Dbms.Rm.exec_reply;
  attempt : int;
}

type keyset = { reads : string list; writes : string list }

type branch_reply = { ok : bool; values : Dbms.Value.t option list }

type cross_spec = {
  plan : attempt:int -> body:string -> (string * Dbms.Rm.op list) list;
  finish :
    attempt:int ->
    body:string ->
    replies:(string * branch_reply) list ->
    Etx_types.result_value;
}

type t = {
  label : string;
  run : context -> body:string -> Etx_types.result_value;
  read_only : string -> bool;
  keys : string -> keyset;
  cacheable : Etx_types.result_value -> bool;
  cross : cross_spec option;
}

let no_keys = { reads = []; writes = [] }

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* A committed result is not necessarily a function of committed state: a
   try re-executed during fail-over can commit a transient error report
   (e.g. the database rejected the re-execution of an already-prepared
   transaction). Such results may be delivered — the spec only asks that
   a delivered result was computed and committed — but must never be
   cached as if re-reading would reproduce them. *)
let default_cacheable result = not (has_prefix ~prefix:"error:" result)

let make ?(read_only = fun _ -> false) ?(keys = fun _ -> no_keys)
    ?(cacheable = default_cacheable) ?cross ~label run =
  { label; run; read_only; keys; cacheable; cross }

let run_in ?poll t ch rd ~xid ~dbs ~attempt ~body =
  let fresh_seq = Dbms.Stub.seq_counter () in
  let exec ~db ops =
    Dbms.Stub.exec_retry ?poll ~fresh_seq ch rd ~db ~xid ops
  in
  t.run { xid; dbs; exec; attempt } ~body

let compute ?poll ?breakdown t ch rd ~xid ~dbs ~rid ~attempt ~body =
  let span label f = Stats.Breakdown.span_opt breakdown label f in
  span "start" (fun () -> Dbms.Stub.xa_start_all ?poll ch rd ~dbs ~xid);
  let result =
    span "SQL" (fun () -> run_in ?poll t ch rd ~xid ~dbs ~attempt ~body)
  in
  Rt.note (Printf.sprintf "computed:%d:%d:%s" rid attempt result);
  span "end" (fun () -> Dbms.Stub.xa_end_all ?poll ch rd ~dbs ~xid);
  result

let trivial =
  make ~label:"trivial"
    (* writes a per-xid marker key, which no declared keyset can name; the
       databases' workspace-derived invalidation covers it *)
    (fun ctx ~body ->
      let key = Printf.sprintf "mark:%s" (Dbms.Xid.to_string ctx.xid) in
      match ctx.dbs with
      | [] -> "ok:" ^ body
      | db :: _ -> (
          match ctx.exec ~db [ Dbms.Rm.Put (key, Dbms.Value.Str body) ] with
          | Dbms.Rm.Exec_ok _ -> "ok:" ^ body
          | Dbms.Rm.Exec_conflict _ | Dbms.Rm.Exec_rejected -> "error:" ^ body))
