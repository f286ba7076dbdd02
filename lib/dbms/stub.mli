(** Application-server-side stubs for talking to database servers.

    These are the client halves of the XA surface: blocking RPCs over a
    reliable channel, resilient to database crashes. Instead of letting
    every waiting fiber race to consume the single [Ready] a recovering
    database broadcasts (the paper's "receive Vote or Ready" idiom), an
    application server runs one {!Readiness} listener that consumes [Ready]
    messages and bumps a per-database {e recovery epoch}; every blocked stub
    polls that epoch and re-sends its request when the database comes back.
    This is observationally the paper's protocol — a recovery un-blocks
    every waiter — without the starvation race between concurrent waiters
    (e.g. a compute thread in [prepare] and a cleaning thread in
    [terminate]). *)

open Runtime

module Readiness : sig
  type t

  val create : dbs:Types.proc_id list -> t
  (** Call inside the owning fiber. *)

  val start : t -> unit
  (** Fork the [Ready]-consuming listener. *)

  val epoch : t -> Types.proc_id -> int
  (** Bumped every time the database broadcasts [Ready]. *)
end

val xa_start :
  ?poll:float -> Dnet.Rchannel.t -> Readiness.t -> db:Types.proc_id -> xid:Xid.t -> unit
(** Blocking XA start on one database (resent across its recoveries). *)

val xa_end :
  ?poll:float -> Dnet.Rchannel.t -> Readiness.t -> db:Types.proc_id -> xid:Xid.t -> unit

val exec :
  ?poll:float ->
  ?seq:int ->
  Dnet.Rchannel.t ->
  Readiness.t ->
  db:Types.proc_id ->
  xid:Xid.t ->
  Rm.op list ->
  Rm.exec_reply
(** One blocking exec RPC; no conflict retry (see {!exec_retry}). [seq]
    (default 0) identifies this physical attempt within [xid]; the server
    executes each (xid, seq) at most once and replays the recorded reply to
    redelivered duplicates ({!Rm.exec_dedup}), so callers issuing several
    execs per transaction must give each a distinct number. *)

val seq_counter : unit -> unit -> int
(** A fresh exec-attempt counter: 0, 1, 2, ... *)

val exec_retry :
  ?poll:float ->
  ?backoff:float ->
  ?max_tries:int ->
  ?fresh_seq:(unit -> int) ->
  Dnet.Rchannel.t ->
  Readiness.t ->
  db:Types.proc_id ->
  xid:Xid.t ->
  Rm.op list ->
  Rm.exec_reply
(** Like {!exec} but backs off and retries on [Exec_conflict] (a lock held
    by another — possibly dead — transaction that the cleaning thread will
    eventually release). After [max_tries] (default 20, backoff default
    40 ms) the conflict is returned to the caller, which should poison the
    transaction rather than commit a partial workspace. Each attempt draws
    its sequence number from [fresh_seq] (default: a counter private to
    this call); pass the transaction-scoped counter when a business run
    makes more than one exec call on the same [xid]. *)

val wait_vote :
  ?poll:float -> Dnet.Rchannel.t -> Readiness.t -> db:Types.proc_id -> xid:Xid.t -> Rm.vote
(** Send [Prepare] and wait for this database's vote, re-sending across
    recoveries (a recovered database forgets the transaction and votes
    [No], which is the paper's "Ready counts as failure" rule). *)

val wait_ack_decide :
  ?poll:float ->
  Dnet.Rchannel.t ->
  Readiness.t ->
  db:Types.proc_id ->
  xid:Xid.t ->
  Rm.outcome ->
  unit
(** Send [Decide] and wait for [AckDecide], re-sending across recoveries —
    the paper's terminate() retry loop, per database. *)

val commit_one_phase :
  ?poll:float -> Dnet.Rchannel.t -> Readiness.t -> db:Types.proc_id -> xid:Xid.t -> Rm.outcome
(** Baseline protocol: single-phase commit RPC. *)

val broadcast_collect :
  ?poll:float ->
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  request:(Types.proc_id -> Types.payload) ->
  matches:(Types.payload -> 'a option) ->
  (Types.proc_id * 'a) list
(** The paper's multicast-then-wait-for-all idiom ([prepare()] and
    [terminate()] of Figure 4): send [request db] to every database at once,
    then collect one matching reply from each, re-sending to any database
    that recovers meanwhile. One sequential communication step regardless of
    the number of databases. *)

(** {1 One transaction at every database}

    {!broadcast_collect} rounds for a single xid: one communication step
    regardless of the number of databases. *)

val xa_start_all :
  ?poll:float ->
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xid:Xid.t ->
  unit

val xa_end_all :
  ?poll:float ->
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xid:Xid.t ->
  unit

val prepare_all :
  ?poll:float ->
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xid:Xid.t ->
  Rm.outcome
(** Figure 4's [prepare()]: [Commit] iff every database votes [Yes]. *)

val decide_all :
  ?poll:float ->
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xid:Xid.t ->
  Rm.outcome ->
  unit
(** Figure 4's [terminate()] round: [Decide] until every database acked. *)

(** {1 Batched XA rounds (group commit)}

    One message per database carries a whole window of transactions and one
    reply carries every answer, so a window of N transactions costs the same
    number of protocol messages as a single transaction. Replies are matched
    on the full xid list: a batch RPC can never consume another batch's (or
    a single-transaction call's) reply. All four re-send across recoveries
    like their singular counterparts. *)

val xa_start_batch :
  ?poll:float ->
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xids:Xid.t list ->
  unit

val xa_end_batch :
  ?poll:float ->
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xids:Xid.t list ->
  unit

val prepare_batch :
  ?poll:float ->
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  xids:Xid.t list ->
  (Types.proc_id * (Xid.t * Rm.vote) list) list
(** Batched prepare: every database answers its whole vote vector (input
    order) after a single group-commit log force ({!Rm.vote_many}). *)

val decide_batch :
  ?poll:float ->
  Dnet.Rchannel.t ->
  Readiness.t ->
  dbs:Types.proc_id list ->
  items:(Xid.t * Rm.outcome) list ->
  unit
(** Batched terminate: one [Decide_batch] per database carrying all N
    outcomes, acknowledged once applied ({!Rm.decide_many}). *)
