(** The paper's [compute()] abstraction: business logic that manipulates the
    databases inside a transaction and produces a result value.

    [compute()] is non-deterministic — its result depends on database state
    — and may be invoked several times for the same request (for successive
    result identifiers [j]). It must not commit anything itself. Per the
    paper's footnote, business logic must not insist forever on an
    uncommittable outcome: after a user-level abort it should eventually
    compute a result that merely {e reports} the problem, which the
    databases will happily commit. *)

open Runtime

type context = {
  xid : Dbms.Xid.t;  (** the transaction this computation runs in *)
  dbs : Types.proc_id list;  (** all database servers *)
  exec : db:Types.proc_id -> Dbms.Rm.op list -> Dbms.Rm.exec_reply;
      (** blocking transactional batch on one database (with bounded
          lock-conflict retry); [Exec_rejected] means the database lost the
          transaction — give up, the vote will abort the try *)
  attempt : int;  (** the result identifier [j] of this try *)
}

type keyset = { reads : string list; writes : string list }
(** The database keys a method invocation declares it will touch, as a
    function of the request body alone (it cannot depend on database
    state). [reads] index cache entries for invalidation; [writes] let the
    decider invalidate its own cache eagerly. Declared keysets may
    under-approximate writes — the commit pipeline's invalidation is
    derived from the transaction's {e actual} workspace at the database —
    but [reads] must cover every key whose value the result depends on,
    or cached results can go stale undetected. *)

type branch_reply = { ok : bool; values : Dbms.Value.t option list }
(** Outcome of one branch of a cross-shard plan: [ok] is the branch's
    business verdict (a failed [Ensure_min], a lock-conflict give-up or a
    database rejection all make it [false], which becomes an abort vote);
    [values] are the branch's [Get] results in operation order. *)

type cross_spec = {
  plan : attempt:int -> body:string -> (string * Dbms.Rm.op list) list;
      (** [plan ~attempt ~body] decomposes the invocation into branches:
          [(anchor_key, ops)] pairs, each executed transactionally on the
          shard owning [anchor_key]. Pure — it may depend only on its
          arguments (it is re-evaluated verbatim by whoever completes the
          transaction after a coordinator crash). Branches sharing a shard
          are merged by the engine. Like the classic [run], successive
          attempts may plan differently (e.g. degrade to a read-only probe
          after user-level aborts) but must eventually plan something the
          databases will commit. *)
  finish :
    attempt:int ->
    body:string ->
    replies:(string * branch_reply) list ->
    Etx_types.result_value;
      (** [finish] folds the branches' replies (keyed by anchor key) into
          the result value, called only when every branch voted yes — the
          commit case. Pure for the same reason as [plan]: any driver must
          derive the identical committed result. *)
}
(** Cross-shard decomposition of a business method, used only when the
    request's keys span several shards; co-located requests always ride
    [run]. *)

type t = {
  label : string;
  run : context -> body:string -> Etx_types.result_value;
      (** must always return a (non-nil) result value *)
  read_only : string -> bool;
      (** [read_only body]: this invocation performs no writes and is
          idempotent, so its result may be served from the method cache *)
  keys : string -> keyset;  (** declared keyset of an invocation *)
  cacheable : Etx_types.result_value -> bool;
      (** [cacheable result]: the committed result of a read-only call is
          a function of committed state and may enter the method cache.
          Transient error reports (a try re-executed during fail-over can
          commit one) are deliverable but must not be cached — re-reading
          would not reproduce them. *)
  cross : cross_spec option;
      (** cross-shard decomposition; [None] (the default) confines the
          method to a single shard, exactly as before cross-shard commit
          existed *)
}

val no_keys : keyset
(** [{ reads = []; writes = [] }] — the declaration of a method that does
    not participate in caching. *)

val make :
  ?read_only:(string -> bool) ->
  ?keys:(string -> keyset) ->
  ?cacheable:(Etx_types.result_value -> bool) ->
  ?cross:cross_spec ->
  label:string ->
  (context -> body:string -> Etx_types.result_value) ->
  t
(** Smart constructor; [read_only] defaults to never, [keys] to
    {!no_keys} — i.e. methods are uncacheable unless they opt in —
    [cacheable] to rejecting ["error:"]-prefixed results (the
    convention every bundled workload uses for transient failures), and
    [cross] to [None] (single-shard only). Workloads with richer result
    grammars should whitelist explicitly. *)

val run_in :
  ?poll:float ->
  t ->
  Dnet.Rchannel.t ->
  Dbms.Stub.Readiness.t ->
  xid:Dbms.Xid.t ->
  dbs:Types.proc_id list ->
  attempt:int ->
  body:string ->
  Etx_types.result_value
(** Run the business logic inside transaction [xid]. Its [exec] retries
    lock conflicts ({!Dbms.Stub.exec_retry}) and draws every physical
    attempt's sequence number from one counter per run, so a redelivered
    exec never executes twice at the resource manager
    ({!Dbms.Rm.exec_dedup}). *)

val compute :
  ?poll:float ->
  ?breakdown:Stats.Breakdown.t ->
  t ->
  Dnet.Rchannel.t ->
  Dbms.Stub.Readiness.t ->
  xid:Dbms.Xid.t ->
  dbs:Types.proc_id list ->
  rid:int ->
  attempt:int ->
  body:string ->
  Etx_types.result_value
(** The paper's [compute()] of try [attempt] of request [rid] as
    transaction [xid]: XA start at every database, {!run_in}, the
    ["computed:rid:j:result"] note the spec's V.1 check reads, XA end at
    every database. With [breakdown], the three steps are charged to the
    Figure 8 categories "start", "SQL" and "end". *)

val trivial : t
(** Reads nothing, writes one marker key; useful for protocol tests. *)
