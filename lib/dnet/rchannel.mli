(** Reliable channel endpoints: retransmission + duplicate suppression.

    The paper assumes reliable channels with {e termination} (a message sent
    between two processes that stay up is eventually delivered) and
    {e integrity} (every message delivered at most once, and only if it was
    sent). In practice — the paper notes — "the abstraction of reliable
    channels is implemented by retransmitting messages and tracking
    duplicates"; this module is exactly that implementation.

    An endpoint lives inside one simulated process. Outgoing payloads get a
    per-destination sequence number and are retransmitted (with exponential
    back-off) until acknowledged; incoming data messages are acknowledged,
    deduplicated by [(source, sequence)] and handed to the owning process's
    mailbox via [Etx_runtime.redeliver], so protocol code above receives
    ordinary messages and stays oblivious to this layer.

    Endpoint state is volatile: it dies with the process, which is the
    correct semantics — a crashed process forgets what it sent, and the
    paper's protocols tolerate exactly that.

    A process that comes back up without the state to rejoin (a diskless
    app server, an operator console) is the paper's crash-stop failure:
    it is no longer a correct process, so termination owes it nothing,
    yet its peers' endpoints would retransmit every frame ever addressed
    to it for as long as the run lasts. Such a process runs {!absorb}
    instead of an endpoint: it acknowledges every data frame and delivers
    none, so its peers retire their outboxes to it and the engine can go
    quiet. *)

open Runtime

type t

val create :
  ?retransmit_after:float ->
  ?backoff_factor:float ->
  ?max_backoff:float ->
  unit ->
  t
(** Must be called from inside the owning fiber. Defaults: first
    retransmission after 10 ms, doubling up to 200 ms. *)

val start : t -> unit
(** Forks the receive-handler and retransmitter fibers. Call once, from the
    owning process, after [create]. *)

val send : t -> Types.proc_id -> Types.payload -> unit
(** Reliable send: at-least-once transmission, exactly-once delivery at a
    receiver endpoint while both processes stay up. Non-blocking. *)

val broadcast : t -> Types.proc_id list -> Types.payload -> unit

val absorb : unit -> unit
(** The endpoint of a process that is up but takes no part in the
    protocol. Runs forever in the calling fiber: every data frame
    received is acknowledged as the sender's cumulative mark (retiring
    its whole prefix to this process) and dropped undelivered; every
    other message is dropped. Keeps no state. *)

val pending : t -> int
(** Number of not-yet-acknowledged outgoing messages (for tests). *)

val inner_payload : Types.payload -> Types.payload option
(** [Some p] when the payload is a reliable-channel data frame carrying [p];
    [None] otherwise. Trace analyses use this to count protocol messages
    rather than channel frames. *)

val is_overhead : Types.payload -> bool
(** Channel bookkeeping (acks, kicks) that message-count analyses should
    ignore. *)
