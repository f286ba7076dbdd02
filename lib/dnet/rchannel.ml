open Runtime
module Rt = Etx_runtime

(* [rc_ep] identifies the sending endpoint incarnation: a process that
   crashes and recovers gets a fresh endpoint whose sequence numbers restart,
   so deduplication must key on (endpoint, seq) — otherwise a recovered
   database's first messages would be dropped as duplicates. Endpoint ids
   come from [Rt.fresh_uid], unique per engine on both backends, and every
   sender that reaches a channel runs on its engine: [rc_ep] alone names
   the sending process incarnation, so the source pid is not part of the
   key.

   Sequence numbers are per destination (starting at 1), which lets an ack
   carry [rc_cum], the receiver's highest contiguously-delivered sequence
   for that endpoint: one ack then retires a whole prefix of the outbox,
   and the receiver's duplicate-suppression state stays bounded by the
   out-of-order window instead of growing with every message ever seen. *)
type Types.payload +=
  | Rc_data of { rc_ep : int; rc_seq : int; inner : Types.payload }
  | Rc_ack of { rc_ep : int; rc_seq : int; rc_cum : int }
  | Rc_kick

let cls_frame =
  Rt.register_class ~name:"rc-frame" (function
    | Rc_data _ | Rc_ack _ -> true
    | _ -> false)

let cls_kick =
  Rt.register_class ~name:"rc-kick" (function
    | Rc_kick -> true
    | _ -> false)

type out_entry = {
  dst : Types.proc_id;
  seq : int;
  inner : Types.payload;
  mutable next_delay : float;
  mutable due : float;  (** absolute time of next retransmission *)
  mutable acked : bool;
}

(* sender-side per-destination stream *)
type dst_state = {
  mutable next_seq : int;
  live : out_entry Itbl.t;  (** seq -> unacked entry *)
  mutable min_live : int;
      (** every seq below this is retired; cumulative acks advance it *)
}

(* receiver-side per-endpoint stream *)
type rx_state = {
  mutable cum : int;  (** highest contiguously delivered sequence *)
  ooo : unit Itbl.t;  (** delivered out of order, above [cum] *)
}

type t = {
  owner : Types.proc_id;
  ep : int;  (** endpoint incarnation, globally unique *)
  retransmit_after : float;
  backoff_factor : float;
  max_backoff : float;
  streams : dst_state Itbl.t;  (** by destination pid *)
  timers : out_entry Heap.t;
      (** retransmission timers with lazy deletion, each entry keyed by its
          due time when pushed: acking or rescheduling an entry leaves its
          old slot in the heap, and pops skip slots whose entry is retired
          or whose due time moved on *)
  mutable pending : int;  (** unacked outgoing messages, O(1) *)
  rx : rx_state Itbl.t;  (** by sending endpoint [rc_ep] *)
  sink : Rt.obs_sink option;  (** fetched once at create; None = obs off *)
}

let count t name =
  match t.sink with None -> () | Some s -> s.Rt.obs_count name 1

let create ?(retransmit_after = 10.) ?(backoff_factor = 2.)
    ?(max_backoff = 200.) () =
  {
    owner = Rt.self ();
    (* endpoint ids are engine-scoped (unique across incarnations within a
       trial) so independent trials stay self-contained *)
    ep = Rt.fresh_uid ();
    retransmit_after;
    backoff_factor;
    max_backoff;
    streams = Itbl.create 16;
    timers = Heap.create ();
    pending = 0;
    rx = Itbl.create 16;
    sink = Rt.obs ();
  }

let pending t = t.pending

let stream_to t dst =
  match Itbl.find_opt t.streams dst with
  | Some ds -> ds
  | None ->
      let ds = { next_seq = 0; live = Itbl.create 16; min_live = 1 } in
      Itbl.add t.streams dst ds;
      ds

let stream_from t rc_ep =
  match Itbl.find_opt t.rx rc_ep with
  | Some rs -> rs
  | None ->
      let rs = { cum = 0; ooo = Itbl.create 8 } in
      Itbl.add t.rx rc_ep rs;
      rs

let push_timer t e = Heap.push t.timers e.due e

let retire t (e : out_entry) =
  if not e.acked then begin
    e.acked <- true;
    t.pending <- t.pending - 1
  end

let handle_ack t ds ~seq ~cum =
  (match Itbl.find_opt ds.live seq with
  | Some e ->
      Itbl.remove ds.live seq;
      retire t e
  | None -> ());
  (* advance the retired prefix; each sequence number is visited at most
     once over the stream's lifetime, so this is amortised O(1) per ack *)
  while ds.min_live <= cum do
    (match Itbl.find_opt ds.live ds.min_live with
    | Some e ->
        Itbl.remove ds.live ds.min_live;
        retire t e
    | None -> ());
    ds.min_live <- ds.min_live + 1
  done

let handle_incoming t (m : Types.message) =
  match m.payload with
  | Rc_data { rc_ep; rc_seq; inner } ->
      let rs = stream_from t rc_ep in
      let duplicate = rc_seq <= rs.cum || Itbl.mem rs.ooo rc_seq in
      if duplicate then count t "rc.duplicate";
      if not duplicate then begin
        if rc_seq = rs.cum + 1 then begin
          rs.cum <- rs.cum + 1;
          while Itbl.mem rs.ooo (rs.cum + 1) do
            Itbl.remove rs.ooo (rs.cum + 1);
            rs.cum <- rs.cum + 1
          done
        end
        else Itbl.add rs.ooo rc_seq ();
        Rt.send m.src (Rc_ack { rc_ep; rc_seq; rc_cum = rs.cum });
        Rt.redeliver ~src:m.src inner
      end
      else Rt.send m.src (Rc_ack { rc_ep; rc_seq; rc_cum = rs.cum })
  | Rc_ack { rc_ep; rc_seq; rc_cum } ->
      if rc_ep = t.ep then
        (match Itbl.find_opt t.streams m.src with
        | Some ds -> handle_ack t ds ~seq:rc_seq ~cum:rc_cum
        | None -> ())
  | _ -> ()

let receiver_loop t () =
  let rec loop () =
    match Rt.recv_cls cls_frame with
    | None -> ()
    | Some m ->
        handle_incoming t m;
        loop ()
  in
  loop ()

(* The retransmitter sleeps only while work is pending; with nothing unacked
   it blocks on a kick message, so a finished simulation reaches
   quiescence. *)
let retransmitter_loop t () =
  (* the top slot is stale once its entry is retired or rescheduled *)
  let stale_top () =
    let e = Heap.top t.timers in
    e.acked || Heap.min_key t.timers <> e.due
  in
  (* earliest live due time, discarding stale slots *)
  let rec next_due () =
    if Heap.is_empty t.timers then None
    else if stale_top () then begin
      ignore (Heap.pop t.timers);
      next_due ()
    end
    else Some (Heap.min_key t.timers)
  in
  let rec fire now =
    if not (Heap.is_empty t.timers) then
      if stale_top () then begin
        ignore (Heap.pop t.timers);
        fire now
      end
      else if Heap.min_key t.timers <= now then begin
        let e = Heap.pop t.timers in
        count t "rc.retransmit";
        Rt.send e.dst
          (Rc_data { rc_ep = t.ep; rc_seq = e.seq; inner = e.inner });
        e.next_delay <-
          Float.min t.max_backoff (e.next_delay *. t.backoff_factor);
        e.due <- now +. e.next_delay;
        push_timer t e;
        fire now
      end
  in
  let rec loop () =
    if t.pending = 0 then begin
      Heap.clear t.timers;
      ignore (Rt.recv_cls cls_kick);
      loop ()
    end
    else
      match next_due () with
      | None ->
          (* unreachable while the every-live-entry-has-a-timer invariant
             holds; blocking on a kick keeps quiescence safe regardless *)
          ignore (Rt.recv_cls cls_kick);
          loop ()
      | Some due ->
          let delay = Float.max 0.01 (due -. Rt.now ()) in
          ignore (Rt.recv_cls ~timeout:delay cls_kick);
          fire (Rt.now ());
          loop ()
  in
  loop ()

let start t =
  Rt.fork "rchannel-rx" (receiver_loop t);
  Rt.fork "rchannel-retransmit" (retransmitter_loop t)

let send t dst inner =
  let ds = stream_to t dst in
  ds.next_seq <- ds.next_seq + 1;
  let seq = ds.next_seq in
  let entry =
    {
      dst;
      seq;
      inner;
      next_delay = t.retransmit_after;
      due = Rt.now () +. t.retransmit_after;
      acked = false;
    }
  in
  Itbl.add ds.live seq entry;
  count t "rc.send";
  let was_idle = t.pending = 0 in
  t.pending <- t.pending + 1;
  push_timer t entry;
  Rt.send dst (Rc_data { rc_ep = t.ep; rc_seq = seq; inner });
  if was_idle then Rt.redeliver ~src:t.owner Rc_kick

let broadcast t dsts inner = List.iter (fun dst -> send t dst inner) dsts

(* Acking [rc_seq] as the cumulative mark retires the sender's whole
   prefix to this process in one ack; nothing is remembered, so a
   replayed frame is simply acked again. *)
let absorb () =
  let rec loop () =
    (match Rt.recv_any () with
    | Some { Types.src; payload = Rc_data { rc_ep; rc_seq; _ }; _ } ->
        Rt.send src (Rc_ack { rc_ep; rc_seq; rc_cum = rc_seq })
    | Some _ | None -> ());
    loop ()
  in
  loop ()

let inner_payload = function Rc_data { inner; _ } -> Some inner | _ -> None

let is_overhead = function Rc_ack _ | Rc_kick -> true | _ -> false
