(* Drives one workload run from outside the program: builds the cluster
   through the public builders, feeds it the generated schedule, and reads
   the outcome back from client records, the engine and the databases.
   Nothing here reaches into protocol internals; the only code of the
   benchmark's own that runs inside the cluster is the wrapped business
   logic, the wrapped network model and the client scripts. *)

module Rt = Runtime.Etx_runtime

(* Counters bumped by the wrapped closures. Atomic: the live backend runs
   them on several OS threads. *)
type counts = { compute_calls : int Atomic.t; exec_calls : int Atomic.t; msgs : int Atomic.t }

let fresh_counts () =
  { compute_calls = Atomic.make 0; exec_calls = Atomic.make 0; msgs = Atomic.make 0 }

(* [Bank.mixed] (audits and updates) composed with [Bank.transfer] into
   one method: the body grammar selects the branch. Transfers keep their
   cross-shard decomposition. *)
let bank_mix =
  let transfer body = List.length (String.split_on_char ':' body) = 3 in
  let pick body =
    if transfer body then Workload.Bank.transfer else Workload.Bank.mixed
  in
  Etx.Business.make ~label:"bench-bank"
    ~read_only:(fun b -> (not (transfer b)) && Workload.Bank.mixed.read_only b)
    ~keys:(fun b -> (pick b).keys b)
    ~cacheable:Workload.Bank.mixed.cacheable
    ?cross:Workload.Bank.transfer.cross
    (fun ctx ~body -> (pick body).run ctx ~body)

(* The business logic with every compute call and every database exec
   counted. *)
let counted p (b : Etx.Business.t) =
  {
    b with
    run =
      (fun ctx ~body ->
        Atomic.incr p.compute_calls;
        let exec ~db ops =
          Atomic.incr p.exec_calls;
          ctx.exec ~db ops
        in
        b.run { ctx with exec } ~body);
  }

let counted_net p (net : Rt.netmodel) : Rt.netmodel =
 fun rng ~src ~dst ->
  Atomic.incr p.msgs;
  net rng ~src ~dst

type load =
  | Open of { clients : int; due : float array; bodies : string array }
      (** request [i] becomes due at [due.(i)]; [clients] virtual clients
          take the next due request whenever they are free *)
  | Closed of { bodies : string array array }
      (** one client per array, issuing its bodies back to back *)

type fault = { crash_at : float; recover_after : float }

type config = {
  shards : int;
  batch : int;
  cache : bool;
  cross : bool;
  group_commit : bool;
  loss : float;
  fault : fault option;
  accounts : (string * int) list;  (** seed balances *)
  load : load;
}

(* One delivered request as the benchmark saw it. [due] is when it was due
   (open loop) or issued (closed loop); [start] when a client issued it. *)
type sample = { due : float; start : float; rec_ : Etx.Client.record }

let attempted cfg =
  match cfg.load with
  | Open { bodies; _ } -> Array.length bodies
  | Closed { bodies } -> Array.fold_left (fun n b -> n + Array.length b) 0 bodies

(* Client scripts plus the slot array they fill. *)
let scripts cfg =
  let now = Rt.now in
  match cfg.load with
  | Open { clients; due; bodies } ->
      let out = Array.make (Array.length bodies) None in
      let next = ref 0 in
      let script ~issue =
        let rec loop () =
          let i = !next in
          if i < Array.length bodies then begin
            incr next;
            let wait = due.(i) -. now () in
            if wait > 0. then Rt.sleep wait;
            let start = now () in
            let r = issue bodies.(i) in
            out.(i) <- Some { due = due.(i); start; rec_ = r };
            loop ()
          end
        in
        loop ()
      in
      (out, List.init clients (fun _ -> script))
  | Closed { bodies } ->
      let offsets =
        Array.fold_left (fun (acc, o) b -> (o :: acc, o + Array.length b)) ([], 0) bodies
        |> fst |> List.rev |> Array.of_list
      in
      let out = Array.make (attempted cfg) None in
      let script c ~issue =
        Array.iteri
          (fun k body ->
            let start = now () in
            let r = issue body in
            out.(offsets.(c) + k) <- Some { due = start; start; rec_ = r })
          bodies.(c)
      in
      (out, List.init (Array.length bodies) (fun c -> script c))

let business p = counted p bank_mix

(* ---------------------------------------------------------------- *)
(* Simulator runs *)

type sim_run = {
  config : config;
  samples : sample option array;
  cluster : Cluster.t;
  engine : Dsim.Engine.t;
  counts : counts;
  wall_s : float;  (** wall seconds driving the engine *)
  minor_words : float;
  events : int;
  slices : (float * int) list;
      (** per virtual slice: wall s, commits; the last entry is the settling
          phase after the final delivery *)
  settled : bool;
}

let slice_ms = 500.

let sim_net cfg =
  let base = Dnet.Netmodel.three_tier ~n_dbs:cfg.shards () in
  if cfg.loss > 0. then Dnet.Netmodel.lossy ~loss:cfg.loss base else base

let build_sim ?obs ~tracing ~seed cfg p scripts =
  let t0 = Unix.gettimeofday () in
  let e, c =
    Harness.Simrun.cluster ~seed ~tracing ?obs
      ~net:(counted_net p (sim_net cfg))
      ~shards:cfg.shards ~batch:cfg.batch ~cache:cfg.cache ~cross:cfg.cross
      ~group_commit:cfg.group_commit ~seed_data:(Workload.Bank.seed_accounts cfg.accounts)
      ~business:(business p) ~scripts ()
  in
  (e, c, Unix.gettimeofday () -. t0)

(* Wall time of building the cluster alone (databases seeded, processes
   spawned, nothing run). *)
let sim_setup_s ~seed cfg =
  let _, scripts = scripts cfg in
  let _, _, s = build_sim ~tracing:false ~seed cfg (fresh_counts ()) scripts in
  s

let run_sim ?obs ~tracing ~seed cfg =
  let p = fresh_counts () in
  let out, scripts = scripts cfg in
  let e, c, _ = build_sim ?obs ~tracing ~seed cfg p scripts in
  (match cfg.fault with
  | Some f ->
      let primary = Cluster.primary c ~shard:0 in
      Dsim.Engine.crash_at e f.crash_at primary;
      Dsim.Engine.recover_at e (f.crash_at +. f.recover_after) primary
  | None -> ());
  let n = Array.length out in
  let delivered () = Array.fold_left (fun k s -> if s = None then k else k + 1) 0 out in
  let last_due =
    match cfg.load with Open { due; _ } -> due.(n - 1) | Closed _ -> 0.
  in
  let cap = last_due +. 1_200_000. in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let slices = ref [] in
  let rec drive seen =
    if seen < n && Dsim.Engine.now_of e < cap then begin
      let w0 = Unix.gettimeofday () in
      ignore (Dsim.Engine.run ~deadline:(Dsim.Engine.now_of e +. slice_ms) e);
      let k = delivered () in
      slices := (Unix.gettimeofday () -. w0, k - seen) :: !slices;
      drive k
    end
  in
  drive 0;
  let w0 = Unix.gettimeofday () in
  let settled =
    Cluster.run_to_quiescence ~deadline:(Dsim.Engine.now_of e +. 120_000.) c
  in
  slices := (Unix.gettimeofday () -. w0, 0) :: !slices;
  let wall_s = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  {
    config = cfg;
    samples = out;
    cluster = c;
    engine = e;
    counts = p;
    wall_s;
    minor_words = gc1.minor_words -. gc0.minor_words;
    events = Dsim.Engine.events_of e;
    slices = List.rev !slices;
    settled;
  }

(* ---------------------------------------------------------------- *)
(* Checks shared by both backends *)

let delivered samples =
  Array.to_list samples |> List.filter_map Fun.id

let read_balance c account =
  let g = Cluster.group c (Cluster.shard_of_key c account) in
  match g.dbs with
  | (_, rm) :: _ -> (
      match Dbms.Rm.read_committed rm account with
      | Some (Dbms.Value.Int v) -> Some v
      | Some (Dbms.Value.Str _) | None -> None)
  | [] -> None

(* Every attempted request delivered exactly once (unique rid, no record
   the scripts did not ask for) and the ledger balanced. *)
let outside_checks cfg (c : Cluster.t) samples =
  let got = delivered samples in
  let all = Cluster.all_records c in
  Ledger.delivery ~attempted:(attempted cfg)
    ~rids:(List.map (fun (r : Etx.Client.record) -> r.rid) all)
  @ Ledger.check ~seed:cfg.accounts
      ~delivered:(List.map (fun s -> (s.rec_.Etx.Client.body, s.rec_.result)) got)
      ~read:(read_balance c)
