(* The e-Transaction benchmark: three simulated workloads, end-to-end
   metrics from untraced runs, the per-layer ledger from a traced run and
   the layer probes, the live backend among them.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. See README.md in this directory
   for the workloads and metric definitions. *)

open Perfbench

type metric = { name : string; unit_ : string; value : float; note : string }

let metric ?(note = "") name unit_ value = { name; unit_; value; note }

(* Nearest-rank percentile of exact samples; nan when there are none (the
   report then marks the run incorrect). *)
let pct xs p = if xs = [] then nan else Stats.Summary.percentile xs p
let median xs = pct xs 50.

(* ---------------------------------------------------------------- *)
(* Workload definitions *)

type rung = { label : string; rate : float }

(* What the process that ran a simulated sub-run sends back. *)
type sub = {
  cfg : Drive.config;
  ss : Drive.sample list;
  wall_s : float;
  slices : (float * int) list;  (** wall s and commits of each virtual slice *)
  heap_mb : float;  (** peak major heap of the process that ran it *)
}

type sim_workload = {
  subs : int -> (string * int * Drive.config) list;
      (** one round of sub-runs for a workload seed: label, engine seed,
          configuration *)
  traced_sub : string;  (** the sub-run the traced run repeats *)
  round_s : float;
      (** wall seconds of one round of sub-runs on the reference host (see
          README.md); fixes how many times each sub-run executes *)
  e2e : (string * sub) list -> metric list;
      (** virtual-time end-to-end metrics of one round *)
}

let classic_accounts = 10_000
let classic_requests = 120
let classic_rate = 2.
let classic_crash_after = 5_000.
let classic_recover_after = 3_000.

(* The crash lands 50 ms after the first request due past 5 s is issued,
   so that at least one request is in flight when the primary dies. *)
let classic_config ~seed =
  let n = classic_requests in
  let due = Sched.poisson ~seed ~salt:1 ~rate_tps:classic_rate ~n ~start:100. in
  let bodies = Sched.updates ~seed ~salt:2 ~accounts:classic_accounts ~n in
  let first_late =
    let k = ref 0 in
    while due.(!k) < classic_crash_after do
      incr k
    done;
    due.(!k)
  in
  {
    Drive.shards = 1;
    batch = 1;
    cache = false;
    cross = false;
    group_commit = false;
    loss = 0.01;
    fault = Some { crash_at = first_late +. 50.; recover_after = classic_recover_after };
    accounts = List.init classic_accounts (fun i -> (Sched.account i, 1_000_000));
    load = Open { clients = 64; due; bodies };
  }

let ladder =
  [
    { label = "low"; rate = 20. };
    { label = "mid"; rate = 40. };
    { label = "r45"; rate = 45. };
    { label = "r55"; rate = 55. };
    { label = "r60"; rate = 60. };
    { label = "over"; rate = 80. };
  ]

(* Capacity is about 52 req/s; p99 runs from 0.5-0.9 s at 45 to 1.7-2.5 s
   at 55 across seeds. A rung at 50 sits on the knee (p99 0.9-1.9 s) and
   would make the selection flip between seeds, so the ladder steps over
   it. *)
let ladder_requests = 1_000
let ladder_p99_limit_ms = 1_500.

let ladder_config ~seed rung =
  let n = ladder_requests in
  {
    Drive.shards = 1;
    batch = 16;
    cache = false;
    cross = false;
    group_commit = true;
    loss = 0.;
    fault = None;
    accounts = List.init n (fun i -> (Sched.account i, 1_000_000));
    load =
      Open
        {
          clients = 256;
          due = Sched.poisson ~seed ~salt:3 ~rate_tps:rung.rate ~n ~start:100.;
          bodies = Sched.disjoint_updates ~seed ~salt:4 ~n;
        };
  }

let mixed_clients = 16
let mixed_per_client = 40
let mixed_accounts = 64

let mixed_config ~seed =
  let map = Etx.Shard_map.create ~shards:2 () in
  let n = mixed_clients * mixed_per_client in
  let bodies =
    Sched.mixed ~seed ~salt:5 ~accounts:mixed_accounts
      ~shard_of:(Etx.Shard_map.shard_of map) ~n
  in
  {
    Drive.shards = 2;
    batch = 1;
    cache = true;
    cross = true;
    group_commit = false;
    loss = 0.;
    fault = None;
    accounts = List.init mixed_accounts (fun i -> (Sched.account i, 1_000_000));
    load =
      Closed
        {
          bodies =
            Array.init mixed_clients (fun c ->
                Array.sub bodies (c * mixed_per_client) mixed_per_client);
        };
  }

(* ---------------------------------------------------------------- *)
(* End-to-end metrics of simulated rounds *)

let samples_of (r : Drive.sim_run) = Drive.delivered r.samples

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1_048_576.

let sub_of (r : Drive.sim_run) =
  {
    cfg = r.config;
    ss = samples_of r;
    wall_s = r.wall_s;
    slices = r.slices;
    heap_mb = peak_heap_mb ();
  }

let latency (s : Drive.sample) = s.rec_.Etx.Client.delivered_at -. s.due
let delivered_at (s : Drive.sample) = s.rec_.Etx.Client.delivered_at
let first_due ss = List.fold_left (fun m s -> Float.min m s.Drive.due) infinity ss

(* Commits per second of the workload's clock, over the window from the
   first due request to the last delivery. *)
let goodput runs =
  let commits, span =
    List.fold_left
      (fun (n, t) r ->
        match r.ss with
        | [] -> (n, t)
        | ss ->
            let last = List.fold_left (fun m s -> Float.max m (delivered_at s)) 0. ss in
            (n + List.length ss, t +. ((last -. first_due ss) /. 1000.)))
      (0, 0.) runs
  in
  float_of_int commits /. span

(* The median over all samples of the runs; the tail of each run by the
   tail rule, then the median of those. Every run of a workload has the
   same request count, so the tail percentile is fixed by the workload. *)
let latency_metrics runs =
  let lat = List.concat_map (fun r -> List.map latency r.ss) runs in
  let tails = List.filter_map (fun r -> Bstats.tail (List.map latency r.ss)) runs in
  let tail =
    match tails with
    | t :: _ ->
        metric "commit_tail_ms" "ms"
          (median (List.map (fun (t : Bstats.tail) -> t.value) tails))
          ~note:
            (Printf.sprintf "p%.2f of %d samples, median of %d runs" t.percentile t.samples
               (List.length tails))
    | [] -> metric "commit_tail_ms" "ms" nan ~note:"too few samples"
  in
  [
    metric "commit_p50_ms" "ms" (median lat)
      ~note:(Printf.sprintf "%d samples" (List.length lat));
    tail;
  ]

(* Longest commit-free interval from the first due request to the last
   delivery, median over the runs. *)
let stall_gap runs =
  median
    (List.map (fun r -> Bstats.longest_gap ~from:(first_due r.ss) (List.map delivered_at r.ss)) runs)

(* Time from the crash until the last request in flight at the crash (issued
   before it, delivered after it) is delivered: the stall fail-over imposes
   on the requests it interrupts. Median over the runs. *)
let failover_gap runs =
  median
    (List.map
       (fun r ->
         let crash = match r.cfg.fault with Some f -> f.crash_at | None -> 0. in
         List.fold_left
           (fun m (s : Drive.sample) ->
             if s.start <= crash && delivered_at s > crash then
               Float.max m (delivered_at s -. crash)
             else m)
           0. r.ss)
       runs)

let classic_e2e subs =
  let runs = List.map snd subs in
  let g = goodput runs in
  latency_metrics runs
  @ [
      metric "goodput_tps" "1/s" g;
      metric "max_rate_tps" "1/s" g ~note:"one offered rate: equals goodput";
      metric "failover_gap_ms" "ms" (failover_gap runs)
        ~note:"crash to last in-flight delivery, median of runs";
    ]

let rung_runs subs rg =
  List.filter_map
    (fun (l, r) -> if String.starts_with ~prefix:(rg.label ^ "/") l then Some r else None)
    subs

(* Per ladder (one per sub-seed): each rung's p99 and backlog, the highest
   passing rate; the median over the ladders. *)
let ladder_e2e subs =
  let ladders = List.length (rung_runs subs (List.hd ladder)) in
  let max_rates =
    List.init ladders (fun k ->
        let rungs =
          List.map
            (fun rg ->
              let ss = (List.nth (rung_runs subs rg) k).ss in
              let lat = List.map latency ss in
              let growing =
                Bstats.backlog_growing
                  ~due:(Array.of_list (List.map (fun s -> s.Drive.due) ss))
                  ~committed:(Array.of_list (List.map delivered_at ss))
              in
              let p99 = pct lat 99. in
              Printf.printf "  ladder %d rung %-4s %5.1f/s  p50 %8.1f ms  p99 %8.1f ms  backlog %s\n"
                k rg.label rg.rate (median lat) p99
                (if growing then "growing" else "steady");
              { Bstats.rate = rg.rate; p99; growing })
            ladder
        in
        Option.value ~default:0. (Bstats.max_rate ~limit:ladder_p99_limit_ms rungs))
  in
  let at label = rung_runs subs (List.find (fun rg -> rg.label = label) ladder) in
  latency_metrics (at "mid")
  @ [
      metric "goodput_tps" "1/s" (goodput (at "over")) ~note:"at rung over";
      metric "max_rate_tps" "1/s" (median max_rates)
        ~note:
          (Printf.sprintf "p99 <= %.0f ms, no growing backlog; median of %d ladders"
             ladder_p99_limit_ms ladders);
      metric "failover_gap_ms" "ms" (stall_gap (at "mid"))
        ~note:"no fault: longest commit-free interval at mid";
    ]

let mixed_e2e subs =
  let runs = List.map snd subs in
  let g = goodput runs in
  latency_metrics runs
  @ [
      metric "goodput_tps" "1/s" g;
      metric "max_rate_tps" "1/s" g ~note:"closed loop: equals goodput";
      metric "failover_gap_ms" "ms" (stall_gap runs)
        ~note:"no fault: longest commit-free interval, median of runs";
    ]

let sub_seed ~seed i = (seed * 1009) + i

let repeated ~seed k config =
  List.init k (fun i -> (Printf.sprintf "s%d" i, sub_seed ~seed i, config ~seed:(sub_seed ~seed i)))

let classic_runs = 8
let ladder_runs = 3
let mixed_runs = 12

let sim_workloads =
  [
    ( "classic-failover",
      {
        subs = (fun seed -> repeated ~seed classic_runs classic_config);
        traced_sub = "s0";
        e2e = classic_e2e;
        round_s = 4.4;
      } );
    ( "batched-ladder",
      {
        subs =
          (fun seed ->
            List.concat
              (List.init ladder_runs (fun k ->
                   List.mapi
                     (fun i rg ->
                       let s = sub_seed ~seed ((k * List.length ladder) + i) in
                       (Printf.sprintf "%s/%d" rg.label k, s, ladder_config ~seed:s rg))
                     ladder)));
        traced_sub = "mid/0";
        e2e = ladder_e2e;
        round_s = 2.5;
      } );
    ( "sharded-mixed",
      {
        subs = (fun seed -> repeated ~seed mixed_runs mixed_config);
        traced_sub = "s0";
        e2e = mixed_e2e;
        round_s = 1.9;
      } );
  ]

(* ---------------------------------------------------------------- *)
(* Deterministic fingerprint of a simulated run *)

type fingerprint = {
  events : int;
  msgs : int;
  commits : int;
  end_vt : float;
  latency_sum : float;
  compute_calls : int;
  exec_calls : int;
  log_lsns : int;
}

let fingerprint (r : Drive.sim_run) =
  let ss = samples_of r in
  {
    events = r.events;
    msgs = Atomic.get r.counts.msgs;
    commits = List.length ss;
    end_vt = Dsim.Engine.now_of r.engine;
    latency_sum = List.fold_left (fun a s -> a +. latency s) 0. ss;
    compute_calls = Atomic.get r.counts.compute_calls;
    exec_calls = Atomic.get r.counts.exec_calls;
    log_lsns =
      Array.fold_left
        (fun a (g : Cluster.group) ->
          List.fold_left (fun a (_, rm) -> a + Dbms.Rm.appended_lsn rm) a g.dbs)
        0 r.cluster.groups;
  }

let show_fp f =
  Printf.sprintf "events=%d msgs=%d commits=%d end=%.3f lat=%.3f compute=%d exec=%d lsn=%d"
    f.events f.msgs f.commits f.end_vt f.latency_sum f.compute_calls f.exec_calls f.log_lsns

(* ---------------------------------------------------------------- *)
(* Shared state of one invocation *)

let violations = ref []
let attempted = ref 0
let failed = ref 0

let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt

(* Counts one run's requests and records its check failures. *)
let account cfg ~label ~delivered errors =
  let n = Drive.attempted cfg in
  attempted := !attempted + n;
  failed := !failed + (n - delivered);
  List.iter (violation "%s: %s" label) errors

(* A simulated run in its own process: what it leaves behind, and the
   failures of the outside-in checks. *)
type outcome = {
  sub : sub;
  fp : fingerprint;
  minor_words : float;
  errors : string list;
}

let sim_outcome ?obs ~tracing ~seed cfg =
  let r = Drive.run_sim ?obs ~tracing ~seed cfg in
  ( r,
    {
      sub = sub_of r;
      fp = fingerprint r;
      minor_words = r.minor_words;
      errors =
        Drive.outside_checks cfg r.cluster r.samples
        @ if r.settled then [] else [ "did not quiesce" ];
    } )

(* The state a traced classic-failover sub-run ends with, as measured on
   it: the sizes the layer probes' ".full" variants start from. *)
type state_size = {
  instances : int;  (** consensus instances decided at the busiest member *)
  log_records : int;  (** log records appended, all databases *)
  transactions : int;  (** transactions the databases hold a record of *)
  series : int;  (** series in the obs registry *)
}

(* One live run, as its process sends it back: its configuration, the
   requests delivered and the failures of its checks. *)
type live_check = { l_cfg_out : Drive.config; l_delivered : int; l_errors : string list }

(* Each timed run executes in a fresh process (this executable, re-run
   with --child) that marshals its result to its standard output. Every
   run then starts from the same small heap, so its peak heap and wall
   time depend neither on the runs before it (the OCaml 5.1 major heap
   never shrinks) nor on the benchmark's own bookkeeping, and its memory
   is returned when it ends. *)
type child_result =
  | Plain of outcome
  | Traced of outcome * metric list * state_size
  | Live of live_check list * metric list

let in_child args : child_result =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: "--child" :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let r = try Some (Marshal.from_channel ic : child_result) with End_of_file -> None in
  close_in ic;
  match (Unix.waitpid [] pid, r) with
  | (_, Unix.WEXITED 0), Some r -> r
  | _ -> failwith ("run failed: " ^ String.concat " " args)

let sim_args ~workload ~label ~seed ~traced =
  [ workload; label; string_of_int seed; (if traced then "1" else "0") ]

let per f n = if n = 0 then 0. else float_of_int f /. float_of_int n
let perf f n = if n = 0 then 0. else f /. float_of_int n

(* Set-up time. Each sample is the mean of a batch of builds sized to take
   about 20 ms, so that sub-millisecond builds stay clear of timer
   resolution; [build] returns its own time. Samples are spread over the
   run (one before each simulated run) so that a slow phase of the host
   does not hit all of them; the metric is their median. *)
type setup = { build : unit -> float; batch : int; mutable samples : float list }

let setup_sampler build =
  let once = build () in
  { build; batch = max 1 (min 1000 (int_of_float (0.02 /. Float.max once 1e-6))); samples = [] }

let take_setup s =
  Gc.full_major ();
  let total = ref 0. in
  for _ = 1 to s.batch do
    total := !total +. s.build ()
  done;
  s.samples <- (!total /. float_of_int s.batch) :: s.samples

let setup_metric s =
  metric "setup_s" "s" (median s.samples)
    ~note:(Printf.sprintf "median of %d samples of %d builds" (List.length s.samples) s.batch)

(* ---------------------------------------------------------------- *)
(* Untraced simulated runs: the end-to-end metrics *)

(* One round of sub-runs gives the virtual-time metrics; then the round is
   repeated, each repeat checked against the first run of its sub-seed.
   Every sub-run executes the same number of times, set from --seconds and
   the workload's reference round time, never from the speed measured, so
   a faster program gets no more executions than a slower one. On a
   shared host a run is only ever slowed down, in phases of about half a
   second of up to 1.5x. Executions of a sub-run are deterministic, so
   each 500 ms virtual slice does the same work in every one: the wall
   rate is the round's commits over the sum, across slices, of each
   slice's fastest wall time. *)
let sim_e2e name w ~seed ~seconds =
  let subs = w.subs seed in
  let setup =
    let _, s, cfg = List.find (fun (l, _, _) -> l = w.traced_sub) subs in
    setup_sampler (fun () -> Drive.sim_setup_s ~seed:s cfg)
  in
  let executions = max 2 (int_of_float (Float.round (seconds /. w.round_s))) in
  let first = Hashtbl.create 16 and walls = Hashtbl.create 16 in
  let run_sub (label, s, cfg) =
    take_setup setup;
    let o =
      match in_child (sim_args ~workload:name ~label ~seed ~traced:false) with
      | Plain o -> o
      | _ -> failwith "unexpected child result"
    in
    account cfg ~label:(name ^ "/" ^ label) ~delivered:o.fp.commits o.errors;
    (match Hashtbl.find_opt first label with
    | None -> Hashtbl.add first label o.fp
    | Some fp0 ->
        if o.fp <> fp0 then
          violation "%s/%s: nondeterministic: %s vs %s" name label (show_fp fp0) (show_fp o.fp));
    let slice_walls = Array.of_list (List.map fst o.sub.slices) in
    Hashtbl.replace walls label
      (match Hashtbl.find_opt walls label with
      | Some best when Array.length best = Array.length slice_walls ->
          Array.map2 Float.min best slice_walls
      | _ -> slice_walls);
    Printf.printf "  run %-7s seed %-7d %5d commits %9d events %7.3f s wall %7.1f MB heap\n%!" label s
      o.fp.commits o.fp.events o.sub.wall_s o.sub.heap_mb;
    (label, o.sub)
  in
  let round = List.map run_sub subs in
  let e2e = w.e2e round in
  for _ = 2 to executions do
    List.iter (fun sub -> ignore (run_sub sub)) subs
  done;
  let n = List.length subs in
  let commits = List.fold_left (fun a (_, r) -> a + List.length r.ss) 0 round in
  let wall =
    List.fold_left (fun a (l, _) -> a +. Array.fold_left ( +. ) 0. (Hashtbl.find walls l)) 0. round
  in
  let tried = List.fold_left (fun a (_, r) -> a + Drive.attempted r.cfg) 0 round in
  e2e
  @ [
      metric "wall_commits_per_s" "1/s" (float_of_int commits /. wall)
        ~note:(Printf.sprintf "%d runs x %d executions" n executions);
      metric "peak_heap_mb" "MB"
        (Stats.Summary.mean (List.map (fun (_, r) -> r.heap_mb) round))
        ~note:"peak major heap of a run, mean of runs";
      metric "committed_ratio" "ratio" (per commits tried);
      setup_metric setup;
    ]

(* ---------------------------------------------------------------- *)
(* Per-layer ledger *)

let counter reg name = Obs.Registry.counter_total reg name

let counter_prefix reg prefix =
  List.fold_left
    (fun a ((k : Obs.Registry.key), v) -> if String.starts_with ~prefix k.name then a + v else a)
    0 (Obs.Registry.counters reg)

let hist_mean reg name =
  match Obs.Registry.merged_histogram reg name with
  | Some h when Obs.Histogram.count h > 0 -> Obs.Histogram.sum h /. float_of_int (Obs.Histogram.count h)
  | _ -> 0.

let span_total reg name =
  List.fold_left
    (fun a (s : Obs.Span.t) ->
      if s.name = name then a +. Option.value ~default:0. (Obs.Span.duration s) else a)
    0. (Obs.Registry.spans reg)

(* Message kinds from the engine trace: consensus traffic, and gx
   (cross-shard commit) traffic by class name of the carried payload. *)
let trace_messages e =
  let consensus = ref 0 and gx = ref 0 in
  List.iter
    (fun (en : Dsim.Trace.entry) ->
      match en.event with
      | Dsim.Trace.Sent (m, _) when m.src <> m.dst -> (
          (match Harness.Msgclass.kind_of m with
          | Harness.Msgclass.Consensus -> incr consensus
          | _ -> ());
          let inner =
            Option.value ~default:m.payload (Dnet.Rchannel.inner_payload m.payload)
          in
          let cls = Runtime.Etx_runtime.classify inner in
          if cls >= 0 && String.starts_with ~prefix:"etx-gx" (Runtime.Etx_runtime.class_name cls) then
            incr gx)
      | _ -> ())
    (Dsim.Trace.entries (Dsim.Engine.trace e));
  (!consensus, !gx)

type layer_input = {
  reg : Obs.Registry.t;
  commits : int;  (** committed requests of the traced run *)
  requests : int;
  samples : Drive.sample list;
  counts : Drive.counts;
  consensus_msgs : int;
  gx_msgs : int;
  cross_commits : int;
  writes : int;  (** committed write requests *)
}

let layer_metrics i =
  let c = i.commits in
  let sent = counter_prefix i.reg "net.sent." in
  let decides = counter i.reg "consensus.decides" in
  let hits = counter i.reg "cache.hit" and misses = counter i.reg "cache.miss" in
  let lag =
    pct (List.map (fun s -> s.Drive.start -. s.due) i.samples) 99.
  in
  let tries =
    List.fold_left (fun a s -> a + s.Drive.rec_.Etx.Client.tries) 0 i.samples
  in
  [
    metric "dnet.msgs_per_commit" "count" (per sent c);
    metric "dnet.overhead_msgs_per_commit" "count" (per (sent - counter i.reg "rc.send") c);
    metric "dnet.retransmits_per_commit" "count" (per (counter i.reg "rc.retransmit") c);
    metric "consensus.decides_per_commit" "count" (per decides c);
    metric "consensus.rounds_per_write" "count" (hist_mean i.reg "consensus.rounds_per_write");
    metric "consensus.msgs_per_commit" "count" (per i.consensus_msgs c);
    metric "dbms.exec_calls_per_commit" "count" (per (Atomic.get i.counts.exec_calls) c);
    metric "dbms.vote_ms" "ms" (hist_mean i.reg "db.vote_ms");
    metric "dbms.decide_ms" "ms" (hist_mean i.reg "db.decide_ms");
    metric "dstore.forces_per_commit" "count" (per (counter i.reg "db.force") c);
    metric "dstore.log_bytes_per_commit" "B"
      (perf
         (List.fold_left
            (fun a ((k : Obs.Registry.key), v) -> if k.name = "db.log_bytes" then a +. v else a)
            0. (Obs.Registry.gauges i.reg))
         c);
    metric "core.election_ms" "ms" (perf (span_total i.reg "election") c);
    metric "core.compute_ms" "ms" (perf (span_total i.reg "compute") c);
    metric "core.prepare_ms" "ms" (perf (span_total i.reg "prepare") c);
    metric "core.consensus_ms" "ms" (perf (span_total i.reg "consensus") c);
    metric "core.terminate_ms" "ms" (perf (span_total i.reg "terminate") c);
    metric "core.tries_per_commit" "count" (per tries c);
    metric "core.compute_calls_per_commit" "count"
      (per (Atomic.get i.counts.compute_calls) c);
    metric "core.batch_fill" "count"
      (match Obs.Registry.merged_histogram i.reg "server.batch_size" with
      | Some h when Obs.Histogram.count h > 0 -> hist_mean i.reg "server.batch_size"
      | _ -> 1.);
    metric "core.cache_hit_ratio" "ratio" (per hits (hits + misses));
    metric "core.invalidations_per_write" "count" (per (counter i.reg "cache.invalidate") i.writes);
    metric "gx.msgs_per_cross_commit" "count" (per i.gx_msgs i.cross_commits);
    metric "gx.participants_mean" "count" (hist_mean i.reg "commit.participants");
    metric "client.retries_per_request" "count" (per (counter i.reg "client.retries") i.requests);
    metric "client.backoff_epochs_per_request" "count"
      (per (counter i.reg "client.backoff_epochs") i.requests);
    metric "client.generator_lag_p99_ms" "ms" (if Float.is_nan lag then 0. else lag);
  ]

let is_write body = String.contains body ':'

let is_cross (c : Cluster.t) body =
  match String.split_on_char ':' body with
  | [ a; b; _ ] -> Cluster.shard_of_key c a <> Cluster.shard_of_key c b
  | _ -> false

(* Each probe on empty state and at [full], the state one traced
   classic-failover sub-run ends with. *)
let probe_metrics full =
  let pair name unit_ size probe =
    ignore (probe 0);
    [ metric (name ^ ".empty") unit_ (probe 0); metric (name ^ ".full") unit_ (probe size) ]
  in
  pair "consensus.write_us" "us" full.instances (fun prior ->
      Probes.consensus_write_us ~prior ~calls:200)
  @ pair "dstore.append_force_us" "us" full.log_records (fun prior ->
        Probes.log_append_force_us ~prior ~calls:20_000)
  @ pair "dbms.cycle_us" "us" full.transactions (fun prior ->
        Probes.rm_cycle_us ~accounts:classic_accounts ~prior ~calls:2_000)
  @ pair "obs.emit_ns" "ns" full.series (fun prior -> Probes.obs_emit_ns ~prior ~calls:200_000)

let state_size (r : Drive.sim_run) reg fp =
  let dbs = Array.to_list r.cluster.groups |> List.concat_map (fun (g : Cluster.group) -> g.dbs) in
  {
    instances =
      List.fold_left
        (fun a ((k : Obs.Registry.key), v) -> if k.name = "consensus.decides" then max a v else a)
        0 (Obs.Registry.counters reg);
    log_records = fp.log_lsns;
    transactions =
      List.fold_left (fun a (_, rm) -> a + List.length (Dbms.Rm.known_xids rm)) 0 dbs;
    series =
      List.length (Obs.Registry.counters reg)
      + List.length (Obs.Registry.gauges reg)
      + List.length (Obs.Registry.histograms reg);
  }

let show_size z =
  Printf.sprintf "%d consensus instances, %d log records, %d transactions, %d series"
    z.instances z.log_records z.transactions z.series

(* The slices of a run cut into quarters by commits; wall per commit of
   the last quarter over the first. *)
let wall_growth slices =
  let total = List.fold_left (fun a (_, k) -> a + k) 0 slices in
  let q = Array.make 4 (0., 0) in
  ignore
    (List.fold_left
       (fun seen (w, k) ->
         let i = if total = 0 then 0 else min 3 (4 * seen / total) in
         let w0, k0 = q.(i) in
         q.(i) <- (w0 +. w, k0 + k);
         seen + k)
       0 slices);
  let per (w, k) = if k = 0 then nan else w /. float_of_int k in
  let g = per q.(3) /. per q.(0) in
  if Float.is_finite g then g else 0.

(* The traced run of one sub-run, in the child: the spec checks and the
   ledger. *)
let traced_child cfg ~seed =
  let reg = Obs.Registry.create ~spans:true () in
  let r, o = sim_outcome ~obs:reg ~tracing:true ~seed cfg in
  let spec =
    List.map (( ^ ) "spec: ") (Cluster.Spec.check_all r.cluster)
    @ List.map (( ^ ) "obs: ") (Cluster.Spec.obs_consistency reg r.cluster)
  in
  let samples = samples_of r in
  let consensus_msgs, gx_msgs = trace_messages r.engine in
  let body (s : Drive.sample) = s.rec_.Etx.Client.body in
  Traced
    ( { o with errors = o.errors @ spec },
      layer_metrics
        {
          reg;
          commits = List.length samples;
          requests = Drive.attempted cfg;
          samples;
          counts = r.counts;
          consensus_msgs;
          gx_msgs;
          cross_commits = List.length (List.filter (fun s -> is_cross r.cluster (body s)) samples);
          writes = List.length (List.filter (fun s -> is_write (body s)) samples);
        },
      state_size r reg o.fp )

(* The traced run of a workload's traced sub-run, in its own process,
   its failures counted: its outcome, ledger and end state. *)
let traced_run name w ~seed =
  let label = w.traced_sub in
  let _, _, cfg = List.find (fun (l, _, _) -> l = label) (w.subs seed) in
  match in_child (sim_args ~workload:name ~label ~seed ~traced:true) with
  | Traced (o, layers, size) ->
      account cfg ~label:(name ^ "/" ^ label ^ " traced") ~delivered:o.fp.commits o.errors;
      (cfg, o, layers, size)
  | _ -> failwith "unexpected child result"

(* The untraced twin and the traced run of one sub-run, each in its own
   process; the per-layer metrics and the traced run's end state. *)
let sim_layers name w ~seed =
  let tag = name ^ "/" ^ w.traced_sub in
  let cfg, traced, layers, size = traced_run name w ~seed in
  let plain =
    match in_child (sim_args ~workload:name ~label:w.traced_sub ~seed ~traced:false) with
    | Plain o -> o
    | _ -> failwith "unexpected child result"
  in
  account cfg ~label:(tag ^ " untraced") ~delivered:plain.fp.commits plain.errors;
  if plain.fp <> traced.fp then
    violation "%s: traced run diverged: %s vs %s" tag (show_fp plain.fp) (show_fp traced.fp);
  let commits = plain.fp.commits in
  let rate (o : outcome) = float_of_int o.fp.commits /. o.sub.wall_s in
  ( layers
    @ [
        metric "dsim.events_per_commit" "count" (per plain.fp.events commits);
        metric "dsim.wall_ns_per_event" "ns" (1e9 *. perf plain.sub.wall_s plain.fp.events);
        metric "dsim.minor_words_per_commit" "words" (perf plain.minor_words commits);
        metric "dsim.wall_growth" "ratio" (wall_growth plain.sub.slices);
        metric "obs.traced_slowdown" "ratio" (rate plain /. rate traced);
      ],
    size )

(* The end state of the traced classic-failover sub-run of [seed]. *)
let classic_state ~seed =
  let name = "classic-failover" in
  let _, _, _, size = traced_run name (List.assoc name sim_workloads) ~seed in
  size

(* ---------------------------------------------------------------- *)
(* The live backend, a layer probe *)

(* Runtime_live on OS threads at zero modeled network, CPU and disk cost:
   its wall clock is the cost of the protocol stack plus the backend. That
   cost follows the host's load (p50 ran from 94 to 230 ms per request on
   a shared 2-vCPU host, the code unchanged), so the live figures are
   per-layer readings, which carry no bound, not end-to-end metrics. *)
let live_clients = max 1 (min 2 (Domain.recommended_domain_count ()))
let live_accounts = 64

type live_run = {
  l_samples : Drive.sample option array;
  l_cluster : Cluster.t;
  l_cfg : Drive.config;
  l_wall : float;
  l_settled : bool;
}

let live_build ?obs ~seed p scripts =
  let lt = Runtime_live.create ~seed ?obs () in
  let rt = Runtime_live.runtime lt in
  let accounts = List.init live_accounts (fun i -> (Sched.account i, 1_000_000)) in
  let c =
    Cluster.build ~rt
      ~net:(Drive.counted_net p (Dnet.Netmodel.constant 0.))
      ~timing:Dbms.Rm.zero_timing ~disk_force_latency:0. ~register_disk_latency:0.
      ~seed_data:(Workload.Bank.seed_accounts accounts) ~business:(Drive.business p) ~scripts ()
  in
  (lt, c, accounts)

(* Closed loop: each client issues updates, drawn from its own seeded
   stream, until the run's time is up. A request counts as attempted once
   its client starts issuing it. *)
let live_run ?obs ~seed ~seconds () =
  let p = Drive.fresh_counts () in
  let stop = Atomic.make false in
  (* per client, newest first: the bodies issued and the samples delivered *)
  let issued = Array.make live_clients [] and got = Array.make live_clients [] in
  let script c ~issue =
    let next = Sched.update_stream ~seed ~salt:(60 + c) ~accounts:live_accounts in
    while not (Atomic.get stop) do
      let body = next () in
      issued.(c) <- body :: issued.(c);
      let start = Runtime.Etx_runtime.now () in
      let r = issue body in
      got.(c) <- { Drive.due = start; start; rec_ = r } :: got.(c)
    done
  in
  let lt, c, accounts = live_build ?obs ~seed p (List.init live_clients script) in
  let rt = Runtime_live.runtime lt in
  let t0 = Unix.gettimeofday () in
  ignore (rt.run_until ~deadline:(seconds *. 1000.) (fun () -> false));
  Atomic.set stop true;
  let settled =
    Cluster.run_to_quiescence ~deadline:(Runtime_live.now_ms lt +. 30_000.) c
  in
  let wall = Unix.gettimeofday () -. t0 in
  Runtime_live.shutdown lt;
  let cfg =
    {
      Drive.shards = 1;
      batch = 1;
      cache = false;
      cross = false;
      group_commit = false;
      loss = 0.;
      fault = None;
      accounts;
      load = Closed { bodies = Array.map (fun l -> Array.of_list (List.rev l)) issued };
    }
  in
  {
    l_samples = Array.of_list (List.concat_map (List.rev_map Option.some) (Array.to_list got));
    l_cluster = c;
    l_cfg = cfg;
    l_wall = wall;
    l_settled = settled;
  }

let live_checked ?(extra = []) r =
  {
    l_cfg_out = r.l_cfg;
    l_delivered = List.length (Drive.delivered r.l_samples);
    l_errors =
      Drive.outside_checks r.l_cfg r.l_cluster r.l_samples
      @ (if r.l_settled then [] else [ "did not quiesce" ])
      @ extra;
  }

(* In the child: a closed-loop run untraced, then one traced (spec and obs
   checks on it), each half of [seconds]. The untraced run gives latency
   and rate, the traced one where the wall time goes. *)
let live_child ~seed ~seconds =
  let half = Float.max 1. (seconds /. 2.) in
  let plain = live_run ~seed ~seconds:half () in
  let reg = Obs.Registry.create ~spans:true () in
  let traced = live_run ~obs:reg ~seed ~seconds:half () in
  let spec =
    List.map (( ^ ) "spec: ") (Cluster.Spec.check_all traced.l_cluster)
    @ List.map (( ^ ) "obs: ") (Cluster.Spec.obs_consistency reg traced.l_cluster)
  in
  let ss = Drive.delivered plain.l_samples in
  let commits = List.length (Drive.delivered traced.l_samples) in
  let phase p = metric ("live." ^ p ^ "_ms") "ms" (perf (span_total reg p) commits) in
  Live
    ( [ live_checked plain; live_checked ~extra:spec traced ],
      [
        metric "live.commit_p50_ms" "ms"
          (median (List.map latency ss))
          ~note:(Printf.sprintf "%d samples, %d clients, wall clock" (List.length ss) live_clients);
        metric "live.goodput_tps" "1/s"
          (float_of_int (List.length ss)
          /. (List.fold_left (fun m s -> Float.max m (delivered_at s)) 0. ss /. 1000.));
        metric "live.wall_us_per_msg" "us"
          (1e6 *. perf traced.l_wall (counter_prefix reg "net.sent."));
      ]
      @ List.map phase [ "election"; "compute"; "prepare"; "consensus"; "terminate" ] )

(* The live probe, in its own process so that its threads end with it. *)
let live_layers ~seed ~seconds =
  match in_child [ "live"; string_of_int seed; string_of_float seconds ] with
  | Live (runs, metrics) ->
      List.iteri
        (fun i r ->
          account r.l_cfg_out
            ~label:(if i = 0 then "live untraced" else "live traced")
            ~delivered:r.l_delivered r.l_errors)
        runs;
      metrics
  | _ -> failwith "unexpected child result"

(* ---------------------------------------------------------------- *)
(* Command line and report *)

let workload_names = List.map fst sim_workloads

let usage () =
  prerr_endline
    ("usage: main.exe --workload <" ^ String.concat "|" workload_names
   ^ "> --seed <n> --seconds <s> --trace <0|1>");
  exit 2

let parse () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workload_names) || (!trace <> 0 && !trace <> 1) then usage ();
  (!workload, !seed, !seconds, !trace = 1)

let report ~workload ~traced metrics =
  let correct = !violations = [] && List.for_all (fun m -> Float.is_finite m.value) metrics in
  Printf.printf "workload %s (%s)\n" workload (if traced then "per-layer, traced" else "end-to-end");
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14.4f %-6s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  List.iter (Printf.printf "VIOLATION %s\n") (List.rev !violations);
  let json =
    Stats.Json.Obj
      [
        ("correct", Stats.Json.Bool correct);
        ("attempted", Stats.Json.Int !attempted);
        ("failed", Stats.Json.Int !failed);
        ( "metrics",
          Stats.Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Stats.Json.Obj
                     [
                       ("value", Stats.Json.Float (if Float.is_finite m.value then m.value else 0.));
                       ("unit", Stats.Json.String m.unit_);
                     ] ))
               metrics) );
      ]
  in
  print_endline (Stats.Json.to_string ~indent:0 json);
  if not correct then exit 1

(* --child <workload> <label> <seed> <traced>: one simulated run;
   --child live <seed> <seconds>: the live probe. The result is
   marshalled to standard output. *)
let child_main args =
  let result =
    match args with
    | [ "live"; seed; seconds ] ->
        live_child ~seed:(int_of_string seed) ~seconds:(float_of_string seconds)
    | [ workload; label; seed; traced ] ->
        let w = List.assoc workload sim_workloads in
        let _, s, cfg = List.find (fun (l, _, _) -> l = label) (w.subs (int_of_string seed)) in
        if traced = "1" then traced_child cfg ~seed:s
        else Plain (snd (sim_outcome ~tracing:false ~seed:s cfg))
    | _ -> usage ()
  in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout (result : child_result) [];
  exit 0

let () =
  (match Array.to_list Sys.argv with
  | _ :: "--child" :: rest -> child_main rest
  | _ -> ());
  let workload, seed, seconds, traced = parse () in
  let probes size =
    Printf.printf "  probe state: %s\n" (show_size size);
    probe_metrics size
  in
  let w = List.assoc workload sim_workloads in
  let metrics =
    if traced then
      let layers, size = sim_layers workload w ~seed in
      layers
      @ probes (if workload = "classic-failover" then size else classic_state ~seed)
      @ live_layers ~seed ~seconds
    else sim_e2e workload w ~seed ~seconds
  in
  report ~workload ~traced metrics
