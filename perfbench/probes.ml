(* Layer probes: single public calls timed in isolation, once on empty
   state and once at the state size the classic-failover workload ends
   with, so that per-call growth with history shows. Each probe runs on
   its own simulator engine (consensus, log and resource manager calls
   must run inside a fiber); the engine's own cost is part of what they
   measure, exactly as it is in a workload run. *)

type Runtime.Types.payload += Probe_value of int

let time_per_call ~calls f =
  let t0 = Unix.gettimeofday () in
  for i = 1 to calls do
    f i
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int calls

(* Runs [body] inside process 0 of a fresh engine to completion. *)
let in_fiber ?(peers = 1) body =
  let e = Dsim.Engine.create ~seed:1 ~tracing:false ~net:(Dnet.Netmodel.constant 0.) () in
  let rt = Dsim.Runtime_sim.of_engine e in
  let result = ref nan in
  for i = 0 to peers - 1 do
    ignore
      (Dsim.Engine.spawn e ~name:(Printf.sprintf "p%d" i) ~main:(fun ~recovery:_ () ->
           body rt i result))
  done;
  ignore (Dsim.Engine.run_until ~deadline:1e12 e (fun () -> not (Float.is_nan !result)));
  !result

(* One Consensus.Agent.propose on a 3-member group, after [prior] decided
   instances; wall microseconds per write (the engine carries all three
   members' work). *)
let consensus_write_us ~prior ~calls =
  let peers = [ 0; 1; 2 ] in
  in_fiber ~peers:3 (fun rt i result ->
      let ch = Dnet.Rchannel.create () in
      Dnet.Rchannel.start ch;
      let fd = Dnet.Fdetect.oracle rt in
      Dnet.Fdetect.start fd;
      let agent = Consensus.Agent.create ~peers ~fd ~ch () in
      Consensus.Agent.start agent;
      if i = 0 then begin
        for k = 1 to prior do
          ignore (Consensus.Agent.propose agent ~key:(Printf.sprintf "w%d" k) (Probe_value k))
        done;
        result :=
          1e6
          *. time_per_call ~calls (fun k ->
                 ignore
                   (Consensus.Agent.propose agent
                      ~key:(Printf.sprintf "t%d" k)
                      (Probe_value k)))
      end)

(* One Dstore.Log append + force, after [prior] records; microseconds. *)
let log_append_force_us ~prior ~calls =
  in_fiber (fun _ _ result ->
      let disk = Dstore.Disk.create ~force_latency:0. ~label:"probe" () in
      let log = Dstore.Log.create ~disk () in
      for k = 1 to prior do
        ignore (Dstore.Log.append log k)
      done;
      Dstore.Log.force log;
      result :=
        1e6
        *. time_per_call ~calls (fun k ->
               ignore (Dstore.Log.append log k);
               Dstore.Log.force log))

(* One Dbms.Rm start/exec/end/vote/decide cycle over [accounts] seeded
   accounts, after [prior] committed transactions; microseconds. *)
let rm_cycle_us ~accounts ~prior ~calls =
  in_fiber (fun _ _ result ->
      let disk = Dstore.Disk.create ~force_latency:0. ~label:"probe" () in
      let seed_data =
        Workload.Bank.seed_accounts (List.init accounts (fun i -> (Sched.account i, 1_000)))
      in
      let rm = Dbms.Rm.create ~timing:Dbms.Rm.zero_timing ~seed_data ~disk ~name:"probe" () in
      let cycle k =
        let xid = Dbms.Xid.make ~rid:k ~j:1 in
        Dbms.Rm.xa_start rm ~xid;
        ignore (Dbms.Rm.exec rm ~xid [ Dbms.Rm.Add (Sched.account (k mod accounts), 1) ]);
        Dbms.Rm.xa_end rm ~xid;
        ignore (Dbms.Rm.vote rm ~xid);
        ignore (Dbms.Rm.decide rm ~xid Dbms.Rm.Commit)
      in
      for k = 1 to prior do
        cycle k
      done;
      result := 1e6 *. time_per_call ~calls (fun k -> cycle (prior + k)))

(* One Obs.Registry.incr plus one observe on a registry already holding
   [prior] distinct series; nanoseconds per emit. *)
let obs_emit_ns ~prior ~calls =
  let reg = Obs.Registry.create () in
  for k = 1 to prior do
    Obs.Registry.incr reg ~node:(Printf.sprintf "g0:n%d" (k mod 16)) ~name:(Printf.sprintf "c%d" k) 1
  done;
  1e9
  *. time_per_call ~calls (fun k ->
         Obs.Registry.incr reg ~node:"g0:a1" ~name:"probe.count" 1;
         Obs.Registry.observe reg ~node:"g0:a1" ~name:"probe.ms" (float_of_int (k land 1023)))
  /. 2.
