(* Request schedules and bodies, made from the workload seed alone. The
   program under test receives only what these functions produce. *)

let rng ~seed ~salt = Random.State.make [| seed; salt |]

(* Poisson arrivals at [rate_tps] requests per second, conditioned on
   exactly [n] arrivals in the window of n / rate seconds after [start]:
   [n] uniform points in the window, sorted (the order statistics of a
   Poisson process given its count). Conditioning fixes the realised
   offered rate, so seeds differ in the arrival pattern only. Due times in
   milliseconds, ascending. *)
let poisson ~seed ~salt ~rate_tps ~n ~start =
  let st = rng ~seed ~salt in
  let window = 1000. *. float_of_int n /. rate_tps in
  let a = Array.init n (fun _ -> start +. Random.State.float st window) in
  Array.sort compare a;
  a

let account i = Printf.sprintf "acct%d" i

(* A stream of "<account>:+<delta>" with a uniformly drawn account out of
   [accounts], one body per call. *)
let update_stream ~seed ~salt ~accounts =
  let st = rng ~seed ~salt in
  fun () ->
    let a = Random.State.int st accounts in
    Printf.sprintf "%s:+%d" (account a) (1 + Random.State.int st 9)

(* The first [n] bodies of that stream. *)
let updates ~seed ~salt ~accounts ~n =
  let next = update_stream ~seed ~salt ~accounts in
  Array.init n (fun _ -> next ())

(* One update per request on an account no other request touches. *)
let disjoint_updates ~seed ~salt ~n =
  let st = rng ~seed ~salt in
  Array.init n (fun i ->
      Printf.sprintf "%s:+%d" (account i) (1 + Random.State.int st 9))

(* The mixed stream of the sharded workload: one request in five is a
   transfer, every other transfer crossing shards (the account pair is
   drawn from different shards under [shard_of]); the remaining requests
   are audits and updates at 3:1. Accounts come from [accounts]. *)
let mixed ~seed ~salt ~accounts ~shard_of ~n =
  let st = rng ~seed ~salt in
  let pick () = account (Random.State.int st accounts) in
  let rec pick_where p =
    let a = pick () in
    if p a then a else pick_where p
  in
  let transfers = ref 0 in
  Array.init n (fun i ->
      if i mod 5 = 4 then begin
        let cross = !transfers mod 2 = 1 in
        incr transfers;
        let src = pick () in
        let s = shard_of src in
        let dst =
          pick_where (fun a -> a <> src && (shard_of a <> s) = cross)
        in
        Printf.sprintf "%s:%s:%d" src dst (1 + Random.State.int st 5)
      end
      else if i mod 5 = 3 then
        Printf.sprintf "%s:+%d" (pick ()) (1 + Random.State.int st 9)
      else pick ())
