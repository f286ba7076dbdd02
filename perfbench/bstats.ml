(* The tail-percentile rule, the backlog test, the max-rate selection of
   the ladder and the commit-free gaps. Pure functions, unit-tested in
   test/test_perfbench.ml. Plain order statistics come from
   Stats.Summary. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* The tail rule: the highest percentile that still has at least [beyond]
   samples above it. With n exact samples that is 1-based rank n - beyond,
   i.e. percentile 100 (n - beyond) / n. Fewer than beyond + 1 samples have
   no such percentile. *)
let beyond = 10

type tail = { percentile : float; value : float; samples : int }

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= beyond then None
  else
    let rank = n - beyond in
    Some
      {
        percentile = 100. *. float_of_int rank /. float_of_int n;
        value = a.(rank - 1);
        samples = n;
      }

(* Backlog of an open loop: requests due by [t] minus requests committed by
   [t]. It grows when the backlog at the end of the arrival window exceeds
   the backlog at its middle by more than the larger of 4 and 5% of the
   requests. Steady queueing noise stays within that slack; a rate past
   capacity accumulates one request per 1/(rate - capacity) and does
   not. *)
let backlog_at ~due ~committed t =
  let count a = Array.fold_left (fun n x -> if x <= t then n + 1 else n) 0 a in
  count due - count committed

let backlog_growing ~due ~committed =
  let n = Array.length due in
  if n = 0 then false
  else
    let slack = max 4 (n / 20) in
    let last = Array.fold_left max neg_infinity due in
    let first = Array.fold_left min infinity due in
    let mid = first +. ((last -. first) /. 2.) in
    backlog_at ~due ~committed last - backlog_at ~due ~committed mid > slack

(* One rung of a rate ladder, as measured. *)
type rung = { rate : float; p99 : float; growing : bool }

(* The highest rate whose p99 meets [limit] with no growing backlog. A
   rung above a failing one still counts if it passes (the ladder is
   measured, not assumed monotone); [None] when no rung passes. *)
let max_rate ~limit rungs =
  List.fold_left
    (fun best r ->
      if r.p99 <= limit && not r.growing then
        match best with
        | Some b when b >= r.rate -> best
        | _ -> Some r.rate
      else best)
    None rungs

(* Longest interval without a committed delivery, counted from [from]:
   the gap before the first delivery at or after [from], then between
   consecutive deliveries. *)
let longest_gap ~from delivered =
  let a = sorted (List.filter (fun t -> t >= from) delivered) in
  let best = ref 0. and prev = ref from in
  Array.iter
    (fun t ->
      best := Float.max !best (t -. !prev);
      prev := t)
    a;
  !best
