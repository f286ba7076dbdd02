(* Three parallel arrays, one slot per element: the keys unboxed in a
   [Float.Array], the tie-break push counters, and the values. Order is
   (key, push counter), a strict total order, so the pop sequence does not
   depend on the layout. Sifts carry a hole and write the moving element
   once, at its final slot. *)

type 'a t = {
  mutable keys : Float.Array.t;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next : int;  (** push counter: the tie-break among equal keys *)
}

let no_keys = Float.Array.create 0

let create () = { keys = no_keys; seqs = [||]; vals = [||]; size = 0; next = 0 }

let length h = h.size

let is_empty h = h.size = 0

(* Doubles the capacity of a full heap; [v] fills the new value slots. *)
let grow h v =
  let capacity = Array.length h.vals in
  let capacity' = if capacity = 0 then 16 else capacity * 2 in
  let keys = Float.Array.create capacity' in
  Float.Array.blit h.keys 0 keys 0 h.size;
  let seqs = Array.make capacity' 0 in
  Array.blit h.seqs 0 seqs 0 h.size;
  let vals = Array.make capacity' v in
  Array.blit h.vals 0 vals 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

(* Moves the element in the last slot up to its place. Its counter exceeds
   every other in the heap, so on a key tie it is the larger one: only a
   strictly larger parent moves down. *)
let sift_up h =
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let last = h.size - 1 in
  let at = Float.Array.unsafe_get keys last
  and seq = Array.unsafe_get seqs last
  and v = Array.unsafe_get vals last in
  let i = ref last in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let kp = Float.Array.unsafe_get keys parent in
    if at < kp then begin
      Float.Array.unsafe_set keys !i kp;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set vals !i (Array.unsafe_get vals parent);
      i := parent
    end
    else moving := false
  done;
  Float.Array.unsafe_set keys !i at;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i v

(* [push] and [min_key] are inlined so that the key crosses the call
   unboxed *)
let[@inline] push h at v =
  if h.size = Array.length h.vals then grow h v;
  let n = h.size in
  Float.Array.unsafe_set h.keys n at;
  Array.unsafe_set h.seqs n h.next;
  Array.unsafe_set h.vals n v;
  h.next <- h.next + 1;
  h.size <- n + 1;
  sift_up h

let empty what = invalid_arg ("Heap." ^ what ^ ": empty heap")

let[@inline] min_key h =
  if h.size = 0 then empty "min_key";
  Float.Array.unsafe_get h.keys 0

let top h =
  if h.size = 0 then empty "top";
  Array.unsafe_get h.vals 0

let pop h =
  if h.size = 0 then empty "pop";
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let min = Array.unsafe_get vals 0 in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    (* re-seat the last element, moving the hole down from the root *)
    let k = Float.Array.unsafe_get keys n
    and s = Array.unsafe_get seqs n
    and v = Array.unsafe_get vals n in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let left = (2 * !i) + 1 in
      if left >= n then moving := false
      else begin
        (* the smaller child, then whether it precedes (k, s) *)
        let c = ref left in
        let kc = ref (Float.Array.unsafe_get keys left) in
        let right = left + 1 in
        if right < n then begin
          let kr = Float.Array.unsafe_get keys right in
          if
            kr < !kc
            || (kr = !kc && Array.unsafe_get seqs right < Array.unsafe_get seqs left)
          then begin
            c := right;
            kc := kr
          end
        end;
        let c = !c and kc = !kc in
        if kc < k || (kc = k && Array.unsafe_get seqs c < s) then begin
          Float.Array.unsafe_set keys !i kc;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set vals !i (Array.unsafe_get vals c);
          i := c
        end
        else moving := false
      end
    done;
    Float.Array.unsafe_set keys !i k;
    Array.unsafe_set seqs !i s;
    Array.unsafe_set vals !i v
  end;
  min

let clear h =
  h.keys <- no_keys;
  h.seqs <- [||];
  h.vals <- [||];
  h.size <- 0;
  h.next <- 0
