(* Epoch-versioned key → group placement (DESIGN.md §16).

   The map is pure data: the same value is held by every client, server and
   register, and placement is a deterministic function of the key alone.
   Epoch 0 is exactly the PR 4 map — [slots] top-level shards placed by
   FNV-1a mod (Hash) or by sorted boundary strings (Range) — and every
   later epoch is a *refinement*: a [split] replaces one group's leaves
   with a two-way subtree, so keys that do not move keep their placement
   bit-for-bit. That refinement discipline is what makes [diff] a pure
   structural walk and lets a no-reconfiguration run stay byte-identical
   to the unversioned map. *)

type policy = Hash | Range of string list

(* One slot's assignment. [Leaf g]: the whole slot region belongs to group
   [g]. [Hsplit (l, r)]: consume one bit of the key's hash quotient (the
   bits *above* the slot index, so sibling decisions are independent of
   the slot placement); 0 → [l], 1 → [r]. [Rsplit (b, l, r)]: keys < [b]
   → [l], keys >= [b] → [r]. *)
type node =
  | Leaf of int
  | Hsplit of node * node
  | Rsplit of string * node * node

type t = { epoch : int; policy : policy; assignment : node array }

(* FNV-1a over the key bytes, folded into OCaml's 63-bit native int (the
   64-bit offset basis with its top bit dropped; multiplication wraps mod
   2^63, which is just as mixing). [Hashtbl.hash] would work today, but its
   value is not pinned by the language; a hand-rolled hash keeps shard
   placement stable across compiler versions, which the deterministic
   replay story depends on. An index loop over a local [ref] that no
   closure captures compiles to a register: routing a client try
   allocates nothing here. *)
let fnv1a key =
  let h = ref 0x4bf29ce484222325 in
  for i = 0 to String.length key - 1 do
    h := (!h lxor Char.code key.[i]) * 0x100000001b3
  done;
  !h land max_int

let create ?(policy = Hash) ~shards () =
  if shards < 1 then invalid_arg "Shard_map.create: shards must be >= 1";
  (match policy with
  | Hash -> ()
  | Range bounds ->
      if List.length bounds <> shards - 1 then
        invalid_arg
          "Shard_map.create: a Range policy needs exactly shards-1 boundaries";
      let rec sorted = function
        | a :: (b :: _ as rest) -> a < b && sorted rest
        | [ _ ] | [] -> true
      in
      if not (sorted bounds) then
        invalid_arg "Shard_map.create: Range boundaries must be strictly sorted");
  { epoch = 0; policy; assignment = Array.init shards (fun i -> Leaf i) }

let epoch t = t.epoch

let slots t = Array.length t.assignment

let slot_of t key =
  match t.policy with
  | Hash -> if slots t = 1 then 0 else fnv1a key mod slots t
  | Range bounds ->
      let rec find i = function
        | b :: rest -> if key < b then i else find (i + 1) rest
        | [] -> i
      in
      find 0 bounds

let shard_of t key =
  match t.assignment.(slot_of t key) with
  | Leaf g -> g (* epoch-0 fast path: no hash quotient needed *)
  | node ->
      let rec walk q = function
        | Leaf g -> g
        | Hsplit (l, r) -> walk (q lsr 1) (if q land 1 = 0 then l else r)
        | Rsplit (b, l, r) -> walk q (if key < b then l else r)
      in
      walk (fnv1a key / slots t) node

let rec leaf_groups acc = function
  | Leaf g -> if List.mem g acc then acc else g :: acc
  | Hsplit (l, r) | Rsplit (_, l, r) -> leaf_groups (leaf_groups acc l) r

let groups t =
  Array.fold_left leaf_groups [] t.assignment |> List.sort_uniq compare

let shards t = 1 + List.fold_left max 0 (groups t)

let shards_of t keys =
  List.map (shard_of t) keys |> List.sort_uniq compare

let split ?boundary t ~group ~target () =
  if target = group then invalid_arg "Shard_map.split: target = source group";
  if target < 0 || target > shards t then
    invalid_arg "Shard_map.split: target group would leave a gap";
  if not (List.mem group (groups t)) then
    invalid_arg "Shard_map.split: source group owns nothing";
  let rec refine = function
    | Leaf g when g = group -> (
        match boundary with
        | None -> Hsplit (Leaf g, Leaf target)
        | Some b -> Rsplit (b, Leaf g, Leaf target))
    | Leaf g -> Leaf g
    | Hsplit (l, r) -> Hsplit (refine l, refine r)
    | Rsplit (b, l, r) -> Rsplit (b, refine l, refine r)
  in
  {
    t with
    epoch = t.epoch + 1;
    assignment = Array.map refine t.assignment;
  }

(* ---------------- Diff between consecutive epochs ---------------- *)

type move = { src : int; dst : int }

let rec node_moves acc older newer =
  if older = newer then acc
  else
    match (older, newer) with
    | Leaf g, n ->
        (* the newer node refines this leaf: every foreign leaf under it
           receives keys from [g] *)
        List.fold_left
          (fun acc g' -> if g' = g || List.mem { src = g; dst = g' } acc then acc
                         else { src = g; dst = g' } :: acc)
          acc (leaf_groups [] n)
    | Hsplit (a, b), Hsplit (c, d) -> node_moves (node_moves acc a c) b d
    | Rsplit (x, a, b), Rsplit (y, c, d) when x = y ->
        node_moves (node_moves acc a c) b d
    | _ ->
        invalid_arg "Shard_map.diff: maps are not related by refinement"

let diff older newer =
  if newer.epoch <> older.epoch + 1 then
    invalid_arg "Shard_map.diff: epochs are not consecutive";
  if older.policy <> newer.policy || slots older <> slots newer then
    invalid_arg "Shard_map.diff: maps are not related by refinement";
  let acc = ref [] in
  Array.iteri
    (fun i o -> acc := node_moves !acc o newer.assignment.(i))
    older.assignment;
  List.sort_uniq compare !acc

let moved older newer key =
  let a = shard_of older key and b = shard_of newer key in
  if a = b then None else Some (a, b)

(* ---------------- Boundary derivation from observed keys ----------------

   Hand-sorting boundary strings is error-prone; a live system knows its
   key population. Both helpers work on the *distinct* observed keys, so a
   skewed access distribution does not skew placement of the key space. *)

let distinct_sorted keys = List.sort_uniq String.compare keys

let suggest_boundary ~keys =
  match distinct_sorted keys with
  | [] | [ _ ] ->
      invalid_arg
        "Shard_map.suggest_boundary: need at least 2 distinct keys to split"
  | ks ->
      (* the median key: everything >= it (the upper half) moves, so both
         sides of the split are non-empty by construction *)
      List.nth ks (List.length ks / 2)

let range_of_keys ~shards ~keys () =
  if shards < 1 then invalid_arg "Shard_map.create: shards must be >= 1";
  let ks = distinct_sorted keys in
  let n = List.length ks in
  if n < shards then
    invalid_arg
      "Shard_map.range_of_keys: need at least one distinct key per shard";
  let bounds =
    List.init (shards - 1) (fun i -> List.nth ks ((i + 1) * n / shards))
  in
  create ~policy:(Range bounds) ~shards ()
