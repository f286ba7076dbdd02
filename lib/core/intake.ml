module Keys = Hashtbl.Make (struct
  type t = int * int

  let equal ((r, j) : t) (r', j') = r = r' && j = j'
  let hash ((r, j) : t) = ((r * 65599) + j) land max_int
end)

(* [keys] holds the (rid, j) of every item in [q], each once *)
type 'r t = { rid : 'r -> int; q : ('r * int) Queue.t; keys : unit Keys.t }

let create ~rid () = { rid; q = Queue.create (); keys = Keys.create 16 }
let length t = Queue.length t.q
let is_empty t = Queue.is_empty t.q
let key t (r, j) = (t.rid r, j)

let add t item =
  let k = key t item in
  if not (Keys.mem t.keys k) then begin
    Keys.add t.keys k ();
    Queue.add item t.q
  end

let take t n =
  let rec go n acc =
    if n = 0 || Queue.is_empty t.q then List.rev acc
    else begin
      let item = Queue.pop t.q in
      Keys.remove t.keys (key t item);
      go (n - 1) (item :: acc)
    end
  in
  go n []

let requeue t items =
  let rest = Queue.create () in
  Queue.transfer t.q rest;
  List.iter (add t) items;
  Queue.transfer rest t.q

let clear t =
  Queue.clear t.q;
  Keys.reset t.keys

let transfer src dst =
  Queue.iter (add dst) src.q;
  clear src
