type t = {
  totals : (string, float) Hashtbl.t;
  mutable txns : int;
}

let create () = { totals = Hashtbl.create 16; txns = 0 }

let add t category d =
  let cur = Option.value ~default:0. (Hashtbl.find_opt t.totals category) in
  Hashtbl.replace t.totals category (cur +. d)

let span t category f =
  let t0 = Runtime.Etx_runtime.now () in
  let r = f () in
  add t category (Runtime.Etx_runtime.now () -. t0);
  r

let span_opt t category f =
  match t with None -> f () | Some t -> span t category f

let tick t = t.txns <- t.txns + 1

let transactions t = t.txns

let row t category =
  if t.txns = 0 then 0.
  else
    Option.value ~default:0. (Hashtbl.find_opt t.totals category)
    /. float_of_int t.txns

let categories t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.totals []
  |> List.sort String.compare

let other t ~total =
  let accounted =
    Hashtbl.fold (fun _ v acc -> acc +. v) t.totals 0.
    /. float_of_int (max 1 t.txns)
  in
  total -. accounted

let reset t =
  Hashtbl.reset t.totals;
  t.txns <- 0
