(* ---------------- deterministic hashtable iteration ---------------- *)

(* The only sanctioned way to iterate a Hashtbl in algorithm libraries:
   hash-order iteration leaks the table's insertion history into round
   schedules, RNG consumption and float accumulation order, breaking
   the (graph, seed) -> run determinism the simulation promises (lint
   rule D001). These helpers materialise the key set, sort it, and
   visit bindings in ascending key order. *)

let fold_sorted ?(compare = Stdlib.compare) f tbl init =
  (* dex-lint: allow D001 the sorted-iteration helper itself *)
  let keys = List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  List.fold_left (fun acc k -> f k (Hashtbl.find tbl k) acc) init keys

let iter_sorted ?compare f tbl = fold_sorted ?compare (fun k v () -> f k v) tbl ()

(* ---------------- aligned text tables ---------------- *)

type t = { title : string; headers : string list; mutable rows : string list list }

let create ~title headers = { title; headers; rows = [] }
let add_row t cells = t.rows <- cells :: t.rows

let pad s width =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let render t =
  let rows = List.rev t.rows in
  let ncols =
    List.fold_left (fun acc r -> max acc (List.length r)) (List.length t.headers) rows
  in
  let normalize r =
    let len = List.length r in
    if len >= ncols then r else r @ List.init (ncols - len) (fun _ -> "")
  in
  let headers = normalize t.headers in
  let rows = List.map normalize rows in
  let widths = Array.make ncols 0 in
  let account r = List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) r in
  account headers;
  List.iter account rows;
  let line r =
    String.concat "  " (List.mapi (fun i c -> pad c widths.(i)) r)
  in
  let rule =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line headers ^ "\n");
  Buffer.add_string buf (rule ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (line r ^ "\n")) rows;
  Buffer.contents buf

let print t = print_string (render t)

let fmt_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.abs x >= 100.0 then Printf.sprintf "%.1f" x
  else if Float.abs x >= 1.0 then Printf.sprintf "%.3f" x
  else Printf.sprintf "%.5f" x

let fmt_pct x = Printf.sprintf "%.2f%%" (100.0 *. x)
