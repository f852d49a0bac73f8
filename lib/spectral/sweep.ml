module Graph = Dex_graph.Graph

type prefix = {
  len : int;
  volume : int;
  cut : int;
  conductance : float;
  last_rho : float;
}

type t = { ordered : int array; prefixes : prefix array }

let take sweep j =
  Dex_util.Invariant.require
    (j >= 0 && j <= Array.length sweep.ordered)
    ~where:"Sweep.take" "0 <= j <= length of the order";
  Array.sub sweep.ordered 0 j

let order g (p : Walk.sparse) =
  let deg i = Graph.degree g p.ids.(i) in
  let rho = Array.mapi (fun i x -> x /. float_of_int (max 1 (deg i))) p.mass in
  let ranked =
    Array.of_list (List.filter (fun i -> deg i > 0) (List.init (Array.length p.ids) Fun.id))
  in
  (* positions ascend with ids, so comparing positions breaks ties by id *)
  Array.sort
    (fun i j -> match Float.compare rho.(j) rho.(i) with 0 -> Int.compare i j | c -> c)
    ranked;
  Array.map (fun i -> p.ids.(i)) ranked

let scan_order g ordered rho_of =
  let total_volume = Graph.total_volume g in
  let n = Array.length ordered in
  let in_set = Hashtbl.create (2 * n) in
  let volume = ref 0 in
  let cut = ref 0 in
  let dummy = { len = 0; volume = 0; cut = 0; conductance = 0.0; last_rho = 0.0 } in
  let prefixes = Array.make n dummy in
  for j = 0 to n - 1 do
    let v = ordered.(j) in
    let inside = ref 0 in
    Graph.iter_neighbors g v (fun u -> if Hashtbl.mem in_set u then incr inside);
    Hashtbl.replace in_set v ();
    volume := !volume + Graph.degree g v;
    cut := !cut + Graph.plain_degree g v - (2 * !inside);
    let small = min !volume (total_volume - !volume) in
    let conductance =
      if small <= 0 then Float.infinity else float_of_int !cut /. float_of_int small
    in
    prefixes.(j) <-
      { len = j + 1; volume = !volume; cut = !cut; conductance; last_rho = rho_of v }
  done;
  { ordered; prefixes }

let scan g p = scan_order g (order g p) (Walk.rho g p)

let best_cut g p =
  let sweep = scan g p in
  let best = ref None in
  Array.iter
    (fun pref ->
      if Float.is_finite pref.conductance then
        match !best with
        | None -> best := Some pref
        | Some b -> if pref.conductance < b.conductance then best := Some pref)
    sweep.prefixes;
  Option.map (fun pref -> (sweep, pref.len)) !best

let scan_vector g x =
  let n = Graph.num_vertices g in
  let idx = Array.init n (fun v -> v) in
  Array.sort
    (fun a b -> match compare x.(b) x.(a) with 0 -> compare a b | c -> c)
    idx;
  scan_order g idx (fun v -> x.(v))
