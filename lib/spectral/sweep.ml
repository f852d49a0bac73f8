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

(* positions of p's positive-degree support by decreasing ρ, and ρ by
   position; positions ascend with ids, so position order breaks ties *)
let ranked g (p : Walk.sparse) =
  let len = Array.length p.ids in
  let rho = Array.make len 0.0 and ranked = Array.make len 0 in
  let k = ref 0 in
  for i = 0 to len - 1 do
    let deg = Graph.degree g p.ids.(i) in
    if deg > 0 then begin
      rho.(i) <- p.mass.(i) /. float_of_int deg;
      ranked.(!k) <- i;
      incr k
    end
  done;
  let ranked = if !k = len then ranked else Array.sub ranked 0 !k in
  (* a total order, so the stable sort gives the unique sorted result *)
  Array.stable_sort
    (fun i j -> match Float.compare rho.(j) rho.(i) with 0 -> Int.compare i j | c -> c)
    ranked;
  (rho, ranked)

(* measures the prefixes of [ordered], whose j-th vertex has ρ
   [rho.(ranked.(j))]; [stamp.(v) = epoch] marks the prefix so far *)
let scan_order g ~stamp ~(epoch : int) ordered ranked rho =
  let total_volume = Graph.total_volume g in
  let n = Array.length ordered in
  let volume = ref 0 in
  let cut = ref 0 in
  let dummy = { len = 0; volume = 0; cut = 0; conductance = 0.0; last_rho = 0.0 } in
  let prefixes = Array.make n dummy in
  for j = 0 to n - 1 do
    let v = ordered.(j) in
    let adj = Graph.neighbors g v in
    let inside = ref 0 in
    for k = 0 to Array.length adj - 1 do
      if stamp.(adj.(k)) = epoch then incr inside
    done;
    stamp.(v) <- epoch;
    volume := !volume + Graph.degree g v;
    cut := !cut + Graph.plain_degree g v - (2 * !inside);
    let small = Int.min !volume (total_volume - !volume) in
    let conductance =
      if small <= 0 then Float.infinity else float_of_int !cut /. float_of_int small
    in
    prefixes.(j) <-
      { len = j + 1; volume = !volume; cut = !cut; conductance; last_rho = rho.(ranked.(j)) }
  done;
  { ordered; prefixes }

let scan g =
  let stamp = Array.make (Graph.num_vertices g) 0 and epoch = ref 0 in
  fun (p : Walk.sparse) ->
    incr epoch;
    let rho, ranked = ranked g p in
    scan_order g ~stamp ~epoch:!epoch (Array.map (fun i -> p.ids.(i)) ranked) ranked rho

let best_prefix sweep =
  Array.fold_left
    (fun best pref ->
      if not (Float.is_finite pref.conductance) then best
      else
        match best with
        | Some b when b.conductance <= pref.conductance -> best
        | _ -> Some pref)
    None sweep.prefixes

let best_cut g =
  let scan = scan g in
  fun p ->
    let sweep = scan p in
    Option.map (fun pref -> (sweep, pref.len)) (best_prefix sweep)

let scan_vector g x =
  let n = Graph.num_vertices g in
  let idx = Array.init n (fun v -> v) in
  Array.sort
    (fun a b -> match Float.compare x.(b) x.(a) with 0 -> Int.compare a b | c -> c)
    idx;
  scan_order g ~stamp:(Array.make n 0) ~epoch:1 idx idx x
