module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Bfs = Dex_graph.Bfs
module Invariant = Dex_util.Invariant

(* edges with both endpoints reached by the last search; self-loops of
   reached vertices count as edges of the ball *)
let reached_edges g search =
  let count = ref 0 in
  for i = 0 to Bfs.reached search - 1 do
    let x = Bfs.nth search i in
    count := !count + Graph.self_loops g x;
    let adj = Graph.neighbors g x in
    for j = 0 to Array.length adj - 1 do
      if adj.(j) > x && Bfs.mem search adj.(j) then incr count
    done
  done;
  !count

let ball_edge_count g ~d v =
  Invariant.require (d >= 0) ~where:"Neighborhood.ball_edge_count" "radius d >= 0";
  let search = Bfs.create g in
  Bfs.run ~limit:d search [| v |];
  reached_edges g search

let all_ball_edge_counts g ~d =
  Invariant.require (d >= 0) ~where:"Neighborhood.all_ball_edge_counts" "radius d >= 0";
  let out = Array.make (Graph.num_vertices g) 0 in
  let search = Bfs.create g in
  List.iter
    (fun comp ->
      (* one unbounded search gives the component's edge total and the
         representative's eccentricity (its last vertex is farthest) *)
      Bfs.run search [| comp.(0) |];
      let total = reached_edges g search in
      let ecc = Bfs.dist search (Bfs.nth search (Bfs.reached search - 1)) in
      (* if the radius covers the component, every ball is the component *)
      if d >= 2 * ecc then Array.iter (fun v -> out.(v) <- total) comp
      else
        Array.iter
          (fun v ->
            Bfs.run ~limit:d search [| v |];
            out.(v) <- reached_edges g search)
          comp)
    (Metrics.connected_components g);
  out

let lemma16_rounds ~n ~d ~f =
  Invariant.require (f > 0.0 && f < 1.0) ~where:"Neighborhood.lemma16_rounds" "f must be in (0, 1)";
  let lf = log (Float.max 2.0 (float_of_int n)) in
  int_of_float (Float.ceil (float_of_int d *. lf *. lf /. (f ** 3.0)))
