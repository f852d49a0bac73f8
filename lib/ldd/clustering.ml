module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex
module Network = Dex_congest.Network
module Arena = Dex_congest.Arena
module Invariant = Dex_util.Invariant
module Rng = Dex_util.Rng

type t = {
  cluster : int array;
  start : int array;
  epochs : int;
  rounds : int;
}

type state = {
  start_epoch : int;
  cluster : int; (* -1 while unclustered *)
  announced : bool;
}

let run net ~beta rng =
  Invariant.require (beta > 0.0 && beta < 1.0) ~where:"Clustering.run" "beta must be in (0, 1)";
  let g = Network.graph net in
  let n = Graph.num_vertices g in
  let horizon =
    max 1 (int_of_float (Float.ceil (2.0 *. log (Float.max 2.0 (float_of_int n)) /. beta)))
  in
  let starts =
    Array.init n (fun i ->
        let local = Rng.split rng i in
        let delta = Rng.exponential local ~rate:beta in
        max 1 (horizon - int_of_float (Float.floor delta)))
  in
  let init v = { start_epoch = starts.(v); cluster = -1; announced = false } in
  (* after round 1 a vertex does work in one round only — the first in
     which an announcement reaches it or its start epoch comes; it
     clusters and announces there. Until then it sleeps on a timer, so
     idle epochs are skipped *)
  let step ~round ~vertex st ib ob =
    let v = Vertex.local_int vertex in
    let st =
      if st.cluster >= 0 then st
      else if st.start_epoch = round then { st with cluster = v }
      else begin
        (* join the smallest-id cluster among announcing neighbors *)
        let best = ref max_int in
        Arena.Inbox.iter1 ib (fun _ c -> if c < !best then best := c);
        if !best < max_int then { st with cluster = !best }
        else begin
          if round = 1 then Arena.Outbox.wake_at ob ~round:st.start_epoch;
          st
        end
      end
    in
    if st.cluster >= 0 && not st.announced then begin
      Graph.iter_neighbors g v (fun u -> Arena.Outbox.send1 ob ~dst:(Vertex.local u) st.cluster);
      { st with announced = true }
    end
    else st
  in
  (* every start epoch is <= horizon, so every vertex has clustered by
     round horizon *)
  let states = Network.run_for net ~label:Mpx_clustering ~init ~step horizon in
  let cluster = Array.map (fun st -> st.cluster) states in
  Array.iteri
    (fun v c ->
      if c < 0 then
        let id =
          match Network.vertex_map net with
          | Some m -> Vertex.orig_int (Vertex.Map.get m v)
          | None -> v
        in
        Invariant.failf ~where:"Clustering.run" "vertex %d unclustered" id)
    cluster;
  { cluster; start = starts; epochs = horizon; rounds = horizon }

(* cluster ids are vertex ids, so one counting pass buckets the
   members, each bucket in ascending vertex order; the list runs in
   descending cluster-id order *)
let clusters (t : t) =
  let n = Array.length t.cluster in
  let size = Array.make n 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) t.cluster;
  let buckets = Array.map (fun k -> Array.make k 0) size in
  let fill = Array.make n 0 in
  Array.iteri
    (fun v c ->
      buckets.(c).(fill.(c)) <- v;
      fill.(c) <- fill.(c) + 1)
    t.cluster;
  Array.fold_left (fun acc b -> if Array.length b > 0 then b :: acc else acc) [] buckets

let inter_cluster_edges g (t : t) =
  let crossing = ref 0 in
  Graph.iter_edges g (fun u v ->
      if u <> v && t.cluster.(u) <> t.cluster.(v) then incr crossing);
  !crossing
