module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex
module Invariant = Dex_util.Invariant

type tree = {
  root : int;
  parent : int array;
  depth : int array;
  height : int;
  members : int array;
}

type bfs_state = { dist : int; par : int; pending : bool }

let bfs_tree net ~root =
  let root = Vertex.local_int root in
  let g = Network.graph net in
  let n = Graph.num_vertices g in
  Invariant.require (root >= 0 && root < n) ~where:"Primitives.bfs_tree" "root out of range";
  let init v =
    if v = root then { dist = 0; par = root; pending = true }
    else { dist = max_int; par = -1; pending = false }
  in
  let step ~round:_ ~vertex:v st ib ob =
    let v = Vertex.local_int v in
    (* adopt the smallest advertised distance on first contact *)
    let st =
      if st.dist = max_int then begin
        let best = ref st in
        Arena.Inbox.iter1 ib (fun sender w ->
            let d = w + 1 in
            if d < !best.dist then best := { dist = d; par = sender; pending = true });
        !best
      end
      else st
    in
    if st.pending then begin
      Graph.iter_neighbors g v (fun u ->
          Arena.Outbox.send1 ob ~dst:(Vertex.local u) st.dist);
      { st with pending = false }
    end
    else st
  in
  (* active-set quiescence: the wave visits each vertex once, and a
     vertex that receives without improving sends nothing, so the run
     ends once no message is in flight *)
  let states, _rounds = Network.run_active net ~label:Bfs ~init ~step () in
  let parent = Array.map (fun st -> st.par) states in
  let depth = Array.map (fun st -> st.dist) states in
  let height = Array.fold_left (fun acc d -> if d = max_int then acc else max acc d) 0 depth in
  let members =
    let acc = ref [] in
    for v = n - 1 downto 0 do
      if depth.(v) <> max_int then acc := v :: !acc
    done;
    Array.of_list !acc
  in
  { root; parent; depth; height; members }

type leader_state = { best : int; fresh : bool }

let elect_leader net =
  let g = Network.graph net in
  let init v = { best = v; fresh = true } in
  let step ~round:_ ~vertex:v st ib ob =
    let v = Vertex.local_int v in
    let best = ref st.best in
    Arena.Inbox.iter1 ib (fun _ w -> if w < !best then best := w);
    let best = !best in
    let improved = best < st.best || st.fresh in
    if improved then
      Graph.iter_neighbors g v (fun u ->
          Arena.Outbox.send1 ob ~dst:(Vertex.local u) best);
    { best; fresh = false }
  in
  (* a vertex re-announces only when its view improves, so active-set
     quiescence means the minimum has flooded each component *)
  let states, _ = Network.run_active net ~label:Leader ~init ~step () in
  Array.map (fun st -> st.best) states

let broadcast net tree ~label = Rounds.charge (Network.rounds net) ~label tree.height

let convergecast_sum net tree ~label values =
  Rounds.charge (Network.rounds net) ~label tree.height;
  Array.fold_left (fun acc v -> acc + values.(v)) 0 tree.members

let convergecast_min net tree ~label values =
  Rounds.charge (Network.rounds net) ~label tree.height;
  Array.fold_left (fun acc v -> min acc values.(v)) max_int tree.members

let pipelined_broadcast net tree ~label ~words =
  Invariant.require (words >= 0) ~where:"Primitives.pipelined_broadcast" "negative words";
  Rounds.charge (Network.rounds net) ~label (tree.height + words)

let subnetwork net members =
  let g = Network.graph net in
  let sub, mapping = Graph.induced_subgraph g members in
  let mapping = Vertex.Map.of_array mapping in
  (* compose vertex maps so nested subnetworks still report trace
     metrics (hot edges, fault events) in original-graph coordinates *)
  let vertex_map =
    match Network.vertex_map net with
    | None -> mapping
    | Some outer -> Vertex.Map.compose ~outer mapping
  in
  (Network.create ~vertex_map sub (Network.rounds net), mapping)
