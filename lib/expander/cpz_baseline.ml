module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex
module Metrics = Dex_graph.Metrics
module Params = Dex_sparsecut.Params
module Partition = Dex_sparsecut.Partition
module Rng = Dex_util.Rng

exception
  Runaway_recursion of {
    n : int;
    guard : int;
    pending_components : int;
  }

type result = {
  parts : int array list;
  leftover : int array;
  leftover_arboricity : int;
  leftover_edge_fraction : float;
  removed_edge_fraction : float;
  rounds : int;
  delta : float;
}

(* peel vertices of (remaining) degree < threshold into the leftover;
   the classic O(n^δ)-degeneracy peeling *)
let peel g ~threshold ~alive =
  let n = Graph.num_vertices g in
  let deg = Array.make n 0 in
  for v = 0 to n - 1 do
    if alive.(v) then
      Graph.iter_neighbors g v (fun u -> if alive.(u) then deg.(v) <- deg.(v) + 1)
  done;
  let peeled = ref [] in
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if alive.(v) && deg.(v) < threshold then Queue.add v queue
  done;
  let marked = Array.make n false in
  Array.iteri (fun v a -> if not a then marked.(v) <- true) alive;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    if alive.(v) && not marked.(v) then begin
      marked.(v) <- true;
      peeled := v :: !peeled;
      Graph.iter_neighbors g v (fun u ->
          if alive.(u) && not marked.(u) then begin
            deg.(u) <- deg.(u) - 1;
            if deg.(u) < threshold then Queue.add u queue
          end)
    end
  done;
  List.iter (fun v -> alive.(v) <- false) !peeled;
  !peeled

let run ?(preset = Params.Practical) ~delta ~epsilon g rng =
  Dex_util.Invariant.require
    (delta > 0.0 && delta < 1.0)
    ~where:"Cpz_baseline.run" "delta in (0,1)";
  let n = Graph.num_vertices g in
  let m = max 1 (Graph.num_edges g) in
  let threshold = max 1 (int_of_float (Float.ceil (float_of_int n ** delta))) in
  let schedule = Schedule.make ~preset ~epsilon ~k:1 g in
  let phi = schedule.Schedule.phi.(0) in
  let alive = Array.make n true in
  let leftover = ref [] in
  let rounds = ref 0 in
  let removed = ref 0 in
  let parts = ref [] in
  (* worklist of components of the dense remainder *)
  let initial () =
    leftover := List.rev_append (peel g ~threshold ~alive) !leftover;
    let members = Metrics.vertices_of_mask alive in
    if Array.length members = 0 then []
    else begin
      let sub, mapping = Graph.induced_subgraph g members in
      let mapping = Vertex.Map.of_array mapping in
      Metrics.connected_components sub
      |> List.map (Vertex.Map.translate mapping)
    end
  in
  let work = Queue.create () in
  List.iter (fun c -> Queue.add c work) (initial ());
  let guard = ref 0 in
  while not (Queue.is_empty work) do
    incr guard;
    if !guard > 4 * n then
      raise (Runaway_recursion { n; guard = !guard; pending_components = Queue.length work });
    let members = Queue.take work in
    if Array.length members <= 1 then
      (if Array.length members = 1 then parts := members :: !parts)
    else begin
      (* re-peel inside the component: cutting may have dropped degrees *)
      let local_alive = Array.make n false in
      Array.iter (fun v -> local_alive.(v) <- true) members;
      let sub_peeled = peel g ~threshold:(min threshold (Array.length members)) ~alive:local_alive in
      (* peeling against original adjacency restricted to members *)
      let members =
        if sub_peeled = [] then members
        else begin
          leftover := List.rev_append sub_peeled !leftover;
          Metrics.vertices_of_mask local_alive
        end
      in
      if Array.length members <= 1 then
        (if Array.length members = 1 then parts := members :: !parts)
      else begin
        let sub, mapping = Graph.saturated_subgraph g members in
        let msub = max 1 (Graph.num_edges sub) in
        let params = Schedule.params_for ~preset ~phi ~m:msub () in
        let res = Partition.run params sub rng in
        rounds := !rounds + res.Partition.rounds;
        let bound = Schedule.h_of ~preset ~n phi in
        let cut = res.Partition.cut in
        if Array.length cut = 0 || res.Partition.conductance > bound then
          parts := members :: !parts
        else begin
          removed := !removed + Metrics.cut_size sub cut;
          let cut_orig = Vertex.Map.translate (Vertex.Map.of_array mapping) cut in
          Array.sort Int.compare cut_orig;
          let rest = Metrics.set_difference members cut_orig in
          Queue.add cut_orig work;
          Queue.add rest work
        end
      end
    end
  done;
  let leftover_arr = Array.of_list !leftover in
  Array.sort Int.compare leftover_arr;
  let leftover_edges =
    let mask = Metrics.mask_of g leftover_arr in
    let c = ref 0 in
    Graph.iter_edges g (fun u v -> if u <> v && mask.(u) && mask.(v) then incr c);
    !c
  in
  let leftover_arboricity =
    if Array.length leftover_arr = 0 then 0
    else begin
      let sub, _ = Graph.induced_subgraph g leftover_arr in
      Metrics.degeneracy sub
    end
  in
  { parts = !parts;
    leftover = leftover_arr;
    leftover_arboricity;
    leftover_edge_fraction = float_of_int leftover_edges /. float_of_int m;
    removed_edge_fraction = float_of_int !removed /. float_of_int m;
    rounds = !rounds;
    delta }
