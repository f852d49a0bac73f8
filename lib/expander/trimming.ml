module Graph = Dex_graph.Graph

type t = {
  core : int array;
  pruned : int array;
  pruned_volume : int;
  cascade_length : int;
}

let trim g members =
  let n = Graph.num_vertices g in
  let in_set = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n then
        Dex_util.Invariant.fail ~where:"Trimming.trim" "vertex out of range";
      in_set.(v) <- true)
    members;
  (* within-set plain degree, maintained incrementally *)
  let inner = Array.make n 0 in
  Array.iter
    (fun v -> Graph.iter_neighbors g v (fun u -> if in_set.(u) then inner.(v) <- inner.(v) + 1))
    members;
  let violates v = 2 * inner.(v) < Graph.degree g v in
  (* BFS-like cascade: the wave number of each removal measures the
     sequential dependency depth *)
  let queue = Queue.create () in
  Array.iter (fun v -> if violates v then Queue.add (v, 1) queue) members;
  let removed_order = ref [] in
  let pruned_volume = ref 0 in
  let cascade = ref 0 in
  let gone = Array.make n false in
  while not (Queue.is_empty queue) do
    let v, wave = Queue.take queue in
    if in_set.(v) && not gone.(v) then begin
      gone.(v) <- true;
      in_set.(v) <- false;
      removed_order := v :: !removed_order;
      pruned_volume := !pruned_volume + Graph.degree g v;
      if wave > !cascade then cascade := wave;
      Graph.iter_neighbors g v (fun u ->
          if in_set.(u) then begin
            inner.(u) <- inner.(u) - 1;
            if violates u then Queue.add (u, wave + 1) queue
          end)
    end
  done;
  let core = Array.of_list (List.filter (fun v -> in_set.(v)) (Array.to_list members)) in
  Array.sort Int.compare core;
  { core;
    pruned = Array.of_list (List.rev !removed_order);
    pruned_volume = !pruned_volume;
    cascade_length = !cascade }

let trim_after_removal g members ~removed =
  let g' = Graph.remove_edges g removed in
  (* degrees in g' include the compensating self-loops, so deg_G' = deg_G;
     the within-set degree drops where edges were deleted *)
  trim g' members
