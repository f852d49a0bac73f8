module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex
module Network = Dex_congest.Network
module Arena = Dex_congest.Arena
module Invariant = Dex_util.Invariant

(* mass shares travel as one word each: the 63-bit payload of the
   positive IEEE double — the simulation's stand-in for the O(log n)-bit
   fixed-point values a real implementation would ship *)
let encode x = Int64.to_int (Int64.bits_of_float x)
let decode w = Int64.float_of_bits (Int64.of_int w)

type state = {
  mass : float; (* p̃_{t} at this vertex after the last completed step *)
  kept : float; (* lazy + self-loop share waiting for incoming mass *)
}

let run net ~src ~eps ~steps =
  Invariant.require (steps >= 0) ~where:"Walk_protocol.run" "steps >= 0";
  let g = Network.graph net in
  let n = Graph.num_vertices g in
  Invariant.require (src >= 0 && src < n) ~where:"Walk_protocol.run" "src out of range";
  let truncate v x = if x >= 2.0 *. eps *. float_of_int (Graph.degree g v) then x else 0.0 in
  let init v = { mass = (if v = src then 1.0 else 0.0); kept = 0.0 } in
  let step ~round ~vertex st ib ob =
    let v = Vertex.local_int vertex in
    (* complete step (round - 1): collect shares sent last round,
       summed in descending sender order *)
    let shares = ref [] in
    Arena.Inbox.iter1 ib (fun _ w -> shares := decode w :: !shares);
    let arrived = List.fold_left ( +. ) 0.0 !shares in
    let mass = if round = 1 then st.mass else truncate v (st.kept +. arrived) in
    (* a vertex without mass is at a fixed point; one holding mass must
       be stepped again even if nothing arrives *)
    if mass > 0.0 then Arena.Outbox.wake ob;
    (* launch the next step: split the current mass *)
    if round > steps then { mass; kept = mass }
    else begin
      let deg = float_of_int (Graph.degree g v) in
      if mass = 0.0 || deg = 0.0 then { mass; kept = mass }
      else begin
        let share = mass /. (2.0 *. deg) in
        let kept =
          (mass /. 2.0) +. (share *. float_of_int (Graph.self_loops g v))
        in
        Graph.iter_neighbors g v (fun u ->
            Arena.Outbox.send1 ob ~dst:(Vertex.local u) (encode share));
        { mass; kept }
      end
    end
  in
  let states = Network.run_for net ~label:"walk-protocol" ~init ~step (steps + 1) in
  let ids = Dex_graph.Metrics.vertices_of_mask (Array.map (fun st -> st.mass > 0.0) states) in
  (Dex_spectral.Walk.of_sorted ~ids ~mass:(Array.map (fun v -> states.(v).mass) ids), steps + 1)
