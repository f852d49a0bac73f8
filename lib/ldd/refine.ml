module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Bfs = Dex_graph.Bfs
module Union_find = Dex_util.Union_find
module Invariant = Dex_util.Invariant

type t = {
  in_vd : bool array;
  a : int;
  b : int;
  iterations : int;
  rounds : int;
}

let run ?(ka = 5.0) ?(kb = 5.0) g ~beta =
  Invariant.require (beta > 0.0 && beta < 1.0) ~where:"Refine.run" "beta must be in (0, 1)";
  let n = Graph.num_vertices g in
  if n = 0 then { in_vd = [||]; a = 1; b = 1; iterations = 0; rounds = 0 }
  else begin
    let ln_n = log (Float.max 2.0 (float_of_int n)) in
    let a = max 1 (int_of_float (Float.ceil (ka *. ln_n /. beta))) in
    let b = max 1 (int_of_float (Float.ceil (kb *. ln_n /. beta))) in
    let rounds = ref 0 in
    (* auxiliary partition: V'_D by ball density at radii a vs 100ab *)
    let near = Neighborhood.all_ball_edge_counts g ~d:a in
    let cap r = min r (2 * n) in
    let far = Neighborhood.all_ball_edge_counts g ~d:(cap (100 * a * b)) in
    rounds := !rounds + Neighborhood.lemma16_rounds ~n ~d:a ~f:0.5;
    (* a vertex in the overlap region (far/2b ≤ near ≤ far/b) may go to
       either side; prefer V'_S so the clustering cuts materialize.
       V'_D members then satisfy near > far/b ≥ far/2b as required. *)
    let in_vd_aux = Array.init n (fun v -> b * near.(v) > far.(v)) in
    (* W_0 = radius-a ball around V'_D *)
    let search = Bfs.create g in
    let in_w = Array.make n false in
    let add_reached () =
      for i = 0 to Bfs.reached search - 1 do
        in_w.(Bfs.nth search i) <- true
      done
    in
    Bfs.run ~limit:a search (Metrics.vertices_of_mask in_vd_aux);
    add_reached ();
    rounds := !rounds + a;
    (* grow W: merge components within distance a, inflate by radius a *)
    let iterations = ref 0 in
    let stable = ref false in
    while not !stable do
      incr iterations;
      let w = Metrics.vertices_of_mask in_w in
      if Array.length w = 0 then stable := true
      else begin
        (* component labels inside W *)
        let comp_of = Array.make n (-1) in
        let comps = ref 0 in
        Array.iter
          (fun src ->
            if comp_of.(src) = -1 then begin
              Bfs.run ~within:in_w search [| src |];
              for i = 0 to Bfs.reached search - 1 do
                comp_of.(Bfs.nth search i) <- !comps
              done;
              incr comps
            end)
          w;
        (* the radius-a halo of W, each vertex labelled with the
           component of the source whose wave reached it first *)
        Bfs.run ~limit:a search w;
        let label x = comp_of.(w.(Bfs.origin search x)) in
        (* two components merge when some edge joins their ≤a halos *)
        let uf = Union_find.create !comps in
        let merged_any = ref false in
        Graph.iter_edges g (fun x y ->
            if
              x <> y && Bfs.mem search x && Bfs.mem search y
              && label x <> label y
              && Bfs.dist search x + Bfs.dist search y + 1 <= a
            then if Union_find.union uf (label x) (label y) then merged_any := true);
        rounds := !rounds + (2 * a);
        if not !merged_any then stable := true
        else begin
          (* inflate exactly the components that found a near neighbor *)
          let group_size = Array.make !comps 0 in
          for c = 0 to !comps - 1 do
            let r = Union_find.find uf c in
            group_size.(r) <- group_size.(r) + 1
          done;
          let inflating c = group_size.(Union_find.find uf c) > 1 in
          let sources = Array.of_list (List.filter (fun v -> inflating comp_of.(v)) (Array.to_list w)) in
          Bfs.run ~limit:a search sources;
          add_reached ();
          rounds := !rounds + (2 * a)
        end
      end
    done;
    { in_vd = in_w; a; b; iterations = !iterations; rounds = !rounds }
  end

let vd_components g t =
  let members = Metrics.vertices_of_mask t.in_vd in
  if Array.length members = 0 then []
  else begin
    let sub, mapping = Graph.induced_subgraph g members in
    Metrics.connected_components sub
    |> List.map (fun comp -> Array.map (fun v -> mapping.(v)) comp)
  end

let check g t =
  (* V_D component diameters are O(ab): use the invariant-H bound
     10·a·N_S with N_S ≤ 2b, i.e. 20·a·b *)
  List.iter
    (fun comp ->
      let d = Metrics.subset_diameter g comp in
      if d > 20 * t.a * t.b then
        Invariant.failf ~where:"Refine.check" "V_D component diameter %d exceeds 20ab = %d" d
          (20 * t.a * t.b))
    (vd_components g t);
  (* V_S density: |E(N^a(v))| ≤ |E|/b *)
  let m = Graph.num_edges g in
  Array.iteri
    (fun v c ->
      if (not t.in_vd.(v)) && c * t.b > m then
        Invariant.failf ~where:"Refine.check" "V_S vertex %d has dense ball (%d > %d/%d)" v c m
          t.b)
    (Neighborhood.all_ball_edge_counts g ~d:t.a)
