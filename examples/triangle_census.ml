(* Triangle census of a power-law "social" graph.

   Build & run:  dune exec examples/triangle_census.exe

   Triangle counts are the building block of clustering coefficients
   and community metrics. This example runs the paper's Õ(n^{1/3})
   CONGEST enumeration (Theorem 2) on a Chung–Lu power-law graph,
   checks it against the exact centralized count, and prints the
   round-cost comparison with the baselines. *)

module X = Dexpander

let () =
  let seed = 5 in
  let rng = X.Rng.create seed in
  let n = 220 in
  let g = X.Generators.chung_lu rng ~n ~exponent:2.5 ~avg_degree:14.0 in
  let g = X.Generators.connectivize rng g in
  Printf.printf "power-law graph: n = %d, m = %d, degeneracy = %d\n"
    (X.Graph.num_vertices g) (X.Graph.num_edges g) (X.Metrics.degeneracy g);

  let exact = X.Triangles.count g in
  Printf.printf "exact triangle count: %d\n" exact;

  let r = X.enumerate_triangles ~epsilon:(1.0 /. 6.0) ~k:2 g ~seed in
  Printf.printf "distributed enumeration: %d triangles, complete = %b, levels = %d\n"
    (Array.length r.X.Triangle_enum.triangles)
    r.X.Triangle_enum.complete
    (List.length r.X.Triangle_enum.levels);
  List.iter
    (fun (l : X.Triangle_enum.level_report) ->
      Printf.printf
        "  level %d: %d live edges, %d components, %d new triangles, %d routing instances\n"
        l.X.Triangle_enum.level l.X.Triangle_enum.edges l.X.Triangle_enum.components
        l.X.Triangle_enum.detected l.X.Triangle_enum.max_instances)
    r.X.Triangle_enum.levels;

  (* clustering coefficient from the census *)
  let wedges = ref 0 in
  for v = 0 to X.Graph.num_vertices g - 1 do
    let d = X.Graph.plain_degree g v in
    wedges := !wedges + (d * (d - 1) / 2)
  done;
  if !wedges > 0 then
    Printf.printf "global clustering coefficient: %.4f\n"
      (3.0 *. float_of_int exact /. float_of_int !wedges);

  Printf.printf "round comparison (simulated CONGEST):\n";
  Printf.printf "  expander-based total:        %d\n" r.X.Triangle_enum.total_rounds;
  Printf.printf "  expander-based enumeration:  %d (decomposition excluded)\n"
    r.X.Triangle_enum.enumeration_rounds;
  Printf.printf "  trivial neighborhood flood:  %d\n" (X.Triangle_baselines.trivial_rounds g);
  Printf.printf "  DLP (CONGESTED-CLIQUE):      %d\n"
    (X.Triangle_dlp.run g).X.Triangle_dlp.rounds;
  Printf.printf "  Izumi–Le Gall reference:     %d\n"
    (X.Triangle_baselines.izumi_le_gall_rounds ~n);
  Printf.printf "  Ω(n^{1/3}/log n) lower bound: %d\n"
    (X.Triangle_baselines.lower_bound_rounds ~n)
