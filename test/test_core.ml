(* End-to-end tests of the public Dexpander API — the calls a
   downstream user makes, exactly as the README shows them. *)

module X = Dexpander

let test_decompose_api () =
  let rng = X.Rng.create 1 in
  let g = X.Generators.dumbbell rng ~n1:40 ~n2:40 ~d:6 ~bridges:1 in
  let r = X.decompose g ~seed:1 in
  Alcotest.(check int) "two parts" 2 (List.length r.X.Decomposition.parts);
  X.Metrics.check_partition g r.X.Decomposition.parts

let test_decompose_epsilon_k_knobs () =
  let rng = X.Rng.create 2 in
  let g = X.Generators.planted_partition rng ~parts:3 ~size:30 ~p_in:0.4 ~p_out:0.02 in
  let g = X.Generators.connectivize rng g in
  let r = X.decompose ~epsilon:0.3 ~k:3 g ~seed:2 in
  Alcotest.(check bool) "epsilon respected" true
    (r.X.Decomposition.edge_fraction_removed <= 0.3);
  Alcotest.(check int) "schedule k" 3 r.X.Decomposition.schedule.X.Schedule.k

let test_sparse_cut_api () =
  let rng = X.Rng.create 3 in
  let g = X.Generators.dumbbell rng ~n1:30 ~n2:30 ~d:4 ~bridges:1 in
  let r = X.sparse_cut ~phi:0.05 g ~seed:3 in
  Alcotest.(check bool) "found balanced cut" true (r.X.Sparse_cut.balance >= 1.0 /. 48.0)

let test_ldd_api () =
  let g = X.Generators.cycle 14_000 in
  let r = X.low_diameter_decomposition ~beta:0.7 g ~seed:4 in
  X.Metrics.check_partition g r.X.Ldd.parts;
  Alcotest.(check bool) "clustered" true (List.length r.X.Ldd.parts > 1)

let test_triangles_api () =
  let rng = X.Rng.create 5 in
  let g = X.Generators.connectivize rng (X.Generators.gnp rng ~n:50 ~p:0.3) in
  let r = X.enumerate_triangles g ~seed:5 in
  Alcotest.(check bool) "complete" true r.X.Triangle_enum.complete;
  Alcotest.(check int) "matches exact" (X.Triangles.count g)
    (Array.length r.X.Triangle_enum.triangles)

let test_reexports_cohere () =
  (* the umbrella modules are the same as the underlying libraries *)
  let g = X.Generators.complete 5 in
  Alcotest.(check int) "graph ops" 10 (X.Graph.num_edges g);
  Alcotest.(check int) "triangles" 10 (X.Triangles.count g);
  let gap, _ = X.Mixing.spectral_gap g (X.Rng.create 6) in
  Alcotest.(check bool) "spectral available" true (gap > 0.0)

let test_seeded_reproducibility () =
  let rng = X.Rng.create 7 in
  let g = X.Generators.dumbbell rng ~n1:30 ~n2:30 ~d:4 ~bridges:1 in
  let r1 = X.decompose g ~seed:42 and r2 = X.decompose g ~seed:42 in
  Alcotest.(check (array int)) "identical partitions" r1.X.Decomposition.part_of
    r2.X.Decomposition.part_of

let () =
  Alcotest.run "core"
    [ ( "public-api",
        [ Alcotest.test_case "decompose" `Quick test_decompose_api;
          Alcotest.test_case "decompose knobs" `Quick test_decompose_epsilon_k_knobs;
          Alcotest.test_case "sparse cut" `Quick test_sparse_cut_api;
          Alcotest.test_case "ldd" `Quick test_ldd_api;
          Alcotest.test_case "triangles" `Quick test_triangles_api;
          Alcotest.test_case "re-exports" `Quick test_reexports_cohere;
          Alcotest.test_case "reproducibility" `Quick test_seeded_reproducibility ] ) ]
