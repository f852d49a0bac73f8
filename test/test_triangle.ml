(* Tests for triangle enumeration: the exact forward algorithm against
   a naive triple scan, the expander-based distributed enumerator
   (Theorem 2) for completeness, and the baseline cost models. *)

module Graph = Dex_graph.Graph
module Gen = Dex_graph.Generators
module Exact = Dex_triangle.Exact
module Enum = Dex_triangle.Expander_enum
module Baselines = Dex_triangle.Baselines
module Rng = Dex_util.Rng

let naive_triangles g =
  let n = Graph.num_vertices g in
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      for w = v + 1 to n - 1 do
        if Graph.mem_edge g u v && Graph.mem_edge g v w && Graph.mem_edge g u w then
          acc := (u, v, w) :: !acc
      done
    done
  done;
  List.sort compare !acc

let unpacked ts = Array.to_list (Array.map Exact.unpack ts)

(* ---------- exact ---------- *)

let test_known_counts () =
  Alcotest.(check int) "K4" 4 (Exact.count (Gen.complete 4));
  Alcotest.(check int) "K5" 10 (Exact.count (Gen.complete 5));
  Alcotest.(check int) "K6" 20 (Exact.count (Gen.complete 6));
  Alcotest.(check int) "C5" 0 (Exact.count (Gen.cycle 5));
  Alcotest.(check int) "C3" 1 (Exact.count (Gen.cycle 3));
  Alcotest.(check int) "grid" 0 (Exact.count (Gen.grid 4 4));
  Alcotest.(check int) "tree" 0 (Exact.count (Gen.binary_tree 4));
  Alcotest.(check int) "star" 0 (Exact.count (Gen.star 10))

let test_self_loops_ignored () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2); (0, 0); (1, 1) ] in
  Alcotest.(check int) "one triangle" 1 (Exact.count g);
  Alcotest.(check (list (triple int int int))) "ordered" [ (0, 1, 2) ] (unpacked (Exact.enumerate g))

let test_parallel_edges_no_double_count () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (0, 1); (1, 2); (0, 2) ] in
  Alcotest.(check int) "still one" 1 (Exact.count g)

let test_enumerate_matches_naive () =
  for seed = 1 to 6 do
    let rng = Rng.create seed in
    let g = Gen.gnp rng ~n:25 ~p:0.25 in
    Alcotest.(check (list (triple int int int))) "forward = naive" (naive_triangles g)
      (unpacked (Exact.enumerate g))
  done

(* the largest vertex ids a packed triangle holds: 20 bits each, and
   the order of packed ints is still the order of the triples *)
let test_pack_widest () =
  let top = (1 lsl 20) - 1 in
  let g =
    Graph.of_edges ~n:(1 lsl 20)
      [ (0, top - 1); (top - 1, top); (0, top); (1, 2); (2, 3); (1, 3) ]
  in
  Alcotest.(check (triple int int int)) "round trip" (0, top - 1, top)
    (Exact.unpack (Exact.pack 0 (top - 1) top));
  Alcotest.(check (list (triple int int int))) "packed, sorted"
    [ (0, top - 1, top); (1, 2, 3) ]
    (unpacked (Exact.enumerate g))

let test_pack_too_many_vertices () =
  Alcotest.check_raises "n = 2^20 + 1"
    (Dex_util.Invariant.Violation
       { where = "Exact.enumerate"; what = "n <= 2^20 (packed triangles)" })
    (fun () -> ignore (Exact.enumerate (Graph.empty ((1 lsl 20) + 1))))

(* ---------- distributed enumerator ---------- *)

let check_complete ?epsilon ?k_decomp g seed =
  let r = Enum.run ?epsilon ?k_decomp g (Rng.create seed) in
  Alcotest.(check bool) "complete" true r.Enum.complete;
  Alcotest.(check int) "count matches" (Exact.count g) (Array.length r.Enum.triangles);
  r

let test_enum_gnp_dense () =
  let rng = Rng.create 7 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:60 ~p:0.5) in
  let r = check_complete g 8 in
  Alcotest.(check bool) "some rounds" true (r.Enum.total_rounds > 0);
  Alcotest.(check bool) "levels ≥ 1" true (List.length r.Enum.levels >= 1)

let test_enum_sbm_multi_level () =
  let rng = Rng.create 9 in
  let g = Gen.planted_partition rng ~parts:4 ~size:30 ~p_in:0.5 ~p_out:0.05 in
  let g = Gen.connectivize rng g in
  let r = check_complete ~epsilon:0.3 g 10 in
  (* cross-block triangles survive into E-star: expect > 1 level *)
  Alcotest.(check bool) "recursed" true (List.length r.Enum.levels >= 1);
  let total_detected =
    List.fold_left (fun acc l -> acc + l.Enum.detected) 0 r.Enum.levels
  in
  (* the levels' detected sets are disjoint *)
  Alcotest.(check int) "level counts sum to the set" (Array.length r.Enum.triangles)
    total_detected

let test_enum_triangle_free () =
  let g = Gen.grid 8 8 in
  let r = Enum.run g (Rng.create 11) in
  Alcotest.(check (array int)) "none" [||] r.Enum.triangles;
  Alcotest.(check bool) "complete" true r.Enum.complete

let test_enum_dumbbell () =
  let rng = Rng.create 12 in
  let g = Gen.dumbbell rng ~n1:40 ~n2:40 ~d:8 ~bridges:2 in
  ignore (check_complete g 13)

let test_enum_power_law () =
  let rng = Rng.create 14 in
  let g = Gen.connectivize rng (Gen.chung_lu rng ~n:120 ~exponent:2.5 ~avg_degree:10.0) in
  ignore (check_complete g 15)

let test_enum_cliques_chain () =
  let g = Gen.cliques_chain ~cliques:5 ~size:8 in
  let r = check_complete g 16 in
  Alcotest.(check int) "clique triangles" (5 * 56) (Array.length r.Enum.triangles)

let test_instances_formula () =
  (* clique-like component: incident = volume/2 exactly when all edges
     are intra, so instances ≈ 1.5·n^{1/3} *)
  Alcotest.(check int) "balanced" 8 (Enum.instances_for ~n:125 ~incident:100 ~volume:200);
  Alcotest.(check bool) "monotone in incident" true
    (Enum.instances_for ~n:125 ~incident:200 ~volume:200
     > Enum.instances_for ~n:125 ~incident:50 ~volume:200)

let test_level_reports_consistent () =
  let rng = Rng.create 17 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:50 ~p:0.3) in
  let r = Enum.run g (Rng.create 18) in
  List.iter
    (fun l ->
      Alcotest.(check bool) "edges positive" true (l.Enum.edges > 0);
      Alcotest.(check bool) "components positive" true (l.Enum.components > 0);
      Alcotest.(check bool) "rounds nonneg" true (l.Enum.decomposition_rounds >= 0))
    r.Enum.levels;
  let level_sum =
    List.fold_left
      (fun acc l ->
        acc + l.Enum.routing_preprocess_rounds + l.Enum.routing_query_rounds)
      0 r.Enum.levels
  in
  Alcotest.(check bool) "enumeration rounds = routing part" true
    (r.Enum.enumeration_rounds >= level_sum)

(* ---------- executed DLP ---------- *)

module Dlp = Dex_triangle.Dlp

let test_dlp_complete_and_counts () =
  for seed = 1 to 4 do
    let rng = Rng.create seed in
    let g = Gen.gnp rng ~n:40 ~p:0.4 in
    let r = Dlp.run g in
    Alcotest.(check bool) "complete" true r.Dlp.complete;
    Alcotest.(check int) "detected" (Exact.count g) r.Dlp.detected;
    Alcotest.(check bool) "rounds positive" true (r.Dlp.rounds > 0)
  done

let test_dlp_group_structure () =
  let g = Gen.complete 27 in
  let r = Dlp.run g in
  Alcotest.(check int) "g = n^{1/3}" 3 r.Dlp.groups;
  (* signatures with repeated groups are detected too *)
  Alcotest.(check int) "detected" (Exact.count g) r.Dlp.detected;
  Alcotest.(check bool) "complete" true r.Dlp.complete;
  (* multisets of 3 groups: C(3,3)+3·2+3 = 10 *)
  Alcotest.(check int) "triples" 10 r.Dlp.triples;
  Alcotest.(check bool) "loads measured" true
    (r.Dlp.max_receive_words > 0 && r.Dlp.max_send_words > 0)

let test_dlp_group_of_balanced () =
  let counts = Array.make 4 0 in
  for v = 0 to 63 do
    let gr = Dlp.group_of ~n:64 ~groups:4 v in
    Alcotest.(check bool) "in range" true (gr >= 0 && gr < 4);
    counts.(gr) <- counts.(gr) + 1
  done;
  Array.iter (fun c -> Alcotest.(check int) "balanced blocks" 16 c) counts

(* rounds of {!Dlp.run} on G(512, 1/2) over G(64, 1/2), both drawn from
   [seed]; n^{1/3} scaling expects a factor of about 2 over the 8x jump *)
let dlp_scaling_ratio seed =
  let rng = Rng.create seed in
  let r64 = Dlp.run (Gen.gnp rng ~n:64 ~p:0.5) in
  let r512 = Dlp.run (Gen.gnp rng ~n:512 ~p:0.5) in
  Alcotest.(check bool) "positive" true (r64.Dlp.rounds >= 1);
  float_of_int r512.Dlp.rounds /. float_of_int (max 1 r64.Dlp.rounds)

let test_dlp_scaling () =
  let ratio = dlp_scaling_ratio 23 in
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f in [1,8]" ratio) true
    (ratio >= 1.0 && ratio <= 8.0)

let test_dlp_empty_graph () =
  let r = Dlp.run (Graph.empty 10) in
  Alcotest.(check int) "no triangles" 0 r.Dlp.detected;
  Alcotest.(check bool) "complete" true r.Dlp.complete

(* ---------- baselines ---------- *)

let test_trivial_rounds () =
  (* complete graph: every vertex receives (n-1)·(n-1) words over
     (n-1) edges = n-1 rounds *)
  Alcotest.(check int) "K10" 9 (Baselines.trivial_rounds (Gen.complete 10));
  (* star: center degree n-1, leaves degree 1; leaf receives n-1 words
     over one edge *)
  Alcotest.(check int) "star" 9 (Baselines.trivial_rounds (Gen.star 10));
  Alcotest.(check int) "empty" 0 (Baselines.trivial_rounds (Graph.empty 5))

let test_dlp_rounds_scale () =
  (* the DLP baseline line is the [rounds] field of an executed {!Dlp.run} *)
  let ratio = dlp_scaling_ratio 19 in
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f in (1.2,6)" ratio) true
    (ratio > 1.2 && ratio < 6.0)

let test_reference_formulas () =
  Alcotest.(check bool) "IL ≥ LB" true
    (Baselines.izumi_le_gall_rounds ~n:1000 > Baselines.lower_bound_rounds ~n:1000);
  Alcotest.(check bool) "LB grows" true
    (Baselines.lower_bound_rounds ~n:100_000 > Baselines.lower_bound_rounds ~n:100)

let test_run_verified_complete () =
  let rng = Rng.create 67 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:40 ~p:0.25) in
  match Enum.run_verified ~attempts:3 g (Rng.create 68) with
  | Error _ -> Alcotest.fail "enumeration should certify within 3 attempts"
  | Ok o ->
    Alcotest.(check bool) "complete" true o.Enum.value.Enum.complete;
    Alcotest.(check bool) "attempts in budget" true
      (o.Enum.attempts >= 1 && o.Enum.attempts <= 3);
    Alcotest.(check bool) "rounds summed" true
      (o.Enum.rounds_total >= o.Enum.value.Enum.total_rounds);
    Alcotest.(check (array (triple int int int))) "matches naive"
      (Array.of_list (naive_triangles g))
      (Array.map Exact.unpack o.Enum.value.Enum.triangles)

let test_run_verified_validation () =
  let g = Gen.complete 4 in
  Alcotest.check_raises "attempts must be >= 1"
    (Dex_util.Invariant.Violation
       { where = "Expander_enum.run_verified"; what = "attempts must be >= 1" })
    (fun () -> ignore (Enum.run_verified ~attempts:0 g (Rng.create 1)))

let prop_enum_complete =
  QCheck.Test.make ~name:"expander enumeration = ground truth" ~count:6
    QCheck.(pair (int_range 20 60) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.connectivize rng (Gen.gnp rng ~n ~p:0.3) in
      let r = Enum.run g (Rng.create (seed + 1)) in
      r.Enum.complete)

let () =
  Alcotest.run "triangle"
    [ ( "exact",
        [ Alcotest.test_case "known counts" `Quick test_known_counts;
          Alcotest.test_case "self loops ignored" `Quick test_self_loops_ignored;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges_no_double_count;
          Alcotest.test_case "matches naive" `Quick test_enumerate_matches_naive;
          Alcotest.test_case "packs the widest ids" `Quick test_pack_widest;
          Alcotest.test_case "too many vertices to pack" `Quick test_pack_too_many_vertices ] );
      ( "expander-enum",
        [ Alcotest.test_case "dense gnp" `Quick test_enum_gnp_dense;
          Alcotest.test_case "SBM multi level" `Quick test_enum_sbm_multi_level;
          Alcotest.test_case "triangle free" `Quick test_enum_triangle_free;
          Alcotest.test_case "dumbbell" `Quick test_enum_dumbbell;
          Alcotest.test_case "power law" `Quick test_enum_power_law;
          Alcotest.test_case "cliques chain" `Quick test_enum_cliques_chain;
          Alcotest.test_case "instances formula" `Quick test_instances_formula;
          Alcotest.test_case "level reports" `Quick test_level_reports_consistent;
          Alcotest.test_case "run_verified complete" `Quick test_run_verified_complete;
          Alcotest.test_case "run_verified validation" `Quick test_run_verified_validation;
          QCheck_alcotest.to_alcotest prop_enum_complete ] );
      ( "dlp",
        [ Alcotest.test_case "complete & counts" `Quick test_dlp_complete_and_counts;
          Alcotest.test_case "group structure" `Quick test_dlp_group_structure;
          Alcotest.test_case "balanced groups" `Quick test_dlp_group_of_balanced;
          Alcotest.test_case "n^{1/3} scaling" `Quick test_dlp_scaling;
          Alcotest.test_case "empty graph" `Quick test_dlp_empty_graph ] );
      ( "baselines",
        [ Alcotest.test_case "trivial rounds" `Quick test_trivial_rounds;
          Alcotest.test_case "dlp scaling" `Quick test_dlp_rounds_scale;
          Alcotest.test_case "reference formulas" `Quick test_reference_formulas ] ) ]
