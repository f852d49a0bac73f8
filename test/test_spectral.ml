(* Tests for the random-walk toolkit: mass conservation, the
   ρ-symmetry that powers Lemma 3, truncation, sweep-cut correctness
   against brute-force metrics, mixing/gap estimates and the exact
   small-graph cut enumerator. *)

module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Gen = Dex_graph.Generators
module Walk = Dex_spectral.Walk
module Sweep = Dex_spectral.Sweep
module Mixing = Dex_spectral.Mixing
module Exact = Dex_spectral.Exact
module Rng = Dex_util.Rng

let sparse_to_dense n (p : Walk.sparse) =
  let a = Array.make n 0.0 in
  Array.iteri (fun i v -> a.(v) <- p.mass.(i)) p.ids;
  a

(* ---------- walk ---------- *)

let test_mass_conservation () =
  let rng = Rng.create 1 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:30 ~p:0.15) in
  let p = Walk.walk_from g ~src:0 ~steps:10 in
  let total = Array.fold_left ( +. ) 0.0 p in
  Alcotest.(check (float 1e-9)) "mass 1" 1.0 total

let test_sparse_dense_agree () =
  let rng = Rng.create 2 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:25 ~p:0.2) in
  let dense = ref (Array.init 25 (fun v -> if v = 3 then 1.0 else 0.0)) in
  let sparse = ref (Walk.indicator 3) in
  let step = Walk.step g ~eps:0.0 in
  for _ = 1 to 8 do
    dense := Walk.step_dense g !dense;
    sparse := step !sparse
  done;
  let sd = sparse_to_dense 25 !sparse in
  Array.iteri
    (fun v x -> Alcotest.(check (float 1e-9)) (Printf.sprintf "p(%d)" v) x sd.(v))
    !dense;
  (* the sparse support is exactly the dense positive entries *)
  let dense_support =
    Array.to_list (Array.mapi (fun v x -> (v, x)) !dense)
    |> List.filter_map (fun (v, x) -> if x > 0.0 then Some v else None)
  in
  Alcotest.(check (list int)) "support matches dense positives" dense_support
    (Array.to_list !sparse.Walk.ids)

let test_self_loop_mass_returns () =
  (* one vertex with a self-loop and a pendant: loop mass stays *)
  let g = Graph.of_edges ~n:2 [ (0, 1); (0, 0) ] in
  (* deg 0 = 2 (1 loop + 1 edge); from χ_0 one lazy step:
     stay 1/2 + loop share 1/4 = 3/4 at vertex 0, 1/4 at vertex 1 *)
  let p = Walk.step_dense g [| 1.0; 0.0 |] in
  Alcotest.(check (float 1e-9)) "stay" 0.75 p.(0);
  Alcotest.(check (float 1e-9)) "move" 0.25 p.(1)

let test_stationary_fixpoint () =
  let g = Gen.cycle 12 in
  let pi = Walk.degree_distribution g in
  let p' = Walk.step_dense g pi in
  Array.iteri (fun v x -> Alcotest.(check (float 1e-9)) (string_of_int v) pi.(v) x) p'

let test_truncation () =
  let g = Gen.star 5 in
  (* from leaf 1 (deg 1): 1/2 stays, 1/2 reaches the centre 0 (deg 4);
     eps = 0.1 keeps p(v) >= 0.2·deg(v), so the leaf's 1/2 stays and the
     centre's 1/2 < 0.8 is dropped *)
  let q = Walk.step g ~eps:0.1 (Walk.indicator 1) in
  Alcotest.(check bool) "large kept" true (Walk.rho g q 1 > 0.0);
  Alcotest.(check bool) "small dropped" false (Walk.rho g q 0 > 0.0);
  Alcotest.(check (array int)) "support" [| 1 |] q.Walk.ids

let test_truncated_below_exact () =
  let rng = Rng.create 3 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:30 ~p:0.12) in
  let exact = ref (Array.init 30 (fun v -> if v = 0 then 1.0 else 0.0)) in
  let walks = Walk.truncated_walk g ~src:0 ~eps:1e-4 ~steps:6 in
  for t = 1 to 6 do
    exact := Walk.step_dense g !exact;
    let trunc = sparse_to_dense 30 walks.(t) in
    Array.iteri
      (fun v x ->
        Alcotest.(check bool)
          (Printf.sprintf "t=%d v=%d" t v)
          true
          (x <= !exact.(v) +. 1e-12))
      trunc
  done

(* the ρ-symmetry of Lemma 3: ρ_t^v(u) = ρ_t^u(v) *)
let test_rho_symmetry () =
  let rng = Rng.create 4 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:20 ~p:0.2) in
  List.iter
    (fun (u, v, t) ->
      let pu = Walk.walk_from g ~src:u ~steps:t in
      let pv = Walk.walk_from g ~src:v ~steps:t in
      let rho_uv = pu.(v) /. float_of_int (Graph.degree g v) in
      let rho_vu = pv.(u) /. float_of_int (Graph.degree g u) in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "u=%d v=%d t=%d" u v t) rho_uv rho_vu)
    [ (0, 5, 3); (2, 17, 7); (1, 1, 4); (9, 12, 11) ]

(* ---------- sweep ---------- *)

let test_sweep_cut_matches_metrics () =
  let rng = Rng.create 5 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:30 ~p:0.15) in
  let walks = Walk.truncated_walk g ~src:0 ~eps:1e-6 ~steps:5 in
  let sweep = Sweep.scan g walks.(5) in
  Array.iteri
    (fun j pref ->
      let s = Sweep.take sweep (j + 1) in
      Alcotest.(check int) "volume" (Graph.volume g s) pref.Sweep.volume;
      Alcotest.(check int) "cut" (Metrics.cut_size g s) pref.Sweep.cut;
      let c = Metrics.conductance g s in
      if Float.is_finite c then
        Alcotest.(check (float 1e-9)) "conductance" c pref.Sweep.conductance)
    sweep.Sweep.prefixes

let test_sweep_order_decreasing_rho () =
  let rng = Rng.create 6 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:30 ~p:0.15) in
  let walks = Walk.truncated_walk g ~src:0 ~eps:1e-6 ~steps:4 in
  let order = (Sweep.scan g walks.(4)).Sweep.ordered in
  for i = 1 to Array.length order - 1 do
    let r1 = Walk.rho g walks.(4) order.(i - 1) in
    let r2 = Walk.rho g walks.(4) order.(i) in
    Alcotest.(check bool) "non-increasing" true (r1 >= r2 -. 1e-12)
  done

let test_sweep_finds_barbell_cut () =
  let g = Gen.barbell ~clique:8 ~bridge:0 in
  let walks = Walk.truncated_walk g ~src:0 ~eps:1e-9 ~steps:30 in
  match Sweep.best_cut g walks.(30) with
  | None -> Alcotest.fail "no cut found"
  | Some (sweep, j) ->
    let pref = sweep.Sweep.prefixes.(j - 1) in
    Alcotest.(check bool) "sparse" true (pref.Sweep.conductance < 0.05);
    Alcotest.(check int) "the clique side" 8 j

(* the best prefix is the first one at the smallest finite
   conductance; infinite ones (an empty side) never win *)
let test_best_prefix_first_minimum () =
  let sweep conductances =
    { Sweep.ordered = Array.mapi (fun i _ -> i) conductances;
      prefixes =
        Array.mapi
          (fun i conductance ->
            { Sweep.len = i + 1; volume = 0; cut = 0; conductance; last_rho = 0.0 })
          conductances }
  in
  let best c = Option.map (fun p -> p.Sweep.len) (Sweep.best_prefix (sweep c)) in
  Alcotest.(check (option int)) "first of two minima" (Some 3)
    (best [| Float.infinity; 0.5; 0.2; 0.2; 0.3; Float.infinity |]);
  Alcotest.(check (option int)) "all infinite" None (best [| Float.infinity; Float.infinity |]);
  Alcotest.(check (option int)) "empty" None (best [||])

(* one bound scan reuses its membership stamps: a small support swept
   after a large one sees no stale member, and both sweeps equal a
   fresh scan *)
let test_sweep_scratch_reuse () =
  let rng = Rng.create 12 in
  let g = Gen.random_regular rng ~n:64 ~d:4 in
  let walks = Walk.truncated_walk g ~src:5 ~eps:0.0 ~steps:10 in
  let scan = Sweep.scan g in
  let same label (p : Walk.sparse) =
    let reused = scan p and fresh = Sweep.scan g p in
    Alcotest.(check (array int)) (label ^ " order") fresh.Sweep.ordered reused.Sweep.ordered;
    Alcotest.(check bool) (label ^ " prefixes") true (fresh.Sweep.prefixes = reused.Sweep.prefixes)
  in
  same "large" walks.(10);
  same "small after large" walks.(1);
  same "large again" walks.(10)

let test_scan_vector_orders_by_value () =
  let g = Gen.barbell ~clique:6 ~bridge:0 in
  (* a vector that is 1 on the first clique, 0 on the second: the
     sweep must find the exact clique boundary *)
  let x = Array.init 12 (fun v -> if v < 6 then 1.0 else 0.0) in
  let sweep = Sweep.scan_vector g x in
  let pref = sweep.Sweep.prefixes.(5) in
  Alcotest.(check int) "boundary cut" 1 pref.Sweep.cut;
  Alcotest.(check bool) "boundary conductance tiny" true (pref.Sweep.conductance < 0.04);
  (* all 12 prefixes measured *)
  Alcotest.(check int) "covers all vertices" 12 (Array.length sweep.Sweep.prefixes)

(* ---------- mixing and gap ---------- *)

let test_mixing_time_ordering () =
  let rng = Rng.create 7 in
  let expander = Gen.random_regular rng ~n:64 ~d:8 in
  let ring = Gen.cycle 64 in
  let t_exp = Mixing.mixing_time expander (Rng.create 8) in
  let t_ring = Mixing.mixing_time ring (Rng.create 8) in
  Alcotest.(check bool) "expander mixes faster" true (t_exp < t_ring);
  Alcotest.(check bool) "expander mixes fast" true (t_exp < 64)

let test_spectral_gap_complete_vs_ring () =
  let rng = Rng.create 9 in
  let complete = Gen.complete 16 in
  let ring = Gen.cycle 16 in
  let gap_complete, _ = Mixing.spectral_gap complete (Rng.create 1) in
  let gap_ring, _ = Mixing.spectral_gap ring (Rng.create 1) in
  ignore rng;
  Alcotest.(check bool) "complete gap larger" true (gap_complete > gap_ring);
  (* K_n lazy gap = (1 - (-1/(n-1)))/2-ish: just check it is Θ(1) *)
  Alcotest.(check bool) "complete gap big" true (gap_complete > 0.3);
  Alcotest.(check bool) "ring gap small" true (gap_ring < 0.2)

let test_second_eigenvector_splits_barbell () =
  let g = Gen.barbell ~clique:6 ~bridge:0 in
  let vec = Mixing.second_eigenvector ~iters:300 g (Rng.create 11) in
  Alcotest.(check int) "one entry per vertex" (Graph.num_vertices g) (Array.length vec);
  (* the near-Fiedler direction separates the cliques: constant sign
     within each side, opposite signs across the bridge *)
  let sgn x = x >= 0.0 in
  for v = 1 to 5 do
    Alcotest.(check bool) "left side coherent" (sgn vec.(0)) (sgn vec.(v));
    Alcotest.(check bool) "right side coherent" (sgn vec.(6)) (sgn vec.(6 + v))
  done;
  Alcotest.(check bool) "sides are separated" true (sgn vec.(0) <> sgn vec.(6))

let test_cheeger_sandwich () =
  (* gap(lazy) ≤ Φ ≤ sqrt(2·2·gap(lazy)) on graphs we can brute force *)
  let graphs =
    [ Gen.cycle 10; Gen.complete 8; Gen.barbell ~clique:5 ~bridge:0; Gen.grid 3 4 ]
  in
  List.iter
    (fun g ->
      let gap, _ = Mixing.spectral_gap ~iters:500 g (Rng.create 3) in
      let phi, _ = Exact.min_conductance g in
      Alcotest.(check bool) "lower" true (gap <= phi +. 0.02);
      Alcotest.(check bool) "upper" true (phi <= sqrt (4.0 *. Float.max 0.0 gap) +. 0.05))
    graphs

(* ---------- exact enumeration ---------- *)

let test_exact_complete_graph () =
  (* K_6: min conductance cut is the balanced 3-3 split: 9/15 = 0.6 *)
  let phi, witness = Exact.min_conductance (Gen.complete 6) in
  Alcotest.(check (float 1e-9)) "phi" 0.6 phi;
  Alcotest.(check int) "balanced witness" 3 (Array.length witness)

let test_exact_barbell () =
  let g = Gen.barbell ~clique:6 ~bridge:0 in
  let phi, witness = Exact.min_conductance g in
  Alcotest.(check int) "clique side" 6 (Array.length witness);
  Alcotest.(check bool) "tiny" true (phi < 0.04)

let test_most_balanced_sparse_cut () =
  let g = Gen.barbell ~clique:6 ~bridge:0 in
  (match Exact.most_balanced_sparse_cut g ~phi:0.05 with
  | None -> Alcotest.fail "expected a cut"
  | Some (bal, witness) ->
    Alcotest.(check (float 0.01)) "balance 1/2" 0.5 bal;
    Alcotest.(check int) "witness size" 6 (Array.length witness));
  (* no 0.01-sparse cut in K_8 *)
  Alcotest.(check bool) "complete graph has none" true
    (Exact.most_balanced_sparse_cut (Gen.complete 8) ~phi:0.01 = None)

let test_exact_too_large () =
  Alcotest.check_raises "n > 24"
    (Dex_util.Invariant.Violation
       { where = "Exact.enumerate"; what = "graph too large for subset enumeration" })
    (fun () -> ignore (Exact.min_conductance (Gen.cycle 30)))

let prop_mass_conserved_sparse =
  QCheck.Test.make ~name:"sparse step conserves mass (no truncation)" ~count:60
    QCheck.(pair (int_range 3 25) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.connectivize rng (Gen.gnp rng ~n ~p:0.2) in
      let step = Walk.step g ~eps:0.0 in
      let p = ref (Walk.indicator (seed mod n)) in
      for _ = 1 to 5 do
        p := step !p
      done;
      Float.abs (Walk.mass !p -. 1.0) < 1e-9)

(* the untruncated sparse step is the dense step restricted to its
   support, bit for bit, self-loops included. The three families
   exercise both ways a step lists its support: small G(n,p) graphs
   and the 8-regular graphs reach full support (read off the marks),
   while walks on cycles and paths of 30 to 4000 vertices stay below
   n/64 (sorted) for some or all of their 12 steps. *)
let prop_sparse_step_is_dense =
  QCheck.Test.make ~name:"sparse step equals dense step bit for bit" ~count:60
    QCheck.(triple (int_bound 2) (int_range 3 400) (int_bound 10_000))
    (fun (family, size, seed) ->
      let rng = Rng.create seed in
      let g =
        match family with
        | 0 -> Gen.gnp rng ~n:(3 + (size mod 23)) ~p:0.2
        | 1 -> if seed mod 2 = 0 then Gen.cycle (size * 10) else Gen.path (size * 10)
        | _ -> Gen.random_regular rng ~n:128 ~d:8
      in
      let n = Graph.num_vertices g in
      let g = Graph.with_self_loops g (Array.init n (fun _ -> Rng.int rng 3)) in
      let step = Walk.step g ~eps:0.0 in
      let sparse = ref (Walk.indicator (seed mod n)) in
      let dense = ref (sparse_to_dense n !sparse) in
      let same = ref true in
      for _ = 1 to 12 do
        sparse := step !sparse;
        dense := Walk.step_dense g !dense;
        let ids = !sparse.Walk.ids in
        Array.iteri (fun i v -> if i > 0 && ids.(i - 1) >= v then same := false) ids;
        let on_support = sparse_to_dense n !sparse in
        let supported = Array.make n false in
        Array.iter (fun v -> supported.(v) <- true) !sparse.Walk.ids;
        Array.iteri
          (fun v x ->
            let expected = if supported.(v) then on_support.(v) else 0.0 in
            if Int64.bits_of_float x <> Int64.bits_of_float expected then same := false)
          !dense
      done;
      !same)

let () =
  Alcotest.run "spectral"
    [ ( "walk",
        [ Alcotest.test_case "mass conservation" `Quick test_mass_conservation;
          Alcotest.test_case "sparse/dense agree" `Quick test_sparse_dense_agree;
          Alcotest.test_case "self-loop mass returns" `Quick test_self_loop_mass_returns;
          Alcotest.test_case "stationary fixpoint" `Quick test_stationary_fixpoint;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "truncated ≤ exact" `Quick test_truncated_below_exact;
          Alcotest.test_case "rho symmetry (Lemma 3)" `Quick test_rho_symmetry;
          QCheck_alcotest.to_alcotest prop_mass_conserved_sparse;
          QCheck_alcotest.to_alcotest prop_sparse_step_is_dense ] );
      ( "sweep",
        [ Alcotest.test_case "prefix stats match metrics" `Quick test_sweep_cut_matches_metrics;
          Alcotest.test_case "order decreasing" `Quick test_sweep_order_decreasing_rho;
          Alcotest.test_case "finds barbell cut" `Quick test_sweep_finds_barbell_cut;
          Alcotest.test_case "scan_vector boundary" `Quick test_scan_vector_orders_by_value;
          Alcotest.test_case "scratch reuse" `Quick test_sweep_scratch_reuse;
          Alcotest.test_case "best prefix is the first minimum" `Quick
            test_best_prefix_first_minimum ] );
      ( "mixing",
        [ Alcotest.test_case "mixing time ordering" `Quick test_mixing_time_ordering;
          Alcotest.test_case "gap: complete vs ring" `Quick test_spectral_gap_complete_vs_ring;
          Alcotest.test_case "second eigenvector splits barbell" `Quick
            test_second_eigenvector_splits_barbell;
          Alcotest.test_case "cheeger sandwich" `Quick test_cheeger_sandwich ] );
      ( "exact",
        [ Alcotest.test_case "complete graph" `Quick test_exact_complete_graph;
          Alcotest.test_case "barbell" `Quick test_exact_barbell;
          Alcotest.test_case "most balanced sparse cut" `Quick test_most_balanced_sparse_cut;
          Alcotest.test_case "too large raises" `Quick test_exact_too_large ] ) ]
