(* Tests for the Nibble family and the nearly most balanced sparse cut
   (Theorem 3): parameter formulas, the j-sequence, single nibbles on
   planted instances, ParallelNibble's overlap machinery, Partition's
   balance/conductance guarantees, and the baselines. *)

module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Gen = Dex_graph.Generators
module Params = Dex_sparsecut.Params
module Nibble = Dex_sparsecut.Nibble
module Pn = Dex_sparsecut.Parallel_nibble
module Partition = Dex_sparsecut.Partition
module Baselines = Dex_sparsecut.Baselines
module Exact = Dex_spectral.Exact
module Rng = Dex_util.Rng

let mk_params ?(preset = Params.Practical) phi m = Params.make ~preset ~phi ~m ()

(* ---------- params ---------- *)

let test_params_formulas_theory () =
  let p = mk_params ~preset:Params.Theory (1.0 /. 20.0) 1000 in
  (* t0 = 49·ln(1000·e²)/φ² *)
  let expected_t0 = Float.ceil (49.0 *. log (1000.0 *. exp 2.0) /. (0.05 *. 0.05)) in
  Alcotest.(check int) "t0" (int_of_float expected_t0) p.Params.t0;
  Alcotest.(check int) "ell = ceil log2 m" 10 p.Params.ell;
  let expected_gamma = 5.0 *. 0.05 /. (7.0 *. 7.0 *. 8.0 *. log (1000.0 *. exp 4.0)) in
  Alcotest.(check (float 1e-12)) "gamma" expected_gamma p.Params.gamma;
  let expected_f = (0.05 ** 3.0) /. (144.0 *. (log (1000.0 *. exp 4.0) ** 2.0)) in
  Alcotest.(check (float 1e-15)) "f(phi)" expected_f p.Params.f_phi

let test_params_eps_b_halves () =
  let p = mk_params 0.05 1000 in
  for b = 1 to p.Params.ell - 1 do
    let r = Params.eps_b p b /. Params.eps_b p (b + 1) in
    Alcotest.(check (float 1e-9)) "eps_b ratio 2" 2.0 r
  done;
  Alcotest.check_raises "b out of range"
    (Dex_util.Invariant.Violation { where = "Params.eps_b"; what = "1 <= b <= ell" })
    (fun () -> ignore (Params.eps_b p 0))

let test_params_validation () =
  let phi_range =
    Dex_util.Invariant.Violation { where = "Params.make"; what = "phi in (0, 1/12]" }
  in
  Alcotest.check_raises "phi too large" phi_range (fun () -> ignore (mk_params 0.2 100));
  Alcotest.check_raises "phi zero" phi_range (fun () -> ignore (mk_params 0.0 100))

let test_params_caps () =
  let p = mk_params 0.05 1_000_000 in
  Alcotest.(check bool) "practical t0 capped" true (p.Params.t0 <= 20_000);
  let copies = Params.parallel_copies p ~volume:2_000_000 in
  Alcotest.(check bool) "copies within cap" true (copies >= 1 && copies <= p.Params.parallel_cap);
  let iters = Params.partition_iterations p ~volume:2_000_000 ~p:0.01 in
  Alcotest.(check bool) "iterations within cap" true (iters >= 1 && iters <= p.Params.partition_cap);
  let w = Params.overlap_bound p ~volume:2_000_000 in
  Alcotest.(check int) "w = 10 ceil ln vol" (10 * 15) w

let test_h_inverse_roundtrip () =
  let n = 1024 in
  let theta = 0.3 in
  (* h_inverse(h(θ)) = θ: the ladder φ_i = h⁻¹(φ_{i-1}) inverts h *)
  Alcotest.(check (float 1e-9)) "roundtrip" theta (Params.h_inverse ~n (Params.h ~n theta));
  Alcotest.(check bool) "h increasing" true (Params.h ~n 0.4 > Params.h ~n 0.3);
  Alcotest.(check bool) "h_inverse contracts small θ" true (Params.h_inverse ~n 0.1 < 0.1)

(* the intended identity test, spelled directly *)
let test_sweep_schedule () =
  let p = mk_params 0.05 1000 in
  (* practical stride 16: early window plus every 16th step *)
  Alcotest.(check bool) "early window" true (Params.should_sweep p 7);
  Alcotest.(check bool) "stride multiple" true (Params.should_sweep p 160);
  Alcotest.(check bool) "skipped step" false (Params.should_sweep p 161);
  let theory = mk_params ~preset:Params.Theory 0.05 1000 in
  Alcotest.(check bool) "theory checks every step" true (Params.should_sweep theory 161)

let test_relaxed_factor_presets () =
  let practical = mk_params 0.05 1000 in
  let theory = mk_params ~preset:Params.Theory 0.05 1000 in
  Alcotest.(check (float 1e-9)) "practical 3" 3.0 practical.Params.c1_relaxed_factor;
  Alcotest.(check (float 1e-9)) "theory 12 (the paper's C.1-star)" 12.0
    theory.Params.c1_relaxed_factor

let test_practical_output_within_3phi () =
  (* with the practical preset every non-empty output obeys the
     tightened C.1-star: conductance <= 3 phi *)
  let rng = Rng.create 77 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:50 ~p:0.15) in
  let phi = 1.0 /. 20.0 in
  let params = mk_params phi (Graph.num_edges g) in
  for seed = 1 to 6 do
    let outcome = Nibble.approximate params g ~src:(seed * 7 mod 50) ~b:1 in
    match outcome.Nibble.result with
    | None -> ()
    | Some cut ->
      Alcotest.(check bool) "<= 3 phi" true (cut.Nibble.conductance <= (3.0 *. phi) +. 1e-9)
  done

let test_h_identity () =
  let n = 512 in
  let theta = 0.12 in
  let lf = log (float_of_int n) in
  Alcotest.(check (float 1e-9)) "h" ((theta ** (1.0 /. 3.0)) *. (lf ** (5.0 /. 3.0)))
    (Params.h ~n theta);
  Alcotest.(check (float 1e-9)) "h_inverse" (theta ** 3.0 /. (lf ** 5.0))
    (Params.h_inverse ~n theta)

(* ---------- single nibbles ---------- *)

let test_nibble_finds_planted_cut () =
  let g = Gen.barbell ~clique:16 ~bridge:0 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let outcome = Nibble.approximate params g ~src:0 ~b:3 in
  match outcome.Nibble.result with
  | None -> Alcotest.fail "nibble should find the barbell cut"
  | Some cut ->
    Alcotest.(check bool) "conductance within 12φ" true
      (cut.Nibble.conductance <= 12.0 /. 16.0 +. 1e-9);
    Alcotest.(check bool) "nontrivial" true (Array.length cut.Nibble.vertices >= 2)

let test_nibble_matches_exact_variant () =
  (* both variants find sparse cuts on the same instance *)
  let g = Gen.barbell ~clique:12 ~bridge:2 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let a = Nibble.nibble params g ~src:0 ~b:2 in
  let b = Nibble.approximate params g ~src:0 ~b:2 in
  Alcotest.(check bool) "exact finds" true (a.Nibble.result <> None);
  Alcotest.(check bool) "approximate finds" true (b.Nibble.result <> None)

let test_nibble_cut_conductance_bound () =
  (* every non-empty output satisfies Φ(C) ≤ 12φ (C.1 or C.1-star) *)
  let rng = Rng.create 31 in
  for seed = 1 to 8 do
    let g = Gen.connectivize rng (Gen.gnp rng ~n:40 ~p:0.1) in
    let params = mk_params (1.0 /. 14.0) (Graph.num_edges g) in
    let src = seed mod 40 in
    let outcome = Nibble.approximate params g ~src ~b:(1 + (seed mod 3)) in
    match outcome.Nibble.result with
    | None -> ()
    | Some cut ->
      Alcotest.(check bool) "≤ 12φ" true (cut.Nibble.conductance <= 12.0 /. 14.0 +. 1e-9);
      (* C.3: volume ceiling *)
      Alcotest.(check bool) "volume ceiling" true
        (12 * cut.Nibble.volume <= 11 * Graph.total_volume g + 12)
  done

let test_nibble_participants_cover_cut () =
  let g = Gen.barbell ~clique:10 ~bridge:0 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let outcome = Nibble.approximate params g ~src:0 ~b:2 in
  (match outcome.Nibble.result with
  | None -> Alcotest.fail "expected cut"
  | Some cut ->
    let members = Hashtbl.create 32 in
    Array.iter (fun v -> Hashtbl.replace members v ()) outcome.Nibble.participants;
    Array.iter
      (fun v -> Alcotest.(check bool) "cut ⊆ participants" true (Hashtbl.mem members v))
      cut.Nibble.vertices);
  Alcotest.(check bool) "rounds positive" true (outcome.Nibble.rounds > 0);
  Alcotest.(check bool) "steps ≤ t0" true (outcome.Nibble.steps_executed <= params.Params.t0)

(* P-star of Definition 2 as an edge list: the edges with at least one
   endpoint among the participants, normalized (u <= v), ascending and
   without repeats; the oracle for ParallelNibble's overlap count *)
let participating_edges g (outcome : Nibble.outcome) =
  let mask = Metrics.mask_of g outcome.Nibble.participants in
  let acc = ref [] in
  Array.iter
    (fun v ->
      Graph.iter_neighbors g v (fun u ->
          if u > v || not mask.(u) then acc := (min u v, max u v) :: !acc))
    outcome.Nibble.participants;
  (* parallel edges yield the same pair more than once *)
  List.sort_uniq compare !acc

let test_participating_edges_incident () =
  let g = Gen.cycle 10 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let outcome = Nibble.approximate params g ~src:0 ~b:1 in
  let edges = participating_edges g outcome in
  let members = Hashtbl.create 32 in
  Array.iter (fun v -> Hashtbl.replace members v ()) outcome.Nibble.participants;
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "incident" true (Hashtbl.mem members u || Hashtbl.mem members v);
      Alcotest.(check bool) "normalized" true (u <= v))
    edges;
  (* no duplicates *)
  let sorted = List.sort compare edges in
  Alcotest.(check int) "deduplicated" (List.length sorted)
    (List.length (List.sort_uniq compare sorted))

let test_nibble_on_isolated_vertex () =
  let g = Graph.of_edges ~n:3 [ (1, 2) ] in
  let params = mk_params (1.0 /. 16.0) 4 in
  let outcome = Nibble.approximate params g ~src:0 ~b:1 in
  Alcotest.(check bool) "no cut from isolated src" true (outcome.Nibble.result = None)

(* Lemma 3: Vol(Z_{u,phi,b}) <= (t0+1)/(2 eps_b), where Z is the set
   of start vertices whose walk puts rho_t(u) >= 2 eps_b mass on u at
   some t <= t0. Verified exhaustively on a small graph with a custom
   (shortened) walk length — eps_b rescales with t0 through the record
   field, so the inequality is tested in its exact form. *)
let test_lemma3_z_volume_bound () =
  let rng = Rng.create 83 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:18 ~p:0.25) in
  let base = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let params = { base with Params.t0 = 12 } in
  let b = 2 in
  let eps = Params.eps_b params b in
  let t0 = params.Params.t0 in
  (* all walks from all starts, exact (un-truncated) *)
  let walks =
    Array.init 18 (fun v ->
        let p = ref (Array.init 18 (fun u -> if u = v then 1.0 else 0.0)) in
        Array.init (t0 + 1) (fun t ->
            if t = 0 then !p
            else begin
              p := Dex_spectral.Walk.step_dense g !p;
              !p
            end))
  in
  for u = 0 to 17 do
    let z_volume = ref 0 in
    for v = 0 to 17 do
      let member = ref false in
      for t = 0 to t0 do
        let rho = walks.(v).(t).(u) /. float_of_int (max 1 (Graph.degree g u)) in
        if rho >= 2.0 *. eps then member := true
      done;
      if !member then z_volume := !z_volume + Graph.degree g v
    done;
    let bound = float_of_int (t0 + 1) /. (2.0 *. eps) in
    Alcotest.(check bool)
      (Printf.sprintf "Vol(Z_u) for u=%d: %d <= %.1f" u !z_volume bound)
      true
      (float_of_int !z_volume <= bound)
  done

let test_c3_volume_floor () =
  (* any returned cut respects the C.3 floor Vol >= (5/7) 2^{b-1} *)
  let g = Gen.barbell ~clique:16 ~bridge:0 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  List.iter
    (fun b ->
      let outcome = Nibble.approximate params g ~src:0 ~b in
      match outcome.Nibble.result with
      | None -> ()
      | Some cut ->
        Alcotest.(check bool)
          (Printf.sprintf "b=%d floor" b)
          true
          (float_of_int cut.Nibble.volume >= 5.0 /. 7.0 *. (2.0 ** float_of_int (b - 1))))
    [ 1; 3; 5; 7 ]

(* ---------- parallel nibble ---------- *)

let test_random_nibble_runs () =
  let rng = Rng.create 17 in
  let g = Gen.dumbbell rng ~n1:30 ~n2:30 ~d:4 ~bridges:1 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let outcome = Pn.random_nibble params g rng in
  Alcotest.(check bool) "b in range" true (outcome.Nibble.b >= 1 && outcome.Nibble.b <= params.Params.ell);
  Alcotest.(check bool) "src in range" true
    (outcome.Nibble.src >= 0 && outcome.Nibble.src < Graph.num_vertices g)

let test_parallel_nibble_union_volume () =
  let rng = Rng.create 19 in
  let g = Gen.dumbbell rng ~n1:30 ~n2:30 ~d:4 ~bridges:1 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = Pn.run ~k:4 params g rng in
  Alcotest.(check int) "copies" 4 r.Pn.copies;
  if not r.Pn.aborted then begin
    let vol = Graph.volume g r.Pn.cut in
    Alcotest.(check bool) "≤ 23/24 Vol" true (24 * vol <= 23 * Graph.total_volume g)
  end;
  Alcotest.(check bool) "rounds positive" true (r.Pn.rounds > 0);
  Alcotest.(check int) "all nibbles recorded" 4 (List.length r.Pn.nibbles)

let test_parallel_nibble_overlap_detection () =
  (* many copies on a tiny graph force heavy P-star overlap *)
  let g = Gen.barbell ~clique:6 ~bridge:0 in
  let rng = Rng.create 23 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = Pn.run ~k:200 params g rng in
  Alcotest.(check bool) "overlap observed" true (r.Pn.max_overlap > 10);
  (* w = 10·ceil(ln Vol) ≈ 40: 200 copies on 32 edges must abort *)
  Alcotest.(check bool) "aborted" true r.Pn.aborted;
  Alcotest.(check (array int)) "empty cut on abort" [||] r.Pn.cut

(* the most copies sharing one edge, recounted from the edge lists *)
let recount_overlap g nibbles =
  let counts = Hashtbl.create 64 in
  List.fold_left
    (fun best o ->
      List.fold_left
        (fun best e ->
          let c = 1 + Option.value ~default:0 (Hashtbl.find_opt counts e) in
          Hashtbl.replace counts e c;
          max best c)
        best (participating_edges g o))
    0 nibbles

let prop_overlap_matches_edge_lists =
  QCheck.Test.make ~name:"max_overlap recounts from P-star edge lists" ~count:40
    QCheck.(triple (int_range 6 30) (int_range 1 12) (int_bound 10_000))
    (fun (n, k, seed) ->
      let rng = Rng.create seed in
      let base = Gen.connectivize rng (Gen.gnp rng ~n ~p:0.2) in
      (* odd seeds double every third edge: a parallel pair counts once per copy *)
      let edges = Graph.edges base in
      let doubled = if seed mod 2 = 1 then List.filteri (fun i _ -> i mod 3 = 0) edges else [] in
      let g = Graph.of_edges ~n (edges @ doubled) in
      let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
      let r = Pn.run ~k params g rng in
      r.Pn.max_overlap = recount_overlap g r.Pn.nibbles)

(* ---------- partition (Theorem 3) ---------- *)

let test_partition_balanced_cut_dumbbell () =
  let rng = Rng.create 29 in
  let g = Gen.dumbbell rng ~n1:60 ~n2:60 ~d:6 ~bridges:2 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = Partition.run params g rng in
  Alcotest.(check bool) "found" true (Array.length r.Partition.cut > 0);
  (* Theorem 3: bal(C) ≥ min(b/2, 1/48); planted b ≈ 1/2 *)
  Alcotest.(check bool) "balance ≥ 1/48" true (r.Partition.balance >= 1.0 /. 48.0);
  (* conductance within h(φ) = φ^{1/3}·log^{5/3} n (generous) *)
  let bound = Params.h ~n:(Graph.num_vertices g) (1.0 /. 16.0) in
  Alcotest.(check bool) "conductance bounded" true (r.Partition.conductance <= bound)

let test_partition_unbalanced_planted_cut () =
  let rng = Rng.create 31 in
  (* balance b ≈ 60/(60+300) = 1/6; guarantee is ≥ min(b/2, 1/48) = 1/48 *)
  let g = Gen.dumbbell rng ~n1:60 ~n2:300 ~d:6 ~bridges:2 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = Partition.run params g rng in
  Alcotest.(check bool) "found" true (Array.length r.Partition.cut > 0);
  Alcotest.(check bool) "balance ≥ 1/48" true (r.Partition.balance >= 1.0 /. 48.0)

let test_partition_volume_ceiling () =
  let rng = Rng.create 37 in
  let g = Gen.cliques_chain ~cliques:6 ~size:10 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = Partition.run params g rng in
  let vol = Graph.volume g r.Partition.cut in
  Alcotest.(check bool) "Vol(C) ≤ 47/48 Vol(V)" true (48 * vol <= 47 * Graph.total_volume g)

let test_partition_expander_no_false_positive () =
  let rng = Rng.create 41 in
  let g = Gen.random_regular rng ~n:128 ~d:8 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = Partition.run params g rng in
  (* Theorem 3 case 2: ∅ or a cut within the h bound *)
  if Array.length r.Partition.cut > 0 then begin
    let bound = Params.h ~n:128 (1.0 /. 16.0) in
    Alcotest.(check bool) "within h bound" true (r.Partition.conductance <= bound)
  end

let test_partition_empty_graph () =
  let g = Graph.empty 5 in
  let params = mk_params (1.0 /. 16.0) 1 in
  let r = Partition.run params g (Rng.create 1) in
  Alcotest.(check bool) "certified" true (Partition.certified_no_sparse_cut r);
  Alcotest.(check int) "zero rounds" 0 r.Partition.rounds

let test_partition_respects_most_balanced_reference () =
  (* on a small graph compare against the exact most balanced cut *)
  let g = Gen.barbell ~clique:8 ~bridge:0 in
  let phi = 1.0 /. 16.0 in
  let params = mk_params phi (Graph.num_edges g) in
  let r = Partition.run params g (Rng.create 43) in
  match Exact.most_balanced_sparse_cut g ~phi with
  | None -> Alcotest.fail "barbell must have a sparse cut"
  | Some (b, _) ->
    Alcotest.(check bool) "Theorem 3 balance" true
      (r.Partition.balance >= Float.min (b /. 2.0) (1.0 /. 48.0) -. 1e-9)

(* ---------- run_verified (Las Vegas wrapper) ---------- *)

let test_run_verified_accepts_dumbbell () =
  let rng = Rng.create 53 in
  let g = Gen.dumbbell rng ~n1:60 ~n2:60 ~d:6 ~bridges:2 in
  let phi = 1.0 /. 16.0 in
  let params = mk_params phi (Graph.num_edges g) in
  let bound = Params.h ~n:(Graph.num_vertices g) phi in
  match Partition.run_verified ~attempts:3 ~bound params g rng with
  | Error _ -> Alcotest.fail "dumbbell run should certify within 3 attempts"
  | Ok o ->
    Alcotest.(check bool) "acceptable" true (Partition.acceptable ~bound o.Partition.value);
    Alcotest.(check bool) "attempts in budget" true
      (o.Partition.attempts >= 1 && o.Partition.attempts <= 3);
    Alcotest.(check bool) "rounds summed" true
      (o.Partition.rounds_total >= o.Partition.value.Partition.rounds)

let test_run_verified_reports_best_on_failure () =
  let rng = Rng.create 59 in
  let g = Gen.dumbbell rng ~n1:40 ~n2:40 ~d:6 ~bridges:2 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  (* an absurd bound no non-empty cut can meet: every attempt fails,
     but the wrapper must return its best attempt with full context *)
  match Partition.run_verified ~attempts:2 ~bound:1e-9 params g rng with
  | Ok o when Partition.certified_no_sparse_cut o.Partition.value ->
    (* certified-empty is acceptable by definition; nothing to check *)
    ()
  | Ok _ -> Alcotest.fail "a non-empty cut cannot meet a 1e-9 bound"
  | Error e ->
    Alcotest.(check int) "used full budget" 2 e.Partition.attempts;
    Alcotest.(check bool) "best attempt carried" true
      (Array.length e.Partition.value.Partition.cut > 0);
    Alcotest.(check bool) "rounds accumulated" true
      (e.Partition.rounds_total >= e.Partition.value.Partition.rounds)

let test_run_verified_validation () =
  let g = Gen.barbell ~clique:6 ~bridge:0 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  Alcotest.check_raises "attempts must be >= 1"
    (Dex_util.Invariant.Violation { where = "Partition.run_verified"; what = "attempts >= 1" })
    (fun () ->
      ignore (Partition.run_verified ~attempts:0 ~bound:1.0 params g (Rng.create 1)))

(* ---------- ACL personalized PageRank ---------- *)

module Ppr = Dex_sparsecut.Pagerank_cut

let test_ppr_invariants () =
  let rng = Rng.create 91 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:40 ~p:0.12) in
  let m = Graph.num_edges g in
  let eps = 1.0 /. (20.0 *. float_of_int m) in
  let p, r, pushes = Ppr.approximate_pagerank ~eps g ~src:5 in
  Alcotest.(check bool) "pushed" true (pushes > 0);
  (* termination invariant: every residual is below eps·deg *)
  Array.iteri
    (fun v rv ->
      Alcotest.(check bool)
        (Printf.sprintf "residual at %d" v)
        true
        (rv < eps *. float_of_int (Graph.degree g v) +. 1e-12))
    r;
  (* mass conservation: p + r sums to 1 *)
  let total =
    Array.fold_left ( +. ) 0.0 p +. Array.fold_left ( +. ) 0.0 r
  in
  Alcotest.(check (float 1e-9)) "mass" 1.0 total

let test_ppr_finds_barbell_cut () =
  let g = Gen.barbell ~clique:12 ~bridge:0 in
  match Ppr.run g ~src:0 with
  | None -> Alcotest.fail "expected a cut"
  | Some c ->
    Alcotest.(check bool) "sparse" true (c.Ppr.conductance < 0.05);
    Alcotest.(check int) "the seed clique" 12 (Array.length c.Ppr.cut);
    Alcotest.(check bool) "support local" true (c.Ppr.support <= 24)

let test_ppr_validation () =
  let g = Gen.path 4 in
  Alcotest.check_raises "alpha"
    (Dex_util.Invariant.Violation
       { where = "Pagerank_cut.approximate_pagerank"; what = "alpha in (0, 1)" })
    (fun () -> ignore (Ppr.run ~alpha:1.5 g ~src:0))

(* ---------- executed walk protocol ---------- *)

module Wp = Dex_sparsecut.Walk_protocol
module Walk = Dex_spectral.Walk
module Network = Dex_congest.Network
module Rounds = Dex_congest.Rounds

let test_walk_protocol_matches_central () =
  let rng = Rng.create 71 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:30 ~p:0.15) in
  let eps = 1e-5 and steps = 8 in
  let net = Network.create g (Rounds.create ()) in
  let protocol, rounds = Wp.run net ~src:3 ~eps ~steps in
  Alcotest.(check int) "rounds = steps + 1" (steps + 1) rounds;
  let central = (Walk.truncated_walk g ~src:3 ~eps ~steps).(steps) in
  Alcotest.(check (array int)) "same support" central.Walk.ids protocol.Walk.ids;
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-12)) (Printf.sprintf "mass at %d" v) central.Walk.mass.(i)
        protocol.Walk.mass.(i))
    central.Walk.ids

let test_walk_protocol_with_self_loops () =
  (* the saturated-subgraph case: self-loops keep their share *)
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 0) ] in
  let net = Network.create g (Rounds.create ()) in
  let p, _ = Wp.run net ~src:0 ~eps:0.0 ~steps:1 in
  (* deg 0 = 2 (loop + edge): stays 1/2 + loop 1/4 = 3/4; sends 1/4 *)
  Alcotest.(check (array int)) "support" [| 0; 1 |] p.Walk.ids;
  Alcotest.(check (float 1e-12)) "stay" 0.75 p.Walk.mass.(0);
  Alcotest.(check (float 1e-12)) "move" 0.25 p.Walk.mass.(1)

let test_walk_protocol_charges_ledger () =
  let g = Gen.cycle 8 in
  let ledger = Rounds.create () in
  let net = Network.create g ledger in
  let _ = Wp.run net ~src:0 ~eps:1e-6 ~steps:5 in
  Alcotest.(check int) "ledger charged" 6 (Rounds.total ledger)

(* ---------- recorded walk oracle ---------- *)

(* golden/walks.json holds what the hash-table walk observed on three
   graphs: every truncated-walk distribution, exact and approximate
   nibble outcomes for b = 1, 2 and Partition for seeds 1-3. Floats are
   recorded with %h, so the comparison is bit for bit. *)

module Json = Dex_obs.Json

let golden_graphs () =
  let rng = Rng.create 11 in
  let gnp = Gen.connectivize rng (Gen.gnp rng ~n:40 ~p:0.12) in
  let barbell = Gen.barbell ~clique:8 ~bridge:2 in
  let pp = Gen.planted_partition (Rng.create 12) ~parts:3 ~size:12 ~p_in:0.5 ~p_out:0.02 in
  let saturated, _ = Graph.saturated_subgraph pp (Array.init 26 (fun v -> v)) in
  [ ("gnp", gnp); ("barbell", barbell); ("saturated", saturated) ]

let test_walks_golden () =
  let ic = open_in_bin
      (Filename.concat (Filename.dirname Sys.executable_name) "golden/walks.json") in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let records = match Json.parse text with Ok (Json.List l) -> l | _ -> assert false in
  let get key r = Option.get (Json.member key r) in
  let list key r = Option.get (Json.to_list (get key r)) in
  let int key r = Option.get (Json.to_int (get key r)) in
  let ints key r = Array.of_list (List.map (fun x -> Option.get (Json.to_int x)) (list key r)) in
  let hexes key r = List.map (fun x -> Option.get (Json.to_str x)) (list key r) in
  let hex x = Printf.sprintf "%h" x in
  let graphs = golden_graphs () in
  Alcotest.(check bool) "saturated graph has self-loops" true
    (let g = List.assoc "saturated" graphs in
     List.exists (fun v -> Graph.self_loops g v > 0) (List.init (Graph.num_vertices g) Fun.id));
  List.iter
    (fun r ->
      let name = Option.get (Json.to_str (get "graph" r)) in
      let g = List.assoc name graphs in
      let label what = Printf.sprintf "%s %s" name what in
      let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
      let walks = Walk.truncated_walk g ~src:0 ~eps:1e-3 ~steps:12 in
      List.iteri
        (fun t w ->
          let p = walks.(t) in
          let label what = label (Printf.sprintf "walk t=%d %s" t what) in
          Alcotest.(check (array int)) (label "ids") (ints "ids" w) p.Walk.ids;
          Alcotest.(check (list string)) (label "mass") (hexes "mass" w)
            (Array.to_list (Array.map hex p.Walk.mass)))
        (list "truncated_walk" r);
      let check_outcomes variant run =
        List.iter
          (fun rec_b ->
            let b = int "b" rec_b in
            let o = run params g ~src:0 ~b in
            let e = get "outcome" rec_b in
            let label what = label (Printf.sprintf "%s b=%d %s" variant b what) in
            (match (get "result" e, o.Nibble.result) with
            | Json.Null, None -> ()
            | Json.Null, Some _ | _, None -> Alcotest.fail (label "result presence")
            | c, Some found ->
              Alcotest.(check (array int)) (label "vertices") (ints "vertices" c)
                found.Nibble.vertices;
              Alcotest.(check int) (label "found_t") (int "found_t" c) found.Nibble.found_t;
              Alcotest.(check int) (label "found_j") (int "found_j" c) found.Nibble.found_j;
              Alcotest.(check string) (label "conductance")
                (Option.get (Json.to_str (get "conductance" c))) (hex found.Nibble.conductance));
            Alcotest.(check int) (label "steps") (int "steps_executed" e) o.Nibble.steps_executed;
            Alcotest.(check int) (label "candidates") (int "candidates_tested" e)
              o.Nibble.candidates_tested;
            Alcotest.(check int) (label "rounds") (int "rounds" e) o.Nibble.rounds;
            Alcotest.(check (array int)) (label "participants") (ints "participants" e)
              o.Nibble.participants)
          (list variant r)
      in
      check_outcomes "nibble" Nibble.nibble;
      check_outcomes "approximate" Nibble.approximate;
      List.iter
        (fun e ->
          let seed = int "seed" e in
          let res = Partition.run params g (Rng.create seed) in
          let label what = label (Printf.sprintf "partition seed %d %s" seed what) in
          Alcotest.(check (array int)) (label "cut") (ints "cut" e) res.Partition.cut;
          Alcotest.(check string) (label "conductance")
            (Option.get (Json.to_str (get "conductance" e))) (hex res.Partition.conductance);
          Alcotest.(check int) (label "rounds") (int "rounds" e) res.Partition.rounds)
        (list "partition" r))
    records

(* ---------- sequential ST reference ---------- *)

module St = Dex_sparsecut.St_reference

let test_st_reference_dumbbell () =
  let rng = Rng.create 59 in
  let g = Gen.dumbbell rng ~n1:50 ~n2:50 ~d:6 ~bridges:1 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = St.run params g (Rng.create 61) in
  Alcotest.(check bool) "found a cut" true (Array.length r.St.cut > 0);
  Alcotest.(check bool) "volume ceiling" true
    (48 * Graph.volume g r.St.cut <= 47 * Graph.total_volume g);
  Alcotest.(check bool) "rounds accumulate" true (r.St.rounds > 0);
  Alcotest.(check bool) "nibbles counted" true (r.St.nibbles >= 1)

let test_st_reference_empty () =
  let params = mk_params (1.0 /. 16.0) 1 in
  let r = St.run params (Graph.empty 4) (Rng.create 1) in
  Alcotest.(check int) "no cut" 0 (Array.length r.St.cut);
  Alcotest.(check int) "no rounds" 0 r.St.rounds

let test_st_reference_max_nibbles () =
  let rng = Rng.create 67 in
  let g = Gen.cliques_chain ~cliques:6 ~size:8 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = St.run ~max_nibbles:2 params g rng in
  Alcotest.(check bool) "bounded" true (r.St.nibbles <= 2)

(* ---------- baselines ---------- *)

let test_spectral_baseline_dumbbell () =
  let rng = Rng.create 47 in
  let g = Gen.dumbbell rng ~n1:40 ~n2:40 ~d:4 ~bridges:1 in
  match Baselines.spectral g (Rng.create 48) with
  | None -> Alcotest.fail "spectral should always return a cut"
  | Some c ->
    Alcotest.(check bool) "sparse" true (c.Baselines.conductance < 0.1);
    Alcotest.(check bool) "balanced here" true (c.Baselines.balance > 0.3)

let test_dsmp_baseline_runs () =
  let rng = Rng.create 53 in
  let g = Gen.dumbbell rng ~n1:40 ~n2:40 ~d:4 ~bridges:1 in
  match Baselines.dsmp ~walk_length:200 g (Rng.create 54) with
  | None -> Alcotest.fail "dsmp returns a cut on a connected graph"
  | Some c ->
    Alcotest.(check int) "rounds = walk length" 200 c.Baselines.rounds;
    Alcotest.(check bool) "conductance recorded" true (Float.is_finite c.Baselines.conductance)

let prop_nibble_output_is_sparse =
  QCheck.Test.make ~name:"non-empty nibble output obeys C.1/C.1-star" ~count:25
    QCheck.(pair (int_range 10 40) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.connectivize rng (Gen.gnp rng ~n ~p:0.15) in
      let params = mk_params (1.0 /. 13.0) (max 1 (Graph.num_edges g)) in
      let outcome = Nibble.approximate params g ~src:(seed mod n) ~b:1 in
      match outcome.Nibble.result with
      | None -> true
      | Some cut -> cut.Nibble.conductance <= (12.0 /. 13.0) +. 1e-9)

let () =
  Alcotest.run "sparsecut"
    [ ( "params",
        [ Alcotest.test_case "theory formulas" `Quick test_params_formulas_theory;
          Alcotest.test_case "eps_b halves" `Quick test_params_eps_b_halves;
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "caps" `Quick test_params_caps;
          Alcotest.test_case "sweep schedule" `Quick test_sweep_schedule;
          Alcotest.test_case "relaxed factor presets" `Quick test_relaxed_factor_presets;
          Alcotest.test_case "practical 3phi bound" `Quick test_practical_output_within_3phi;
          Alcotest.test_case "h / h_inverse identity" `Quick test_h_identity;
          Alcotest.test_case "h roundtrip" `Quick test_h_inverse_roundtrip ] );
      ( "nibble",
        [ Alcotest.test_case "finds planted cut" `Quick test_nibble_finds_planted_cut;
          Alcotest.test_case "variants agree" `Quick test_nibble_matches_exact_variant;
          Alcotest.test_case "conductance bound" `Quick test_nibble_cut_conductance_bound;
          Alcotest.test_case "participants cover cut" `Quick test_nibble_participants_cover_cut;
          Alcotest.test_case "participating edges" `Quick test_participating_edges_incident;
          Alcotest.test_case "isolated source" `Quick test_nibble_on_isolated_vertex;
          Alcotest.test_case "Lemma 3 volume bound" `Quick test_lemma3_z_volume_bound;
          Alcotest.test_case "C.3 volume floor" `Quick test_c3_volume_floor;
          QCheck_alcotest.to_alcotest prop_nibble_output_is_sparse ] );
      ( "parallel-nibble",
        [ Alcotest.test_case "random nibble" `Quick test_random_nibble_runs;
          Alcotest.test_case "union volume ceiling" `Quick test_parallel_nibble_union_volume;
          Alcotest.test_case "overlap abort" `Quick test_parallel_nibble_overlap_detection;
          QCheck_alcotest.to_alcotest prop_overlap_matches_edge_lists ] );
      ( "partition",
        [ Alcotest.test_case "balanced dumbbell" `Quick test_partition_balanced_cut_dumbbell;
          Alcotest.test_case "unbalanced dumbbell" `Quick test_partition_unbalanced_planted_cut;
          Alcotest.test_case "volume ceiling" `Quick test_partition_volume_ceiling;
          Alcotest.test_case "expander case" `Quick test_partition_expander_no_false_positive;
          Alcotest.test_case "empty graph" `Quick test_partition_empty_graph;
          Alcotest.test_case "balance vs exact reference" `Quick
            test_partition_respects_most_balanced_reference ] );
      ( "run-verified",
        [ Alcotest.test_case "accepts dumbbell" `Quick test_run_verified_accepts_dumbbell;
          Alcotest.test_case "best attempt on failure" `Quick
            test_run_verified_reports_best_on_failure;
          Alcotest.test_case "validation" `Quick test_run_verified_validation ] );
      ( "pagerank",
        [ Alcotest.test_case "push invariants" `Quick test_ppr_invariants;
          Alcotest.test_case "finds barbell cut" `Quick test_ppr_finds_barbell_cut;
          Alcotest.test_case "validation" `Quick test_ppr_validation ] );
      ( "walk-protocol",
        [ Alcotest.test_case "matches central computation" `Quick
            test_walk_protocol_matches_central;
          Alcotest.test_case "self loops" `Quick test_walk_protocol_with_self_loops;
          Alcotest.test_case "ledger" `Quick test_walk_protocol_charges_ledger ] );
      ("golden", [ Alcotest.test_case "walks" `Quick test_walks_golden ]);
      ( "st-reference",
        [ Alcotest.test_case "dumbbell" `Quick test_st_reference_dumbbell;
          Alcotest.test_case "empty" `Quick test_st_reference_empty;
          Alcotest.test_case "max nibbles" `Quick test_st_reference_max_nibbles ] );
      ( "baselines",
        [ Alcotest.test_case "spectral dumbbell" `Quick test_spectral_baseline_dumbbell;
          Alcotest.test_case "dsmp runs" `Quick test_dsmp_baseline_runs ] ) ]
