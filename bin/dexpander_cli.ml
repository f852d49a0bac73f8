(* dexpander — command-line front end.

   Subcommands:
     generate     describe a generated graph
     decompose    run the (ε, φ)-expander decomposition (Theorem 1)
     sparse-cut   run the nearly most balanced sparse cut (Theorem 3)
     ldd          run the low-diameter decomposition (Theorem 4)
     triangles    enumerate triangles via expander decomposition (Theorem 2)
     faults       reliable BFS/leader election on a lossy network
     throughput   kernel round throughput on a BFS flood
     trace        one algorithm under structured tracing: span tree, hot edges
     conformance  replay reference protocols under permuted schedules

   Every subcommand reads its graph through one term ([graph_t]):
   generated on demand with --family gnp/sbm/barbell/dumbbell/grid/
   powerlaw/regular/cliques/tree/cycle/path and family-specific knobs,
   or loaded from an edge-list file with --file; it is printed
   ([describe]) before the subcommand runs.

   Values are checked at parse time, in the theorems' domains: -k,
   --attempts, --retries, --parts and --word-size at least 1;
   --epsilon and --beta in (0,1); --phi in (0,1/12]; -p, --p-in,
   --p-out, --drop and --dup in [0,1]; --degree at least 1 for
   --family powerlaw, below -n for --family regular (with n·d even)
   and below each half of -n for --family dumbbell. Anything else is a
   usage error (exit 124). The linter has its own front end,
   tools/lint/dex_lint.exe. *)

open Cmdliner
module X = Dexpander

(* one check per option: a value outside [ok] is a usage error (exit
   124, naming the option), never an exception out of the library *)
let checked conv ~ok expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg ("expected " ^ expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let pos_int = checked Arg.int ~ok:(fun v -> v >= 1) "a positive integer"
let unit_open = checked Arg.float ~ok:(fun x -> x > 0.0 && x < 1.0) "a number in (0,1)"
let prob = checked Arg.float ~ok:(fun x -> x >= 0.0 && x <= 1.0) "a probability in [0,1]"

let families =
  [ ("gnp", `Gnp); ("sbm", `Sbm); ("barbell", `Barbell); ("dumbbell", `Dumbbell);
    ("grid", `Grid); ("powerlaw", `Powerlaw); ("regular", `Regular);
    ("cliques", `Cliques); ("tree", `Tree); ("cycle", `Cycle); ("path", `Path) ]

let describe g =
  Printf.printf "graph: n=%d m=%d (plain %d), degeneracy=%d, connected=%b\n"
    (X.Graph.num_vertices g) (X.Graph.num_edges g) (X.Graph.num_plain_edges g)
    (X.Metrics.degeneracy g)
    (X.Metrics.is_connected g)

let make_graph family file n seed p parts p_in p_out degree =
  let rng = X.Rng.create (seed + 7919) in
  let g =
    match file with
    | Some path -> (
      (* a bad edge list is the user's input error, not a crash: name
         the file and exit 1 (Sys_error's message already starts with
         the path) *)
      try X.Graph_io.load path with
      | Failure msg ->
        Printf.eprintf "dexpander: %s: %s\n" path msg;
        exit 1
      | Sys_error msg ->
        Printf.eprintf "dexpander: %s\n" msg;
        exit 1)
    | None ->
    match family with
    | `Gnp -> X.Generators.gnp rng ~n ~p
    | `Sbm ->
      let size = max 1 (n / parts) in
      X.Generators.planted_partition rng ~parts ~size ~p_in ~p_out
    | `Barbell -> X.Generators.barbell ~clique:(max 2 (n / 2)) ~bridge:(max 0 (n mod 2))
    | `Dumbbell ->
      X.Generators.dumbbell rng ~n1:(n / 2) ~n2:(n - (n / 2)) ~d:degree ~bridges:2
    | `Grid ->
      let side = max 1 (int_of_float (sqrt (float_of_int n))) in
      X.Generators.grid side side
    | `Powerlaw -> X.Generators.chung_lu rng ~n ~exponent:2.5 ~avg_degree:(float_of_int degree)
    | `Regular -> X.Generators.random_regular rng ~n ~d:degree
    | `Cliques -> X.Generators.cliques_chain ~cliques:(max 1 (n / 16)) ~size:16
    | `Cycle -> X.Generators.cycle (max 3 n)
    | `Path -> X.Generators.path (max 1 n)
    | `Tree ->
      let depth = max 1 (int_of_float (log (float_of_int (max 2 n)) /. log 2.0) - 1) in
      X.Generators.binary_tree depth
  in
  let g = X.Generators.connectivize rng g in
  describe g;
  g

(* the degree's preconditions, which depend on the family and -n too
   and so are past any one option's converter: a Chung–Lu graph with a
   non-positive average degree draws no edge; a random d-regular graph
   on n vertices needs 0 <= d < n and n·d even; the dumbbell's halves
   are made even where n·d is odd *)
let degree_error family n d =
  let regular_ok n = 0 <= d && d < n in
  match family with
  | `Powerlaw when d < 1 -> Some "--degree: expected a positive average degree for --family powerlaw"
  | `Regular when not (regular_ok n) -> Some "--degree: expected 0 <= d < n for --family regular"
  | `Regular when n * d mod 2 <> 0 -> Some "--degree: expected n*d even for --family regular"
  | `Dumbbell ->
    let side h = if h * d mod 2 <> 0 then h + 1 else h in
    if regular_ok (side (n / 2)) && regular_ok (side (n - (n / 2))) then None
    else
      Some
        "--degree: expected 0 <= d below each half of n for --family dumbbell (a half \
         grows by one where its size times d is odd)"
  | _ -> None

let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* the one graph term: every subcommand's input, built and described
   before the subcommand runs *)
let graph_t =
  let family_t =
    Arg.(
      value & opt (enum families) `Sbm
      & info [ "family"; "f" ] ~docv:"FAMILY" ~doc:("Graph family: " ^ doc_alts_enum families ^ "."))
  in
  let file_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"PATH" ~doc:"Load the graph from an edge-list file instead of generating one.")
  in
  let n_t = Arg.(value & opt int 240 & info [ "n" ] ~docv:"N" ~doc:"Vertex count (approximate).") in
  let p_t = Arg.(value & opt prob 0.1 & info [ "p" ] ~docv:"P" ~doc:"G(n,p) edge probability.") in
  let parts_t = Arg.(value & opt pos_int 4 & info [ "parts" ] ~doc:"SBM block count, at least 1.") in
  let p_in_t = Arg.(value & opt prob 0.3 & info [ "p-in" ] ~doc:"SBM intra-block probability.") in
  let p_out_t = Arg.(value & opt prob 0.01 & info [ "p-out" ] ~doc:"SBM inter-block probability.") in
  let degree_t = Arg.(value & opt int 8 & info [ "degree"; "d" ] ~doc:"Degree for regular-ish families.") in
  let checked_graph family file n seed p parts p_in p_out degree =
    match (file, degree_error family n degree) with
    | None, Some msg -> `Error (true, msg)
    | _ -> `Ok (make_graph family file n seed p parts p_in p_out degree)
  in
  Term.(
    ret
      (const checked_graph $ family_t $ file_t $ n_t $ seed_t $ p_t $ parts_t $ p_in_t
     $ p_out_t $ degree_t))

let epsilon_t =
  Arg.(
    value & opt unit_open (1.0 /. 6.0)
    & info [ "epsilon"; "e" ] ~doc:"Target inter-cluster edge fraction, in (0,1).")

let k_t =
  Arg.(value & opt pos_int 2 & info [ "k" ] ~doc:"Phase-2 level count (Theorem 1 trade-off), at least 1.")

(* the Params.make precondition *)
let phi_t =
  let phi = checked Arg.float ~ok:(fun x -> x > 0.0 && x <= 1.0 /. 12.0) "a number in (0,1/12]" in
  Arg.(value & opt phi 0.05 & info [ "phi" ] ~doc:"Sparse-cut conductance parameter, in (0,1/12].")

let beta_t = Arg.(value & opt unit_open 0.1 & info [ "beta" ] ~doc:"LDD parameter, in (0,1).")

let attempts_t =
  Arg.(
    value & opt pos_int 1
    & info [ "attempts" ]
      ~doc:"Las Vegas retry budget: re-run with fresh randomness until Verify certifies the output, up to this many attempts (at least 1).")

let generate_cmd =
  Cmd.v (Cmd.info "generate" ~doc:"Generate a graph and print its statistics.")
    Term.(const ignore $ graph_t)

let print_decomposition ~epsilon r report =
  Printf.printf
    "decomposition: parts=%d removed=%.2f%% (target %.2f%%) rounds=%d depth=%d \
     phase2=%d partition-calls=%d\n"
    (List.length r.X.Decomposition.parts)
    (100.0 *. r.X.Decomposition.edge_fraction_removed)
    (100.0 *. epsilon)
    r.X.Decomposition.stats.X.Decomposition.rounds
    r.X.Decomposition.stats.X.Decomposition.phase1_depth
    r.X.Decomposition.stats.X.Decomposition.phase2_components
    r.X.Decomposition.stats.X.Decomposition.partition_calls;
  List.iteri
    (fun i part ->
      if i < 20 then Printf.printf "  part %d: %d vertices\n" i (Array.length part))
    r.X.Decomposition.parts;
  if List.length r.X.Decomposition.parts > 20 then
    Printf.printf "  ... (%d parts total)\n" (List.length r.X.Decomposition.parts);
  Printf.printf "verify: partition=%b epsilon-ok=%b min-conductance≥%.4f (target φ=%.4f)\n"
    report.X.Decomposition_verify.is_partition report.X.Decomposition_verify.epsilon_ok
    report.X.Decomposition_verify.min_conductance_lower r.X.Decomposition.phi_target

let decompose_cmd =
  let run g seed epsilon k attempts =
    match X.Las_vegas.decompose ~attempts ~epsilon ~k g (X.Rng.create seed) with
    | Ok o ->
      print_decomposition ~epsilon o.X.Las_vegas.result o.X.Las_vegas.report;
      Printf.printf "las-vegas: certified after %d/%d attempt(s), %d rounds total\n"
        o.X.Las_vegas.attempts attempts o.X.Las_vegas.total_rounds
    | Error f ->
      print_decomposition ~epsilon f.X.Las_vegas.last_result f.X.Las_vegas.last_report;
      Printf.printf
        "las-vegas: FAILED — %d attempt(s) exhausted (%d rounds total) without a certificate\n"
        f.X.Las_vegas.attempts f.X.Las_vegas.total_rounds;
      exit 1
  in
  Cmd.v (Cmd.info "decompose" ~doc:"Run the (ε,φ)-expander decomposition (Theorem 1).")
    Term.(const run $ graph_t $ seed_t $ epsilon_t $ k_t $ attempts_t)

let sparse_cut_cmd =
  let run g seed phi =
    let r = X.sparse_cut ~phi g ~seed in
    if Array.length r.X.Sparse_cut.cut = 0 then
      Printf.printf "sparse-cut: none found — graph certified as a φ=%.4f expander\n" phi
    else
      Printf.printf "sparse-cut: |C|=%d conductance=%.4f balance=%.4f rounds=%d\n"
        (Array.length r.X.Sparse_cut.cut)
        r.X.Sparse_cut.conductance r.X.Sparse_cut.balance r.X.Sparse_cut.rounds
  in
  Cmd.v (Cmd.info "sparse-cut" ~doc:"Run the nearly most balanced sparse cut (Theorem 3).")
    Term.(const run $ graph_t $ seed_t $ phi_t)

let ldd_cmd =
  let run g seed beta =
    let r = X.low_diameter_decomposition ~beta g ~seed in
    let m = max 1 (X.Graph.num_edges g) in
    Printf.printf "ldd: parts=%d cut-edges=%d (%.2f%% of m, budget %.2f%%) rounds=%d\n"
      (List.length r.X.Ldd.parts)
      (List.length r.X.Ldd.cut_edges)
      (100.0 *. float_of_int (List.length r.X.Ldd.cut_edges) /. float_of_int m)
      (100.0 *. 3.0 *. beta) r.X.Ldd.rounds;
    Printf.printf "ldd: max part diameter=%d (bound %d)\n"
      (X.Ldd.max_part_diameter g r)
      (X.Ldd.diameter_bound ~n:(X.Graph.num_vertices g) ~beta ())
  in
  Cmd.v (Cmd.info "ldd" ~doc:"Run the low-diameter decomposition (Theorem 4).")
    Term.(const run $ graph_t $ seed_t $ beta_t)

let triangles_cmd =
  let run g seed epsilon k =
    let r = X.enumerate_triangles ~epsilon ~k g ~seed in
    Printf.printf
      "triangles: found=%d complete=%b levels=%d total-rounds=%d enumeration-rounds=%d\n"
      (Array.length r.X.Triangle_enum.triangles)
      r.X.Triangle_enum.complete
      (List.length r.X.Triangle_enum.levels)
      r.X.Triangle_enum.total_rounds r.X.Triangle_enum.enumeration_rounds;
    let nv = X.Graph.num_vertices g in
    Printf.printf "baselines: trivial=%d dlp-clique=%d izumi-le-gall=%d lower-bound=%d\n"
      (X.Triangle_baselines.trivial_rounds g)
      (X.Triangle_dlp.run g).X.Triangle_dlp.rounds
      (X.Triangle_baselines.izumi_le_gall_rounds ~n:nv)
      (X.Triangle_baselines.lower_bound_rounds ~n:nv)
  in
  Cmd.v (Cmd.info "triangles" ~doc:"Enumerate triangles via expander decomposition (Theorem 2).")
    Term.(const run $ graph_t $ seed_t $ epsilon_t $ k_t)

let faults_cmd =
  let drop_t =
    Arg.(value & opt prob 0.05 & info [ "drop" ] ~docv:"P" ~doc:"Per-message drop probability.")
  in
  let dup_t =
    Arg.(
      value
      & opt (some prob) None
      & info [ "dup" ] ~docv:"P" ~doc:"Per-message duplication probability (default drop/2).")
  in
  let fault_seed_t =
    Arg.(value & opt int 42 & info [ "fault-seed" ] ~doc:"Seed of the deterministic fault schedule.")
  in
  let retries_t =
    Arg.(value & opt pos_int 64 & info [ "retries" ] ~doc:"Retransmission budget per message, at least 1.")
  in
  let run g drop dup fault_seed retries =
    let dup = match dup with Some d -> d | None -> drop /. 2.0 in
    let config = { X.Reliable.default_config with X.Reliable.max_retries = retries } in
    let exec faults =
      let ledger = X.Rounds.create () in
      let net = X.Network.create ?faults g ledger in
      let tree = X.Reliable.bfs_tree ~config net ~root:(X.Vertex.local 0) in
      let leaders = X.Reliable.elect_leader ~config net in
      let phases = X.Rounds.phases ledger in
      let rounds label = try List.assoc (X.Rounds.Executed label) phases with Not_found -> 0 in
      (rounds X.Rounds.Bfs_reliable, rounds X.Rounds.Leader_reliable, X.Network.messages_sent net,
       tree, leaders)
    in
    let br0, lr0, m0, tree0, _ = exec None in
    Printf.printf "fault-free: bfs-rounds=%d leader-rounds=%d messages=%d tree-height=%d\n"
      br0 lr0 m0 tree0.X.Primitives.height;
    let faults = X.Faults.create (X.Faults.lossy ~drop ~duplicate:dup ~seed:fault_seed ()) in
    let br, lr, m, tree, leaders =
      try exec (Some faults)
      with X.Reliable.Delivery_failed { label; vertex; neighbor; attempts; _ } ->
        Printf.printf
          "FAILED: %s gave up on edge %d->%d after %d retransmissions \
           (dropped=%d duplicated=%d) — raise --retries or lower --drop\n"
          (X.Rounds.name (Executed label)) vertex neighbor attempts
          (X.Faults.drops faults) (X.Faults.duplicates faults);
        exit 1
    in
    Printf.printf
      "lossy (drop=%.3f dup=%.3f seed=%d): bfs-rounds=%d leader-rounds=%d messages=%d\n"
      drop dup fault_seed br lr m;
    Printf.printf "faults: dropped=%d duplicated=%d\n"
      (X.Faults.drops faults) (X.Faults.duplicates faults);
    Printf.printf "overhead: bfs-rounds %.2fx leader-rounds %.2fx messages %.2fx\n"
      (float_of_int br /. float_of_int (max 1 br0))
      (float_of_int lr /. float_of_int (max 1 lr0))
      (float_of_int m /. float_of_int (max 1 m0));
    let bfs_ok = tree.X.Primitives.depth = tree0.X.Primitives.depth in
    let leader_ok = Array.for_all (fun l -> l = leaders.(0)) leaders in
    Printf.printf "correct: bfs=%b leader=%b\n" bfs_ok leader_ok;
    if not (bfs_ok && leader_ok) then exit 1
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run reliable BFS and leader election on a lossy network and report the overhead.")
    Term.(const run $ graph_t $ drop_t $ dup_t $ fault_seed_t $ retries_t)

let throughput_cmd =
  let run g =
    (* a BFS flood: messages carry the sender's depth, receivers adopt
       depth+1 and re-flood on improvement *)
    let net = X.Network.create g (X.Rounds.create ()) in
    let flood () =
      X.Network.run_active net ~label:X.Rounds.Bfs
        ~init:(fun v -> if v = 0 then 0 else max_int lsr 2)
        ~step:(fun ~round ~vertex:v d ib ob ->
          let vi = X.Vertex.local_int v in
          let best = ref d in
          X.Arena.Inbox.iter1 ib (fun _ w -> if w + 1 < !best then best := w + 1);
          if !best < d || (round = 1 && vi = 0) then
            X.Graph.iter_neighbors g vi (fun u ->
                X.Arena.Outbox.send1 ob ~dst:(X.Vertex.local u) !best);
          !best)
        ()
    in
    (* the first run builds the arena and checks the answer *)
    let depths, _ = flood () in
    if depths <> X.Metrics.bfs_distances g 0 then failwith "throughput: wrong BFS result";
    let m0 = X.Network.messages_sent net in
    let t0 = X.Clock.now_ns () in
    let _, rounds = flood () in
    let t1 = X.Clock.now_ns () in
    let secs = float_of_int (t1 - t0) /. 1e9 in
    Printf.printf "bfs flood: rounds=%d msgs=%d ms=%.2f rounds/s=%.0f\n" rounds
      (X.Network.messages_sent net - m0) (secs *. 1e3) (float_of_int rounds /. secs)
  in
  Cmd.v
    (Cmd.info "throughput"
       ~doc:
         "Time the kernel's round loop on a BFS flood over the chosen graph. Try \
          $(b,--family cycle -n 10000), where only 2 vertices are active per \
          round.")
    Term.(const run $ graph_t)

let trace_cmd =
  let algo_t =
    let algo =
      Arg.enum
        [ ("decompose", `Decompose); ("sparse-cut", `Sparse_cut); ("triangles", `Triangles) ]
    in
    Arg.(
      required
      & pos 0 (some algo) None
      & info [] ~docv:"ALGO"
          ~doc:"Algorithm to trace: $(b,decompose), $(b,sparse-cut) or $(b,triangles).")
  in
  let top_t =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"Hot-edge listing length.")
  in
  let jsonl_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"PATH"
          ~doc:"Stream every trace event to PATH as JSON Lines (schema: DESIGN.md §8).")
  in
  let run g seed epsilon k phi algo top jsonl =
    let sink = Option.map open_out jsonl in
    let trace = X.Trace.create ?sink () in
    let ledger = X.Rounds.create () in
    X.Rounds.attach_trace ledger (Some trace);
    let reported =
      match algo with
      | `Decompose ->
        let r = X.decompose ~ledger ~epsilon ~k g ~seed in
        let rounds = r.X.Decomposition.stats.X.Decomposition.rounds in
        Printf.printf "decompose: parts=%d removed=%.2f%% rounds(makespan)=%d\n"
          (List.length r.X.Decomposition.parts)
          (100.0 *. r.X.Decomposition.edge_fraction_removed)
          rounds;
        rounds
      | `Sparse_cut ->
        let r = X.sparse_cut ~ledger ~phi g ~seed in
        Printf.printf "sparse-cut: |C|=%d conductance=%s rounds=%d\n"
          (Array.length r.X.Sparse_cut.cut)
          (if Float.is_finite r.X.Sparse_cut.conductance then
             Printf.sprintf "%.4f" r.X.Sparse_cut.conductance
           else "inf")
          r.X.Sparse_cut.rounds;
        r.X.Sparse_cut.rounds
      | `Triangles ->
        let r = X.enumerate_triangles ~ledger ~epsilon ~k g ~seed in
        Printf.printf "triangles: found=%d complete=%b rounds(makespan)=%d\n"
          (Array.length r.X.Triangle_enum.triangles)
          r.X.Triangle_enum.complete r.X.Triangle_enum.total_rounds;
        r.X.Triangle_enum.total_rounds
    in
    (match sink with Some oc -> close_out oc | None -> ());
    (* hierarchical span tree: every charge sits on a leaf, so the leaf
       totals sum to the ledger total by construction; the makespan
       counts parallel components at their max and must equal the
       algorithm's own round figure *)
    Printf.printf "\nspan tree (ledger rounds):\n";
    let rec print_node indent (node : X.Rounds.tree) =
      Printf.printf "%s%s  %d rounds%s%s\n" indent node.X.Rounds.span node.X.Rounds.rounds
        (if node.X.Rounds.self > 0 && node.X.Rounds.children <> [] then
           Printf.sprintf " (self %d)" node.X.Rounds.self
         else "")
        (if node.X.Rounds.wall_ns > 0 then
           Printf.sprintf "  [%.2f ms]" (float_of_int node.X.Rounds.wall_ns /. 1e6)
         else "");
      List.iter (print_node (indent ^ "  ")) node.X.Rounds.children
    in
    let tree = X.Rounds.tree ledger in
    print_node "  " tree;
    let rec leaf_sum (node : X.Rounds.tree) =
      node.X.Rounds.self + List.fold_left (fun acc c -> acc + leaf_sum c) 0 node.X.Rounds.children
    in
    let makespan = X.Rounds.makespan ledger in
    let consistent = leaf_sum tree = X.Rounds.total ledger && makespan = reported in
    Printf.printf "  leaf-sum=%d ledger-total=%d makespan=%d%s\n" (leaf_sum tree)
      (X.Rounds.total ledger) makespan
      (if consistent then "" else "  MISMATCH");
    (match X.Trace.top_edges trace top with
    | [] -> Printf.printf "\nno executed message traffic (all phases accounted)\n"
    | edges ->
      Printf.printf "\ntop-%d congested edges (cumulative deliveries):\n"
        (List.length edges);
      List.iter
        (fun ((u, v), load) -> Printf.printf "  (%d,%d)  %d\n" u v load)
        edges);
    Printf.printf "\nper-phase rounds (flat):\n";
    let executed = ref 0 and modelled = ref 0 in
    List.iter
      (fun (label, rounds) ->
        let kind, sum =
          match label with
          | X.Rounds.Executed _ -> ("executed", executed)
          | X.Rounds.Modelled _ -> ("modelled", modelled)
        in
        sum := !sum + rounds;
        Printf.printf "  %-24s %-9s %d\n" (X.Rounds.name label) kind rounds)
      (X.Rounds.phases ledger);
    Printf.printf "  executed=%d modelled=%d\n" !executed !modelled;
    Printf.printf
      "\ntrace: events=%d retained=%d dropped=%d messages=%d words=%d faults=%d retries=%d\n"
      (X.Trace.emitted trace)
      (List.length (X.Trace.events trace))
      (X.Trace.dropped trace) (X.Trace.messages trace) (X.Trace.words trace)
      (X.Trace.faults trace) (X.Trace.retries trace);
    (match jsonl with
    | Some path -> Printf.printf "wrote JSONL events to %s\n" path
    | None -> ());
    if not consistent then exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run an algorithm under structured tracing and print its span tree, hot edges \
          and per-phase summary.")
    Term.(const run $ graph_t $ seed_t $ epsilon_t $ k_t $ phi_t $ algo_t $ top_t $ jsonl_t)

let conformance_cmd =
  let word_size_t =
    Arg.(value & opt pos_int 1 & info [ "word-size" ] ~docv:"W" ~doc:"Per-message word budget, at least 1.")
  in
  let demo_race_t =
    Arg.(
      value & flag
      & info [ "demo-race" ]
          ~doc:
            "Additionally run a deliberately delivery-order-dependent protocol and show \
             that the detector flags it (the command still exits 0 if the clean \
             protocols pass).")
  in
  let run g seed word_size demo_race =
    let report label r =
      Printf.printf
        "%-8s rounds=%d/%d messages=%d/%d (canonical/permuted): %s\n" label
        r.X.Conformance.rounds_canonical r.X.Conformance.rounds_permuted
        r.X.Conformance.messages_canonical r.X.Conformance.messages_permuted
        (if X.Conformance.ok r then "conformant" else "VIOLATIONS");
      List.iter
        (fun v -> Printf.printf "  %s\n" (X.Conformance.describe v))
        r.X.Conformance.violations;
      X.Conformance.ok r
    in
    let bfs_ok =
      report "bfs"
        (X.Conformance.check ~word_size ~seed g ~protocol:(X.Conformance.bfs ~root:(X.Vertex.local 0) g) ())
    in
    let leader_ok =
      report "leader"
        (X.Conformance.check ~word_size ~seed g ~protocol:(X.Conformance.leader g) ())
    in
    if demo_race then begin
      (* adopt the first inbox message's sender: delivery-order
         dependent, so the detector must flag it *)
      let racy () =
        let init _ = (-1, false) in
        let step ~round:_ ~vertex:v (got, sent) inbox =
          let v = X.Vertex.local_int v in
          let got =
            match inbox with (sender, _) :: _ when got < 0 -> sender | _ -> got
          in
          if sent then ((got, sent), [])
          else begin
            let outbox = ref [] in
            X.Graph.iter_neighbors g v (fun u -> outbox := (u, [| v |]) :: !outbox);
            ((got, true), !outbox)
          end
        in
        let finished states = Array.for_all (fun (got, sent) -> sent && got >= 0) states in
        { X.Conformance.init; step; finished }
      in
      let r = X.Conformance.check ~seed g ~protocol:racy () in
      Printf.printf "demo-race: detector %s\n"
        (if X.Conformance.ok r then "MISSED the race" else "caught the race, as expected");
      List.iter
        (fun v -> Printf.printf "  %s\n" (X.Conformance.describe v))
        r.X.Conformance.violations
    end;
    if not (bfs_ok && leader_ok) then exit 1
  in
  Cmd.v
    (Cmd.info "conformance"
       ~doc:
         "Replay reference protocols under permuted activation/delivery schedules and \
          audit the CONGEST kernel invariants (schedule-permutation race detector).")
    Term.(const run $ graph_t $ seed_t $ word_size_t $ demo_race_t)

let () =
  let doc = "Distributed expander decomposition and triangle enumeration (PODC 2019)" in
  let info = Cmd.info "dexpander" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; decompose_cmd; sparse_cut_cmd; ldd_cmd; triangles_cmd;
            faults_cmd; throughput_cmd; trace_cmd; conformance_cmd ]))
