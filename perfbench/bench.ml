(* The repository benchmark: four workloads over the public entry points
   of Theorem 1 (Las Vegas expander decomposition), Theorem 2 (verified
   triangle enumeration) and Theorem 4 (low-diameter decomposition).

   bench.exe --workload W --seed S --seconds T --trace 0|1 [--tiny]

   The seed generates the graphs and the algorithm's random streams; the
   library only ever receives graphs and Rng values. Everything runs in
   one process on the default sequential executor.

   A run is a fixed batch: T divided by the workload's typical operation
   time gives the number of op runs, so the same (seed, T) always gives
   the same graphs. The workloads use graph families whose cost varies
   little from graph to graph, so that the spread between seeds stays
   inside the bounds of BENCHMARK.json.

   --trace 0 reports the end-to-end metrics and runs each graph's op
   three times (see [end_to_end]). --trace 1 reports the per-layer
   metrics from a quarter of the batch: each graph's op runs once
   untraced (the overhead baseline) and once traced (span tree and round
   ticks read back), and each layer's public function is timed directly
   on the same graphs.

   Every operation goes through a correctness gate ([verdict]), and its
   exact figures (rounds, messages, cut edges, ledger labels) must repeat
   each time it runs again in the same process; a mismatch is a failure. The
   last line of standard output is one JSON object with the keys
   "correct", "attempted", "failed" and "metrics". *)

module X = Dexpander
module Refine = Dex_ldd.Refine

let now_s () = float_of_int (X.Clock.now_ns ()) *. 1e-9

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---------------- workloads ---------------- *)

type kind =
  | Decompose of { epsilon : float; k : int }
  | Triangles
  | Ldd of { beta : float }

type workload = {
  name : string;
  kind : kind;
  op_seconds : float; (* typical time of one op, 2-core x86-64, OCaml 5.1 *)
  size : tiny:bool -> int -> int; (* vertex count of the i-th graph *)
  make : X.Rng.t -> int -> X.Graph.t;
}

let regular rng n = X.Generators.random_regular rng ~n ~d:8

(* Both decomposition workloads run on random 8-regular expanders: the
   Theorem-1 decomposition then makes one Phase-1 level and certifies, so the
   cost per graph is nearly constant. The SBM and warted-expander
   families were rejected because their cost per graph is bimodal
   (whether Partition finds a cut and the run recurses or enters
   Phase 2 is a coin flip per graph, at 2-10x the cost). The epsilon
   alone moves the work between layers: at 1/6 the LDD parameter beta
   is tiny and MPX clustering runs ~10^5 mostly idle kernel rounds per
   level; at 1/2 Partition's walks take most of the time. *)
let workloads =
  [ { name = "decompose-ldd";
      kind = Decompose { epsilon = 1.0 /. 6.0; k = 2 };
      op_seconds = 1.0;
      size = (fun ~tiny _ -> if tiny then 32 else 128);
      make = regular };
    { name = "decompose-walks";
      kind = Decompose { epsilon = 0.5; k = 2 };
      op_seconds = 0.5;
      size = (fun ~tiny _ -> if tiny then 32 else 128);
      make = regular };
    { name = "triangles-gnp";
      (* the E7 lower-bound family G(n, 1/2) *)
      kind = Triangles;
      op_seconds = 1.3;
      size = (fun ~tiny _ -> if tiny then 24 else 128);
      make =
        (fun rng n -> X.Generators.connectivize rng (X.Generators.gnp rng ~n ~p:0.5)) };
    { name = "ldd-cycle";
      (* the E1 family; a cycle has no randomness, the seed drives the
         LDD's random streams *)
      kind = Ldd { beta = 0.7 };
      op_seconds = 1.55;
      size = (fun ~tiny i -> if tiny then 600 else 16_000 + (4_000 * (i mod 5)));
      make = (fun _ n -> X.Generators.cycle n) } ]

let graph_rng seed i = X.Rng.split (X.Rng.create seed) (2 * i)
let algo_rng seed i = X.Rng.split (X.Rng.create seed) ((2 * i) + 1)

let batch_size w ~tiny ~seconds =
  if tiny then 1 else max 1 (int_of_float (Float.round (seconds /. w.op_seconds)))

let generate w ~tiny ~seed ~count =
  Array.init count (fun i -> w.make (graph_rng seed i) (w.size ~tiny i))

(* ---------------- one operation and its gate ---------------- *)

type outcome = {
  sim_rounds : int; (* the makespan the algorithm reports *)
  messages : int; (* messages delivered by executed protocols *)
  removed : int; (* edges cut *)
  attempts : int; (* Las Vegas attempts used *)
  decomposition : X.Decomposition.result option;
  verdict : unit -> string option; (* None when the output is correct *)
}

(* the first failed check, in order; later checks may assume earlier ones *)
let first_failure checks = List.find_map (fun (why, ok) -> if ok () then None else Some why) checks

let is_partition g parts =
  match X.Metrics.check_partition g parts with () -> true | exception Invalid_argument _ -> false

let decomposition_verdict ~epsilon ~removed g (o : X.Las_vegas.outcome) () =
  let r = o.X.Las_vegas.result in
  first_failure
    [ ("certificate rejected", fun () -> X.Las_vegas.report_ok o.X.Las_vegas.report);
      ("parts are not a partition", fun () -> is_partition g r.X.Decomposition.parts);
      ( "an inter-part edge was not removed",
        fun () -> X.Metrics.inter_component_edges g r.X.Decomposition.parts <= removed );
      ( "more than epsilon*m edges removed",
        fun () -> float_of_int removed <= epsilon *. float_of_int (X.Graph.num_edges g) ) ]

(* every part's diameter in G[part] is at most [bound]; a BFS inside the
   part from one member settles it when 2 * eccentricity <= bound, and
   only otherwise are all members' eccentricities taken *)
let diameters_within g parts bound =
  let n = X.Graph.num_vertices g in
  let label = Array.make n (-1) in
  List.iteri (fun i p -> Array.iter (fun v -> label.(v) <- i) p) parts;
  let dist = Array.make n (-1) and queue = Array.make n 0 in
  let eccentricity src =
    let part = label.(src) in
    dist.(src) <- 0;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      X.Graph.iter_neighbors g v (fun u ->
          if label.(u) = part && dist.(u) < 0 then begin
            dist.(u) <- dist.(v) + 1;
            queue.(!tail) <- u;
            incr tail
          end)
    done;
    let ecc = dist.(queue.(!tail - 1)) in
    for j = 0 to !tail - 1 do
      dist.(queue.(j)) <- -1
    done;
    (ecc, !tail)
  in
  List.for_all
    (fun p ->
      let ecc, reached = eccentricity p.(0) in
      reached = Array.length p
      && (2 * ecc <= bound || Array.for_all (fun v -> fst (eccentricity v) <= bound) p))
    parts

let ldd_verdict ~beta g (r : X.Ldd.t) () =
  let n = X.Graph.num_vertices g and m = X.Graph.num_edges g in
  let cut = List.length r.X.Ldd.cut_edges in
  first_failure
    [ ("parts are not a partition", fun () -> is_partition g r.X.Ldd.parts);
      ( "an inter-part edge was not cut",
        fun () -> X.Metrics.inter_component_edges g r.X.Ldd.parts <= cut );
      ("more than 3*beta*m edges cut", fun () -> float_of_int cut <= 3.0 *. beta *. float_of_int m);
      ( "a part exceeds Ldd.diameter_bound",
        fun () -> diameters_within g r.X.Ldd.parts (X.Ldd.diameter_bound ~n ~beta ()) ) ]

let triangles_verdict g (r : X.Triangle_enum.result) () =
  first_failure
    [ ("enumeration not complete", fun () -> r.X.Triangle_enum.complete);
      ( "differs from the exact enumeration",
        fun () -> r.X.Triangle_enum.triangles = X.Triangles.enumerate g ) ]

let run_op w ~ledger g rng =
  match w.kind with
  | Decompose { epsilon; k } -> (
    match X.Las_vegas.decompose ~ledger ~attempts:3 ~epsilon ~k g rng with
    | Ok o ->
      let r = o.X.Las_vegas.result in
      let st = r.X.Decomposition.stats in
      let s = st.X.Decomposition.removals in
      let removed = s.X.Decomposition.remove1 + s.X.Decomposition.remove2 + s.X.Decomposition.remove3 in
      { sim_rounds = o.X.Las_vegas.total_rounds;
        messages = st.X.Decomposition.messages;
        removed;
        attempts = o.X.Las_vegas.attempts;
        decomposition = Some r;
        verdict = decomposition_verdict ~epsilon ~removed g o }
    | Error f ->
      { sim_rounds = f.X.Las_vegas.total_rounds;
        messages = 0;
        removed = 0;
        attempts = f.X.Las_vegas.attempts;
        decomposition = None;
        verdict = (fun () -> Some "no certified decomposition within 3 attempts") })
  | Triangles ->
    let ok, a =
      match X.Triangle_enum.run_verified ~ledger ~attempts:3 g rng with
      | Ok a -> (true, a)
      | Error a -> (false, a)
    in
    let r = a.X.Triangle_enum.value in
    { sim_rounds = a.X.Triangle_enum.rounds_total;
      messages = r.X.Triangle_enum.messages;
      (* the edges each level's decomposition cut are the next level's *)
      removed =
        (match r.X.Triangle_enum.levels with
        | [] -> 0
        | _ :: deeper -> List.fold_left (fun acc l -> acc + l.X.Triangle_enum.edges) 0 deeper);
      attempts = a.X.Triangle_enum.attempts;
      decomposition = None;
      verdict =
        (if ok then triangles_verdict g r
         else fun () -> Some "incomplete enumeration after 3 attempts") }
  | Ldd { beta } ->
    let r = X.Ldd.run_graph ~ledger g ~beta rng in
    { sim_rounds = r.X.Ldd.rounds;
      messages = r.X.Ldd.messages;
      removed = List.length r.X.Ldd.cut_edges;
      attempts = 1;
      decomposition = None;
      verdict = ldd_verdict ~beta g r }

(* ---------------- timed passes ---------------- *)

(* the figures of one op that must repeat exactly *)
type exact = { counts : int * int * int; labels : (string * int) list }

type op_run = { out : outcome; ledger : X.Rounds.t; wall : float; alloc : float; exact : exact }

(* one op from a collected heap, timed; [trace] attaches a ring *)
let timed_op w g ~seed ~i ~trace =
  let ledger = X.Rounds.create () in
  Option.iter (fun capacity -> X.Rounds.attach_trace ledger (Some (X.Trace.create ~capacity ()))) trace;
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let t0 = now_s () in
  let out = run_op w ~ledger g (algo_rng seed i) in
  let wall = now_s () -. t0 in
  let alloc = Gc.allocated_bytes () -. a0 in
  let exact = { counts = (out.sim_rounds, out.messages, out.removed); labels = X.Rounds.by_phase ledger } in
  { out; ledger; wall; alloc; exact }

(* gate one op; [reference] is the same op's figures from an earlier run
   in this process, when there is one *)
let failed_gate ?reference ~i r =
  let why =
    match (r.out.verdict (), reference) with
    | Some why, _ -> Some why
    | None, Some e when e <> r.exact -> Some "exact figures differ between two runs of the op"
    | None, _ -> None
  in
  Option.iter (Printf.eprintf "op %d failed: %s\n%!" i) why;
  Option.is_some why

(* ---------------- set-up ---------------- *)

let setup_reps = 3

(* set-up is graph generation plus a warm-up op on the workload's tiny
   graph; it runs [setup_reps] times and reports the median of the
   whole and of generation alone *)
let setup w ~tiny ~seed ~count =
  let totals = ref [] and gens = ref [] and graphs = ref [||] in
  for _ = 1 to setup_reps do
    let t0 = now_s () in
    graphs := generate w ~tiny ~seed ~count;
    let t1 = now_s () in
    let warm = (generate w ~tiny:true ~seed ~count:1).(0) in
    ignore (Sys.opaque_identity (run_op w ~ledger:(X.Rounds.create ()) warm (algo_rng seed 0)));
    gens := (t1 -. t0) :: !gens;
    totals := (now_s () -. t0) :: !totals
  done;
  (!graphs, median !gens, median !totals)

(* ---------------- per-layer figures ---------------- *)

(* per-layer accumulator: metric name -> summed value *)
let add tbl name v = Hashtbl.replace tbl name (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.0)

(* wall-clock sums over one traced span tree, in ms; a self time is a
   span's wall minus the children it names *)
let rec add_spans tbl ~parent (t : X.Rounds.tree) =
  let ms ns = float_of_int ns *. 1e-6 in
  let self_without pred =
    ms
      (List.fold_left
         (fun acc (c : X.Rounds.tree) -> if pred c.X.Rounds.span then acc - c.X.Rounds.wall_ns else acc)
         t.X.Rounds.wall_ns t.X.Rounds.children)
  in
  let level = String.starts_with ~prefix:"level-" in
  (match t.X.Rounds.span with
  | "partition" -> add tbl "sparsecut.wall_ms" (ms t.X.Rounds.wall_ns)
  | "phase1" -> add tbl "expander.phase1_ms" (ms t.X.Rounds.wall_ns)
  | "phase2" -> add tbl "expander.phase2_ms" (ms t.X.Rounds.wall_ns)
  | "las-vegas" ->
    (* what the attempts leave out is Verify.check *)
    add tbl "expander.certify_self_ms" (self_without (String.starts_with ~prefix:"attempt-"))
  | name when level name && parent = "phase1" ->
    add tbl "ldd.level_self_ms" (self_without (String.equal "partition"))
  | name when level name && parent = "triangles" ->
    add tbl "triangle.level_self_ms" (self_without (String.equal "decompose"))
  | _ -> ());
  List.iter (add_spans tbl ~parent:t.X.Rounds.span) t.X.Rounds.children

let ledger_labels =
  [ "ldd-refine"; "mpx-clustering"; "nibble-generate"; "nibble-execute"; "nibble-select";
    "routing-preprocess"; "routing-query"; "residual-trivial" ]

(* direct call: (result, ms, MB allocated) *)
let timed f =
  let a0 = Gc.allocated_bytes () in
  let t0 = now_s () in
  let r = f () in
  (r, (now_s () -. t0) *. 1e3, (Gc.allocated_bytes () -. a0) /. 1e6)

let nibble_sources = 8

(* time each layer's public function on the op's graph, at the
   parameters the op itself uses on its first level *)
let direct_calls tbl w g rng (o : outcome) =
  let ldd_layer beta =
    let net = X.Network.create g (X.Rounds.create ()) in
    let _, ms, mb = timed (fun () -> X.Clustering.run net ~beta rng) in
    add tbl "ldd.clustering_ms" ms;
    add tbl "ldd.clustering_alloc_mb" mb;
    let _, ms, _ = timed (fun () -> Refine.run g ~beta) in
    add tbl "ldd.refine_ms" ms
  in
  let decomposition_layers ~epsilon ~k =
    let sched = X.Schedule.make ~epsilon ~k g in
    ldd_layer sched.X.Schedule.beta;
    let params =
      X.Schedule.params_for ~phi:sched.X.Schedule.phi.(0) ~m:(max 1 (X.Graph.num_edges g)) ()
    in
    let _, ms, mb = timed (fun () -> X.Sparse_cut.run params g rng) in
    add tbl "sparsecut.partition_ms" ms;
    add tbl "sparsecut.partition_alloc_mb" mb;
    let n = X.Graph.num_vertices g in
    for s = 0 to nibble_sources - 1 do
      let nb, ms, _ =
        timed (fun () -> X.Nibble.approximate params g ~src:(s * n / nibble_sources) ~b:1)
      in
      add tbl "sparsecut.nibble_steps" (float_of_int nb.X.Nibble.steps_executed);
      add tbl "spectral.walk_ms" ms
    done
  in
  match w.kind with
  | Decompose { epsilon; k } ->
    decomposition_layers ~epsilon ~k;
    Option.iter
      (fun r ->
        let _, ms, _ = timed (fun () -> X.Decomposition_verify.check g r rng) in
        add tbl "expander.verify_ms" ms)
      o.decomposition
  | Triangles ->
    decomposition_layers ~epsilon:(1.0 /. 6.0) ~k:2;
    let _, ms, _ = timed (fun () -> X.Routing.build g rng ~k:2) in
    add tbl "routing.build_ms" ms;
    let _, ms, _ = timed (fun () -> X.Triangles.count g) in
    add tbl "triangle.exact_ms" ms;
    (* run_verified enumerates the exact answer once per attempt *)
    add tbl "triangle.exact_in_op_ms" (float_of_int o.attempts *. ms)
  | Ldd { beta } -> ldd_layer beta

(* round ticks and span opens read back from one op's ring *)
let add_trace tbl tr =
  add tbl "obs.trace_events" (float_of_int (X.Trace.emitted tr));
  add tbl "obs.trace_dropped" (float_of_int (X.Trace.dropped tr));
  List.iter
    (function
      | X.Trace.Round_tick { messages; active; _ } ->
        add tbl "congest.executed_rounds" 1.0;
        add tbl "congest.active_vertex_rounds" (float_of_int active);
        add tbl "congest.messages" (float_of_int messages)
      | X.Trace.Span_open { name = "partition"; _ } -> add tbl "sparsecut.calls" 1.0
      | _ -> ())
    (X.Trace.events tr)

(* ---------------- output ---------------- *)

let end_to_end_units =
  [ ("setup_s", "s"); ("wall_s", "s"); ("alloc_gb", "GB"); ("peak_heap_mb", "MB") ]

let per_layer_units =
  [ ("graph.generate_ms", "ms"); ("congest.sim_rounds", "rounds");
    ("congest.executed_rounds", "rounds"); ("congest.active_vertex_rounds", "count");
    ("congest.messages", "count") ]
  @ List.map (fun l -> ("congest.rounds." ^ l, "rounds")) (ledger_labels @ [ "other" ])
  @ [ ("spectral.us_per_walk_step", "us"); ("sparsecut.wall_ms", "ms"); ("sparsecut.calls", "count");
      ("sparsecut.discarded_ratio", "ratio"); ("sparsecut.partition_ms", "ms");
      ("sparsecut.partition_alloc_mb", "MB"); ("sparsecut.nibble_steps", "count");
      ("ldd.level_self_ms", "ms"); ("ldd.clustering_ms", "ms"); ("ldd.clustering_alloc_mb", "MB");
      ("ldd.refine_ms", "ms"); ("expander.phase1_ms", "ms"); ("expander.phase2_ms", "ms");
      ("expander.phase2_iters", "count"); ("expander.certify_self_ms", "ms");
      ("expander.verify_ms", "ms"); ("expander.attempts", "count");
      ("expander.removed_frac", "ratio"); ("routing.build_ms", "ms");
      ("triangle.level_self_ms", "ms"); ("triangle.exact_ms", "ms"); ("obs.traced_wall_ms", "ms");
      ("obs.attributed_pct", "%"); ("obs.trace_overhead_pct", "%"); ("obs.trace_events", "count");
      ("obs.trace_dropped", "count"); ("obs.fail_rate", "ratio") ]

let default_executor () =
  match X.Network.executor (X.Network.create (X.Graph.empty 1) (X.Rounds.create ())) with
  | X.Network.Legacy -> "legacy"
  | X.Network.Staged -> "staged"
  | X.Network.Parallel k -> Printf.sprintf "parallel-%d" k

(* a digest of every op's exact figures: equal across runs of one seed *)
let digest exacts = Digest.to_hex (Digest.string (Marshal.to_string exacts []))

(* [extra] rows go to the table only, not into the JSON metrics *)
let print_result ~extra ~host ~units ~value ~attempted ~failed =
  print_endline (X.Json.to_string (X.Json.Obj [ ("host", host) ]));
  let row name v unit = Printf.printf "%-32s %20.6f %s\n" name v unit in
  List.iter (fun (name, unit) -> row name (value name) unit) units;
  List.iter (fun (name, v, unit) -> row name v unit) extra;
  row "fail_rate" (float_of_int failed /. float_of_int attempted) "ratio";
  let metric (name, unit) =
    (name, X.Json.Obj [ ("value", X.Json.Float (value name)); ("unit", X.Json.String unit) ])
  in
  print_endline
    (X.Json.to_string
       (X.Json.Obj
          [ ("correct", X.Json.Bool (failed = 0)); ("attempted", X.Json.Int attempted);
            ("failed", X.Json.Int failed); ("metrics", X.Json.Obj (List.map metric units)) ]))

(* ---------------- the two modes ---------------- *)

(* A fixed loop that calls no library code: sorting, short-lived
   allocation and hashing. The shared host's speed drifts by 10-15% over
   seconds to minutes, for this loop and for the library alike (their
   times correlate at ~0.8), so timing it between ops measures the
   host's speed at that moment. Its two buffers (~0.5 MB) are allocated
   once, so it leaves the major heap, and peak_heap_mb, nearly alone. *)
let reference_sorted = Array.make 50_000 0
let reference_table = Hashtbl.create 8192

let reference_loop () =
  let t0 = now_s () in
  let a = reference_sorted in
  for _ = 1 to 2 do
    Array.iteri (fun i _ -> a.(i) <- (i * 7919) land 0xFFFFF) a;
    Array.sort Int.compare a
  done;
  let acc = ref 0 in
  for i = 0 to 200_000 do
    acc := !acc + fst (Sys.opaque_identity (i, a.(i mod 50_000)))
  done;
  Hashtbl.clear reference_table;
  for i = 0 to 30_000 do
    Hashtbl.replace reference_table (i land 0x1FFF) i
  done;
  ignore (Sys.opaque_identity !acc);
  now_s () -. t0

(* [reference_loop]'s typical time on a shared 2-core x86-64 host *)
let reference_nominal_s = 0.04

(* Each op runs [passes] times, in passes over the whole batch. An op's
   time is the median over its passes of its wall time scaled to the
   nominal host speed: wall * nominal / (mean of the reference loops
   just before and just after it). *)
let passes = 3

let end_to_end w ~tiny ~seed ~seconds ~host =
  let count = max 1 (batch_size w ~tiny ~seconds / passes) in
  let graphs, _, setup_s = setup w ~tiny ~seed ~count in
  let exacts = Array.make count None and failed = ref 0 in
  let shape () = Array.make_matrix count passes 0.0 in
  let walls = shape () and scaled = shape () and allocs = shape () in
  let before = ref (reference_loop ()) and loops = ref [] in
  for p = 0 to passes - 1 do
    Array.iteri
      (fun i g ->
        let r = timed_op w g ~seed ~i ~trace:None in
        let after = reference_loop () in
        (* later passes must repeat the first pass's exact figures *)
        if failed_gate ?reference:exacts.(i) ~i r then incr failed;
        if p = 0 then exacts.(i) <- Some r.exact;
        walls.(i).(p) <- r.wall;
        scaled.(i).(p) <- r.wall *. reference_nominal_s /. ((!before +. after) /. 2.0);
        allocs.(i).(p) <- r.alloc;
        loops := after :: !loops;
        before := after)
      graphs
  done;
  let sum_of_medians m = Array.fold_left (fun acc xs -> acc +. median (Array.to_list xs)) 0.0 m in
  let value = function
    | "setup_s" -> setup_s
    | "wall_s" -> sum_of_medians scaled
    | "alloc_gb" -> sum_of_medians allocs /. 1e9
    | "peak_heap_mb" -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
    | name -> invalid_arg name
  in
  print_result ~units:end_to_end_units ~value ~attempted:(passes * count) ~failed:!failed
    ~extra:
      [ ("unscaled_wall_s", sum_of_medians walls, "s");
        ("reference_loop_s", median !loops, "s") ]
    ~host:(host ~ops:count ~runs:passes ~exact:(digest exacts))

(* a ring large enough that no event is evicted at these sizes;
   [obs.trace_dropped] reports it if one ever is *)
let trace_capacity = 1 lsl 20

let per_layer w ~tiny ~seed ~seconds ~host =
  let count = max 1 (batch_size w ~tiny ~seconds / 4) in
  let graphs, gen_s, _ = setup w ~tiny ~seed ~count in
  let tbl = Hashtbl.create 64 in
  let failed = ref 0 and plain_s = ref 0.0 and traced_s = ref 0.0 and edges = ref 0 in
  let exacts =
    Array.mapi
      (fun i g ->
        let plain = timed_op w g ~seed ~i ~trace:None in
        let traced = timed_op w g ~seed ~i ~trace:(Some trace_capacity) in
        if failed_gate ~i plain then incr failed;
        if failed_gate ~reference:plain.exact ~i traced then incr failed;
        plain_s := !plain_s +. plain.wall;
        traced_s := !traced_s +. traced.wall;
        Option.iter (add_trace tbl) (X.Rounds.trace traced.ledger);
        add_spans tbl ~parent:"" (X.Rounds.tree traced.ledger);
        List.iter
          (fun (label, k) ->
            add tbl ("congest.rounds." ^ if List.mem label ledger_labels then label else "other") (float_of_int k))
          traced.exact.labels;
        let o = traced.out in
        add tbl "congest.sim_rounds" (float_of_int o.sim_rounds);
        add tbl "expander.attempts" (float_of_int o.attempts);
        add tbl "expander.removed" (float_of_int o.removed);
        edges := !edges + X.Graph.num_edges g;
        Option.iter
          (fun r ->
            let s = r.X.Decomposition.stats in
            add tbl "expander.phase2_iters" (float_of_int s.X.Decomposition.phase2_max_iterations);
            add tbl "sparsecut.stats_calls" (float_of_int s.X.Decomposition.partition_calls);
            add tbl "sparsecut.discarded" (float_of_int s.X.Decomposition.discarded_cuts))
          o.decomposition;
        direct_calls tbl w g (algo_rng seed i) o;
        plain.exact)
      graphs
  in
  let get name = Option.value (Hashtbl.find_opt tbl name) ~default:0.0 in
  let traced_ms = !traced_s *. 1e3 in
  (* disjoint shares of the traced wall time: span self times where the
     library opens spans, direct calls where it opens none (Ldd.run_graph) *)
  let attributed =
    match w.kind with
    | Ldd _ -> get "ldd.refine_ms" +. get "ldd.clustering_ms"
    | Triangles ->
      (* the exact enumeration inside run_verified sits outside any span *)
      get "ldd.level_self_ms" +. get "sparsecut.wall_ms" +. get "triangle.level_self_ms"
      +. get "triangle.exact_in_op_ms"
    | Decompose _ -> get "ldd.level_self_ms" +. get "sparsecut.wall_ms" +. get "expander.certify_self_ms"
  in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let attempted = 2 * count in
  let value = function
    | "graph.generate_ms" -> gen_s *. 1e3
    | "spectral.us_per_walk_step" -> ratio (get "spectral.walk_ms" *. 1e3) (get "sparsecut.nibble_steps")
    | "sparsecut.discarded_ratio" -> ratio (get "sparsecut.discarded") (get "sparsecut.stats_calls")
    | "expander.removed_frac" -> get "expander.removed" /. float_of_int !edges
    | "obs.traced_wall_ms" -> traced_ms
    | "obs.attributed_pct" -> 100.0 *. attributed /. traced_ms
    | "obs.trace_overhead_pct" -> 100.0 *. (!traced_s -. !plain_s) /. !plain_s
    | "obs.fail_rate" -> float_of_int !failed /. float_of_int attempted
    | name -> get name
  in
  print_result ~units:per_layer_units ~value ~attempted ~failed:!failed ~extra:[]
    ~host:(host ~ops:count ~runs:2 ~exact:(digest exacts))

(* ---------------- command line ---------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let tiny = ref false and nproc = ref (Domain.recommended_domain_count ()) in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "T measuring time; sets the batch size");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--tiny", Arg.Set tiny, " one tiny graph, for the smoke test");
      ("--nproc", Arg.Set_int nproc, "N online CPUs, recorded with the result") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe [options]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S; one of: %s\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  let host ~ops ~runs ~exact =
    X.Json.Obj
      [ ("hostname", X.Json.String (Unix.gethostname ()));
        ("nproc", X.Json.Int !nproc);
        ("recommended_domain_count", X.Json.Int (Domain.recommended_domain_count ()));
        ("ocaml_version", X.Json.String Sys.ocaml_version);
        ("executor", X.Json.String (default_executor ()));
        ("workload", X.Json.String w.name);
        ("seed", X.Json.Int !seed);
        ("trace", X.Json.Int !trace);
        ("tiny", X.Json.Bool !tiny);
        ("ops", X.Json.Int ops);
        ("runs_per_op", X.Json.Int runs);
        ("exact_digest", X.Json.String exact) ]
  in
  match !trace with
  | 0 -> end_to_end w ~tiny:!tiny ~seed:!seed ~seconds:!seconds ~host
  | 1 -> per_layer w ~tiny:!tiny ~seed:!seed ~seconds:!seconds ~host
  | t ->
    Printf.eprintf "--trace must be 0 or 1, not %d\n" t;
    exit 2
