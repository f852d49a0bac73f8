module Graph = Dex_graph.Graph
module Decomposition = Dex_decomp.Decomposition
module Hierarchy = Dex_routing.Hierarchy
module Rounds = Dex_congest.Rounds
module Rng = Dex_util.Rng

type level_report = {
  level : int;
  edges : int;
  components : int;
  detected : int;
  decomposition_rounds : int;
  routing_preprocess_rounds : int;
  routing_query_rounds : int;
  max_instances : int;
}

type result = {
  triangles : int array;
  levels : level_report list;
  total_rounds : int;
  enumeration_rounds : int;
  messages : int;
  words : int;
  complete : bool;
}

let instances_for ~n ~incident ~volume =
  let groups = max 1 (int_of_float (Float.ceil (float_of_int n ** (1.0 /. 3.0)))) in
  max 1 (int_of_float (Float.ceil (3.0 *. float_of_int groups *. float_of_int incident /. float_of_int (max 1 volume))))

let run ?preset ?ledger ?(epsilon = 1.0 /. 6.0) ?(k_decomp = 2) ?k_routing g rng =
  let ledger = match ledger with Some l -> l | None -> Rounds.create () in
  let start = Rounds.makespan ledger in
  let n = Graph.num_vertices g in
  let ground_truth = Exact.enumerate g in
  (* one array per level; the levels' sets are disjoint, since a
     triangle detected at a level has an intra-part edge, which E-star
     drops *)
  let found = ref [] in
  let levels = ref [] in
  let enumeration_rounds = ref 0 in
  let messages = ref 0 in
  let words = ref 0 in
  let current = ref g in
  let level = ref 0 in
  let max_levels =
    2 * max 1 (int_of_float (Float.ceil (log (Float.max 2.0 (float_of_int (Graph.num_edges g))) /. log 2.0)))
  in
  let continue = ref (Graph.num_plain_edges g > 0) in
  Rounds.with_span ledger "triangles" @@ fun () ->
  while !continue && !level < max_levels do
    incr level;
    Rounds.with_span ledger (Printf.sprintf "level-%d" !level) @@ fun () ->
    let gcur = !current in
    let decomp = Decomposition.run ?preset ~ledger ~epsilon ~k:k_decomp gcur rng in
    messages := !messages + decomp.Decomposition.stats.Decomposition.messages;
    words := !words + decomp.Decomposition.stats.Decomposition.words;
    let part_of = decomp.Decomposition.part_of in
    (* triangles of the current graph with ≥1 intra-component edge are
       detected at this level: the component owning that edge learns
       every edge incident to itself, which includes the other two *)
    let intra u v = part_of.(u) = part_of.(v) in
    let here = ref [] in
    Exact.iter gcur (fun a b c ->
        if intra a b || intra b c || intra a c then here := Exact.pack a b c :: !here);
    let here = Array.of_list !here in
    found := here :: !found;
    (* one pass over the current edges: the edges incident to each
       component, and E-star, the inter-component ones *)
    let incident = Array.make (List.length decomp.Decomposition.parts) 0 in
    let estar = ref [] in
    Graph.iter_edges gcur (fun u v ->
        if u <> v then begin
          let pu = part_of.(u) and pv = part_of.(v) in
          incident.(pu) <- incident.(pu) + 1;
          if pv <> pu then begin
            incident.(pv) <- incident.(pv) + 1;
            estar := (u, v) :: !estar
          end
        end);
    (* measured routing cost per component, components in parallel *)
    let max_pre = ref 0 and max_query = ref 0 and max_inst = ref 0 in
    List.iteri
      (fun i part ->
        if Array.length part > 1 then begin
          let sub, _ = Graph.induced_subgraph gcur part in
          if Graph.num_plain_edges sub > 0 then begin
            let volume = Graph.volume gcur part in
            let instances = instances_for ~n ~incident:incident.(i) ~volume in
            let hierarchy =
              match k_routing with
              | Some k -> Hierarchy.build sub rng ~k
              | None -> Hierarchy.best_k_for sub rng ~queries:instances ~k_max:4
            in
            max_pre := max !max_pre hierarchy.Hierarchy.preprocess_rounds;
            max_query := max !max_query (instances * hierarchy.Hierarchy.query_rounds);
            max_inst := max !max_inst instances
          end
        end)
      decomp.Decomposition.parts;
    enumeration_rounds := !enumeration_rounds + !max_pre + !max_query;
    Rounds.charge ledger ~label:Routing_preprocess !max_pre;
    Rounds.charge ledger ~label:Routing_query !max_query;
    levels :=
      { level = !level;
        edges = Graph.num_plain_edges gcur;
        components = List.length decomp.Decomposition.parts;
        detected = Array.length here;
        decomposition_rounds = decomp.Decomposition.stats.Decomposition.rounds;
        routing_preprocess_rounds = !max_pre;
        routing_query_rounds = !max_query;
        max_instances = !max_inst }
      :: !levels;
    (* recurse on E-star *)
    let next = Graph.of_edges ~n !estar in
    if Graph.num_plain_edges next = 0 then continue := false
    else if Graph.num_plain_edges next >= Graph.num_plain_edges gcur then begin
      (* no progress (decomposition kept everything separate):
         fall back to detecting the rest locally — costs the trivial
         exchange on the residual graph *)
      found := Exact.enumerate next :: !found;
      let cost = Baselines.trivial_rounds next in
      enumeration_rounds := !enumeration_rounds + cost;
      Rounds.charge ledger ~label:Residual_trivial cost;
      continue := false
    end
    else current := next
  done;
  let triangles = Array.concat !found in
  Array.stable_sort Int.compare triangles;
  { triangles;
    levels = List.rev !levels;
    total_rounds = Rounds.makespan ledger - start;
    enumeration_rounds = !enumeration_rounds;
    messages = !messages;
    words = !words;
    complete = triangles = ground_truth }

type attempt_outcome = { value : result; attempts : int; rounds_total : int }

let run_verified ?preset ?ledger ?epsilon ?k_decomp ?k_routing ?(attempts = 3) g rng =
  Dex_util.Invariant.require (attempts >= 1) ~where:"Expander_enum.run_verified"
    "attempts must be >= 1";
  let ledger = match ledger with Some l -> l | None -> Rounds.create () in
  let outcome, attempts, rounds_total =
    Rounds.retry ledger ~loop:Triangles ~attempts (fun i ->
        let r = run ?preset ~ledger ?epsilon ?k_decomp ?k_routing g (Rng.split rng i) in
        (r, r.complete))
  in
  match outcome with
  | Ok value -> Ok { value; attempts; rounds_total }
  | Error value -> Error { value; attempts; rounds_total }
