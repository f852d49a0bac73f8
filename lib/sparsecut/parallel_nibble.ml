module Graph = Dex_graph.Graph
module Rng = Dex_util.Rng

type t = {
  cut : int array;
  rounds : int;
  copies : int;
  aborted : bool;
  max_overlap : int;
  nibbles : Nibble.outcome list;
}

let sample_scale params rng =
  (* Pr[b = i] = 2^{-i} / (1 - 2^{-ℓ}) for i in 1..ℓ *)
  let ell = params.Params.ell in
  let weights = Array.init ell (fun i -> 2.0 ** float_of_int (-(i + 1))) in
  1 + Rng.weighted_index rng weights

let sample_start g rng =
  let n = Graph.num_vertices g in
  let degrees = Array.init n (fun v -> float_of_int (Graph.degree g v)) in
  Rng.weighted_index rng degrees

let random_nibble params g rng =
  let src = sample_start g rng in
  let b = sample_scale params rng in
  Nibble.approximate params g ~src ~b

let run ?k ?ledger params g rng =
  let total_volume = Graph.total_volume g in
  if total_volume = 0 then
    { cut = [||]; rounds = 0; copies = 0; aborted = false; max_overlap = 0; nibbles = [] }
  else begin
    let k = match k with Some k -> k | None -> Params.parallel_copies params ~volume:total_volume in
    let w = Params.overlap_bound params ~volume:total_volume in
    let outcomes = List.init k (fun _ -> random_nibble params g rng) in
    (* per-edge participation counts over P-star of each copy, one per
       CSR slot: a copy counts an edge once, at the leftmost slot out of
       its smaller endpoint, from that endpoint if it participates *)
    let offsets = Graph.csr_offsets g in
    let overlap = Array.make offsets.(Graph.num_vertices g) 0 in
    let member = Array.make (Graph.num_vertices g) (-1) in
    let max_overlap = ref 0 in
    List.iteri
      (fun copy (outcome : Nibble.outcome) ->
        Array.iter (fun v -> member.(v) <- copy) outcome.Nibble.participants;
        Array.iter
          (fun v ->
            let adj = Graph.neighbors g v in
            Array.iteri
              (fun i u ->
                if (i = 0 || adj.(i - 1) <> u) && (v < u || member.(u) <> copy) then begin
                  let e = if v < u then offsets.(v) + i else offsets.(u) + Graph.neighbor_rank g u v in
                  overlap.(e) <- overlap.(e) + 1;
                  if overlap.(e) > !max_overlap then max_overlap := overlap.(e)
                end)
              adj)
          outcome.Nibble.participants)
      outcomes;
    let aborted = !max_overlap > w in
    (* Lemma 10 cost model, fully measured:
       - instance generation: one BFS-tree build + token descent,
         charged as the height of an actual BFS tree would be; we use
         the max nibble walk length as the tree-depth proxy measured
         from this very run (every participant sits within that hop
         distance of its start vertex);
       - simultaneous execution: the k copies time-share each edge, so
         the wall-clock is the per-copy max times the realized
         congestion (capped at w);
       - selection of i*: a log-many binary search of broadcasts. *)
    let max_copy_rounds =
      List.fold_left (fun acc (o : Nibble.outcome) -> max acc o.Nibble.rounds) 0 outcomes
    in
    let depth_proxy =
      List.fold_left
        (fun acc (o : Nibble.outcome) -> max acc o.Nibble.steps_executed)
        1 outcomes
    in
    let congestion = max 1 (min !max_overlap w) in
    let ceil_log2 x = int_of_float (Float.ceil (log (Float.max 2.0 x) /. log 2.0)) in
    let gen_rounds = depth_proxy + ceil_log2 (float_of_int (max 2 k)) in
    let select_rounds = depth_proxy * ceil_log2 (float_of_int (max 2 k)) in
    let execute_rounds = congestion * max_copy_rounds in
    let rounds = gen_rounds + execute_rounds + select_rounds in
    (match ledger with
    | Some l ->
      let module Rounds = Dex_congest.Rounds in
      Rounds.charge l ~label:Nibble_generate gen_rounds;
      Rounds.charge l ~label:Nibble_execute execute_rounds;
      Rounds.charge l ~label:Nibble_select select_rounds
    | None -> ());
    if aborted then
      { cut = [||]; rounds; copies = k; aborted; max_overlap = !max_overlap; nibbles = outcomes }
    else begin
      (* prefix-union selection: largest i* with Vol(U_{i*}) ≤ 23/24·Vol *)
      let threshold = 23 * total_volume / 24 in
      let members = Array.make (Graph.num_vertices g) false in
      let vol = ref 0 in
      let best = ref [||] in
      (try
         List.iter
           (fun (o : Nibble.outcome) ->
             (match o.Nibble.result with
             | None -> ()
             | Some cut ->
               Array.iter
                 (fun v ->
                   if not members.(v) then begin
                     members.(v) <- true;
                     vol := !vol + Graph.degree g v
                   end)
                 cut.Nibble.vertices);
             if !vol <= threshold then best := Dex_graph.Metrics.vertices_of_mask members
             else raise Exit)
           outcomes
       with Exit -> ());
      { cut = !best; rounds; copies = k; aborted; max_overlap = !max_overlap; nibbles = outcomes }
    end
  end
