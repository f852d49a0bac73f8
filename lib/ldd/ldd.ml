module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Network = Dex_congest.Network
module Rounds = Dex_congest.Rounds

type t = {
  parts : int array list;
  cut_edges : (int * int) list;
  rounds : int;
  messages : int;
  words : int;
  beta : float;
}

let run ?ka ?kb net ~beta rng =
  let g = Network.graph net in
  let ledger = Network.rounds net in
  let before = Rounds.makespan ledger in
  let msgs_before = Network.messages_sent net in
  let words_before = Network.words_sent net in
  let refine = Refine.run ?ka ?kb g ~beta in
  Rounds.charge ledger ~label:Ldd_refine refine.Refine.rounds;
  let clustering = Clustering.run net ~beta rng in
  (* keep inter-cluster edges whose endpoints are both deep in V_D *)
  let cut = ref [] in
  Graph.iter_edges g (fun u v ->
      if
        u <> v
        && clustering.Clustering.cluster.(u) <> clustering.Clustering.cluster.(v)
        && ((not refine.Refine.in_vd.(u)) || not refine.Refine.in_vd.(v))
      then cut := (u, v) :: !cut);
  let remaining = Graph.remove_edges g !cut in
  let parts = Metrics.connected_components remaining in
  let after = Rounds.makespan ledger in
  { parts;
    cut_edges = !cut;
    rounds = after - before;
    messages = Network.messages_sent net - msgs_before;
    words = Network.words_sent net - words_before;
    beta }

let run_graph ?ka ?kb ?ledger ?vertex_map g ~beta rng =
  let ledger = match ledger with Some l -> l | None -> Rounds.create () in
  let net = Network.create ?vertex_map g ledger in
  run ?ka ?kb net ~beta rng

let max_part_diameter g t =
  List.fold_left (fun acc part -> max acc (Metrics.subset_diameter g part)) 0 t.parts

let diameter_bound ?(ka = 5.0) ?(kb = 5.0) ~n ~beta () =
  (* Lemma 13: diameter ≤ 2(d₁+1) + d₂ with d₁ = 4·ln n/β the cluster
     diameter bound and d₂ ≤ 20·a·b the invariant-H bound on V_D
     components (a = ⌈ka·ln n/β⌉, b = ⌈kb·ln n/β⌉) — Θ(log²n/β²). *)
  let lf = log (Float.max 2.0 (float_of_int n)) in
  let a = Float.ceil (ka *. lf /. beta) in
  let b = Float.ceil (kb *. lf /. beta) in
  let d1 = Float.ceil (4.0 *. lf /. beta) in
  int_of_float ((2.0 *. (d1 +. 1.0)) +. (20.0 *. a *. b))
