(** Triangle enumeration through expander decomposition — Theorem 2
    (Section 3), following the Chang–Pettie–Zhang reduction:

    1. Compute an (ε, φ)-expander decomposition of the current edge
       set (ε ≤ 1/6 in the paper; here ε is a parameter and the
       measured fraction is checked).
    2. Within every component V_i, the vertices collectively learn all
       edges incident to V_i and check, DLP-style, every group triple
       — each vertex responsible for a share of triples proportional
       to its degree. Delivering the edge lists takes
       [instances_i = ⌈3·g·m_inc(V_i)/Vol(V_i)⌉] routing queries with
       g = ⌈n^{1/3}⌉ groups (measured from the actual incidence
       counts), each query costing the GKS structure's measured query
       time. Every triangle with at least one intra-component edge is
       detected here.
    3. Recurse on E-star, the inter-component edges; only triangles
       with all three edges in E-star survive a level. ε ≤ 1/2 means
       O(log m) levels. The levels' detected sets are therefore
       disjoint: a triangle detected at a level has an intra-component
       edge, which E-star drops.

    Detection itself is executed centrally per component, and [complete]
    compares the detected set with {!Exact.enumerate}; the round
    figures are measured per the cost model above. *)

type level_report = {
  level : int;
  edges : int; (** edges alive at this level *)
  components : int;
  detected : int; (** triangles detected at this level *)
  decomposition_rounds : int;
  routing_preprocess_rounds : int; (** max over components *)
  routing_query_rounds : int; (** max over components: instances × query *)
  max_instances : int; (** max routing instances per component *)
}

type result = {
  triangles : int array;
      (** all detected triangles, packed by {!Exact.pack} and sorted: the
          levels' disjoint sets (and the fallback's) concatenated *)
  levels : level_report list;
  total_rounds : int;
  enumeration_rounds : int;
  (** total minus the decomposition rounds: the part whose scaling is
      the Õ(n^{1/3}) headline (the decomposition is o(n^{1/3}) only
      asymptotically; at simulation sizes its polylog constants
      dominate — see EXPERIMENTS.md) *)
  messages : int;
      (** messages delivered by the executed protocols across all
          levels (the LDD clusterings inside each decomposition) *)
  words : int; (** machine words delivered, same scope as [messages] *)
  complete : bool; (** [triangles = Exact.enumerate g] *)
}

(** [run ?preset ?ledger ?epsilon ?k_decomp ?k_routing g rng]
    enumerates all triangles of [g]. Defaults: ε = 1/6, k_decomp = 2,
    routing k chosen by {!Dex_routing.Hierarchy.best_k_for} per
    component. With a [ledger], the run sits in a ["triangles"] span
    with one ["level-<i>"] span per recursion level (each containing
    its decomposition's spans) and the accounted routing costs are
    charged under the modelled labels [Routing_preprocess] and
    [Routing_query] of {!Dex_congest.Rounds} (and [Residual_trivial]
    for the fallback exchange). Raises
    [Dex_util.Invariant.Violation] when [g] has more than 2^20 vertices
    (see {!Exact.enumerate}). *)
val run :
  ?preset:Dex_sparsecut.Params.preset ->
  ?ledger:Dex_congest.Rounds.t ->
  ?epsilon:float -> ?k_decomp:int -> ?k_routing:int ->
  Dex_graph.Graph.t -> Dex_util.Rng.t -> result

(** [instances_for ~n ~incident ~volume] is the measured routing
    instance count ⌈3·⌈n^{1/3}⌉·incident/volume⌉ of one component. *)
val instances_for : n:int -> incident:int -> volume:int -> int

(** One or more verified enumeration attempts: the complete (or, on
    [Error], the last incomplete) result, the attempts used and the
    rounds summed across all of them. *)
type attempt_outcome = { value : result; attempts : int; rounds_total : int }

(** [run_verified ?preset ?ledger ?epsilon ?k_decomp ?k_routing
    ?attempts g rng] is the Las Vegas wrapper around {!run}: each
    attempt's detected set is checked against the exact ground truth
    ([complete]) and the enumeration re-runs with fresh randomness on
    a miss, up to [attempts] times (default 3). [Error] carries the
    last attempt — typed failure, no exception. With a [ledger]
    carrying a trace, each verdict emits a retry event labeled
    ["triangles"]. Raises [Dex_util.Invariant.Violation] when
    [attempts < 1]. *)
val run_verified :
  ?preset:Dex_sparsecut.Params.preset ->
  ?ledger:Dex_congest.Rounds.t ->
  ?epsilon:float -> ?k_decomp:int -> ?k_routing:int ->
  ?attempts:int ->
  Dex_graph.Graph.t -> Dex_util.Rng.t ->
  (attempt_outcome, attempt_outcome) Stdlib.result
