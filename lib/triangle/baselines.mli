(** Baseline triangle-enumeration round costs, measured per graph.

    These are the comparison lines of experiment E7:

    - {b trivial CONGEST}: every vertex ships its adjacency list to
      every neighbor, then checks wedges locally. The round cost is
      the worst per-edge load: max_v ⌈(Σ_{u∈N(v)} deg u)/deg v⌉.
    - {b Dolev–Lenzen–Peled} (CONGESTED-CLIQUE): executed by
      {!Dlp.run}, whose [rounds] field is the clique-model line.
    - {b Izumi–Le Gall} CONGEST bound Õ(n^{3/4}): included as the
      analytic reference line c·n^{3/4}·log n (their algorithm
      pre-dates expander decompositions and is not reimplemented;
      see DESIGN.md). *)

(** [trivial_rounds g] — measured, the all-neighborhood exchange. *)
val trivial_rounds : Dex_graph.Graph.t -> int

(** [izumi_le_gall_rounds ~n] = ⌈n^{3/4}·log₂ n⌉. *)
val izumi_le_gall_rounds : n:int -> int

(** [lower_bound_rounds ~n] = ⌈n^{1/3}/log₂ n⌉, the Izumi–Le Gall /
    Pandurangan–Robinson–Scquizzato lower bound every algorithm is
    plotted against. *)
val lower_bound_rounds : n:int -> int
