(** Andersen–Chung–Lang personalized-PageRank local clustering — the
    successor of the Nibble machinery in the local-clustering
    literature (cited lineage: Spielman–Teng [42] → ACL push), used
    here as an additional sparse-cut baseline.

    The push algorithm maintains a residual r and an approximation p
    of the PageRank vector ppr(α, χ_src); pushing a vertex moves an α
    fraction of its residual into p and spreads the rest over its
    neighbors, until every vertex satisfies r(v) < ε·deg(v). The
    sweep over p/deg then yields a cut of conductance
    O(√(φ·log m)) around any φ-sparse set containing the seed.

    The push loop is inherently sequential but local; its round-cost
    analogue is the number of pushes (each push is one neighborhood
    exchange). *)

type t = {
  cut : int array; (** best sweep prefix, sorted *)
  conductance : float;
  balance : float;
  pushes : int; (** push operations performed *)
  support : int; (** support size of the approximate PageRank *)
}

(** [run ?alpha ?eps g ~src] computes the approximate PageRank from
    [src] (teleport α, default 0.1; accuracy ε, default 1/(20·m)) and
    sweeps it. Returns [None] when no finite-conductance prefix
    exists (isolated seed). *)
val run : ?alpha:float -> ?eps:float -> Dex_graph.Graph.t -> src:int -> t option

(** [approximate_pagerank ?alpha ?eps g ~src] exposes the raw (p, r)
    pair for tests, as dense arrays indexed by vertex, and the number
    of pushes: p underestimates the true PageRank and every residual
    obeys r(v) < ε·deg(v) on return. *)
val approximate_pagerank :
  ?alpha:float -> ?eps:float -> Dex_graph.Graph.t -> src:int ->
  float array * float array * int
