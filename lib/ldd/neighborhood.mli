(** Ball edge counting — the |E(N^d(v))| queries of Lemmas 14–16.

    [E(N^d(v))] is the set of edges with both endpoints within hop
    distance d of v; self-loops of ball members count. The refinement
    step of LowDiamDecomposition classifies vertices by comparing ball
    edge counts at two radii.

    The simulation computes the counts centrally and exactly, as
    radius-d searches on one {!Dex_graph.Bfs} workspace shared by all
    n balls: no hashing, no sorting, and each ball costs only what it
    reaches. When the radius covers a whole component, one unbounded
    search gives the component's edge total and every ball in it is
    that total. The CONGEST cost charged is that of Lemma 16:
    O(d·log²n / f³) rounds for an (1+f)-approximate count at radius d. *)

(** [ball_edge_count g ~d v] = \|E(N^d(v))\| computed exactly by a
    depth-bounded BFS from [v]. Raises [Dex_util.Invariant.Violation]
    when [d < 0]. *)
val ball_edge_count : Dex_graph.Graph.t -> d:int -> int -> int

(** [all_ball_edge_counts g ~d] computes the count for every vertex
    on one workspace. When [d] is at least twice the eccentricity of
    the component's smallest vertex, the component total is reused
    without per-vertex searches. Raises [Dex_util.Invariant.Violation]
    when [d < 0]. *)
val all_ball_edge_counts : Dex_graph.Graph.t -> d:int -> int array

(** [lemma16_rounds ~n ~d ~f] is the round charge of the distributed
    estimation algorithm of Lemma 16 with approximation [f]. *)
val lemma16_rounds : n:int -> d:int -> f:float -> int
