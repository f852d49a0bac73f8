(** Sweep cuts: order vertices by normalized walk mass ρ(v) = p(v)/deg(v)
    and scan prefixes π(1..j), maintaining the cut size incrementally.
    This is the π̃_t machinery of the paper's Appendix A.1. *)

(** Measurements of one prefix π(1..j) of a sweep order. *)
type prefix = {
  len : int; (** j: number of vertices in the prefix *)
  volume : int; (** Vol(π(1..j)) in the ambient graph *)
  cut : int; (** \|∂(π(1..j))\| *)
  conductance : float; (** Φ as defined for the ambient graph *)
  last_rho : float; (** ρ of the j-th (last) vertex of the prefix *)
}

(** A completed sweep: the order and the stats of all its prefixes
    ([prefixes.(j-1)] describes π(1..j)). *)
type t = { ordered : int array; prefixes : prefix array }

(** [take sweep j] materializes π(1..j) as a vertex array. Raises
    [Dex_util.Invariant.Violation] unless 0 ≤ j ≤ the order's length. *)
val take : t -> int -> int array

(** [scan g p] measures every prefix of the sweep order of [p], the
    support of [p] by decreasing ρ (ties by vertex id — the paper
    breaks ties by ID); O(\|support\|·avg-deg + sort). [scan g]
    allocates its O(n) membership scratch once; bind it to reuse the
    scratch on every sweep of a walk, as with {!Walk.step}. A one-off
    [scan g p] pays that O(n) allocation on top. *)
val scan : Dex_graph.Graph.t -> Walk.sparse -> t

(** [best_prefix sweep] is the first prefix of [sweep] with the
    smallest finite conductance (both sides of positive volume), if
    any. *)
val best_prefix : t -> prefix option

(** [best_cut g p] is [(sweep, j)] where π(1..j) is
    [best_prefix (scan g p)], if any. Bind [best_cut g] to reuse
    one scratch, as with {!scan}; a one-off call also pays O(n). *)
val best_cut : Dex_graph.Graph.t -> Walk.sparse -> (t * int) option

(** [scan_vector g x] sweeps an arbitrary dense vector over all
    vertices in decreasing [x] order (spectral baseline). *)
val scan_vector : Dex_graph.Graph.t -> float array -> t
