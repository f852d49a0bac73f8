(** Lazy random walks.

    The walk matrix is M = (A·D⁻¹ + I)/2 (the paper's Appendix A): in
    one step half the mass stays put and half spreads across incident
    edges. A self-loop at [v] routes its share of the moving mass back
    to [v], which is what makes the saturated subgraph G{S} behave
    like G for walk purposes.

    Distributions come in a dense form (float arrays indexed by
    vertex) and a sparse form (the support as ascending vertex ids
    beside their masses) — the sparse form is what makes truncated
    Nibble walks cheap, and its fixed order makes every pass over it
    deterministic without sorting. *)

(** A sparse distribution: [mass.(i)] is the mass at vertex [ids.(i)],
    and [ids] is strictly ascending. *)
type sparse = private { ids : int array; mass : float array }

(** [indicator v] is χ_v as a sparse distribution. *)
val indicator : int -> sparse

(** [of_sorted ~ids ~mass] is the sparse distribution with mass
    [mass.(i)] at [ids.(i)]. Raises [Dex_util.Invariant.Violation]
    unless [ids] is strictly ascending and as long as [mass]. *)
val of_sorted : ids:int array -> mass:float array -> sparse

(** [degree_distribution g] is ψ_V: mass deg(v)/Vol(V) at each v. *)
val degree_distribution : Dex_graph.Graph.t -> float array

(** [step_dense g p] is M·p for a dense distribution. *)
val step_dense : Dex_graph.Graph.t -> float array -> float array

(** [step g ~eps p] is the paper's truncated step [\[M·p\]_ε]: M·p with
    every entry p(v) < 2·eps·deg(v) dropped; [~eps:0.0] keeps the whole
    support of M·p. Each target sums its shares in ascending source
    order, as {!step_dense} does, so the kept masses equal
    {!step_dense}'s bit for bit. [step g] allocates its O(n) scratch
    once; bind it to reuse the scratch on every step of a walk. A step
    lists its support in id order by reading the scratch marks when
    the support holds at least n/64 vertices, and by sorting it
    otherwise (about where the two cost the same); the two give the
    same ids. *)
val step : Dex_graph.Graph.t -> eps:float -> sparse -> sparse

(** [walk_from g ~src ~steps] runs [steps] un-truncated dense steps
    from χ_src. *)
val walk_from : Dex_graph.Graph.t -> src:int -> steps:int -> float array

(** [truncated_walk g ~src ~eps ~steps] runs the truncated walk
    p̃_t = \[M·p̃_{t-1}\]_ε and returns the distributions p̃_0 … p̃_steps
    (index t = step count). This is the computation at the heart of
    Nibble. *)
val truncated_walk :
  Dex_graph.Graph.t -> src:int -> eps:float -> steps:int -> sparse array

(** [rho g p v] is p(v)/deg(v), the normalized mass ρ(v); 0 when
    deg(v) = 0 or v unsupported. *)
val rho : Dex_graph.Graph.t -> sparse -> int -> float

(** [mass p] is the total mass of a sparse distribution. *)
val mass : sparse -> float
