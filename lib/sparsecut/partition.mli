(** Partition — the nearly most balanced sparse cut (Theorem 3,
    Appendix A.4).

    Runs ParallelNibble on the remaining graph G{W_{i-1}} for up to s
    iterations, peeling each returned cut off, and stops as soon as
    the peeled volume reaches (1/48)·Vol(V) (i.e. Vol(W_i) ≤
    (47/48)·Vol(V)). Theorem 3 guarantees, w.h.p., that when
    Φ(G) ≤ φ the union C has bal(C) ≥ min{b/2, 1/48} — b the balance
    of a most balanced φ-conductance cut — and
    Φ(C) = O(φ^{1/3}·log^{5/3} n); when Φ(G) > φ the output is ∅ or
    still O(φ^{1/3}·log^{5/3} n)-sparse.

    With the [Practical] preset the iteration count s is capped and
    the loop additionally stops after [idle_limit] consecutive empty
    ParallelNibble results (a Monte-Carlo shortcut; see DESIGN.md §2). *)

type t = {
  cut : int array; (** C, sorted; may be empty *)
  conductance : float; (** Φ(C) in the input graph; infinity if empty *)
  balance : float; (** bal(C) *)
  rounds : int; (** total simulated rounds (Lemma 11 accounting) *)
  iterations : int; (** ParallelNibble calls performed *)
  aborted_copies : int; (** ParallelNibble calls that hit the w-cap *)
}

(** [run ?p ?ledger params g rng] executes Partition(G, φ, p); [p] is
    the failure probability driving the iteration count (default 1/n²).
    The body runs inside a ["partition"] span of [ledger] (a private
    one when none is given) and the accounted ParallelNibble costs are
    charged to it (modelled labels [Nibble_generate], [Nibble_execute]
    and [Nibble_select] of {!Dex_congest.Rounds}); [rounds] is
    the change in its makespan. *)
val run :
  ?p:float -> ?ledger:Dex_congest.Rounds.t ->
  Params.t -> Dex_graph.Graph.t -> Dex_util.Rng.t -> t

(** [peel params ~max_iterations g next] is the W-peeling loop that
    {!run} and the sequential {!St_reference.run} share. Each of at
    most [max_iterations] iterations calls [next] on the remaining
    graph G{W} (a saturated subgraph, local ids) and peels the smaller
    side of the cut it returns (empty for a miss) off W. The loop stops
    once Vol(W) ≤ (47/48)·Vol(V), after [params.idle_limit]
    consecutive misses, or when W is empty. The result carries the
    sorted union, its conductance and balance in [g], and the
    iterations run; [rounds] and [aborted_copies] are 0, for the
    caller to fill in. *)
val peel :
  Params.t -> max_iterations:int -> Dex_graph.Graph.t -> (Dex_graph.Graph.t -> int array) -> t

(** [certified_no_sparse_cut t] is [true] when Partition returned ∅ —
    the caller treats the graph as a φ-expander (Theorem 3, case 2). *)
val certified_no_sparse_cut : t -> bool

(** One or more verified Partition attempts: the accepted (or, on
    [Error], the best-conductance) result, the attempts used and the
    simulated rounds summed across all of them. *)
type attempt_outcome = { value : t; attempts : int; rounds_total : int }

(** [acceptable ~bound t] is the Las Vegas acceptance predicate: the
    graph was certified a φ-expander (empty cut) or the returned cut's
    measured conductance meets [bound] (the caller's h(φ)). *)
val acceptable : bound:float -> t -> bool

(** [run_verified ?attempts ?p ?ledger ~bound params g rng] re-runs
    Partition with fresh randomness (streams split off [rng]) until
    {!acceptable} holds, up to [attempts] times (default 3). [Error]
    carries the best attempt seen — typed failure reporting, never an
    exception. With a [ledger], each attempt runs in an
    ["attempt-<i>"] span and, when a trace is attached, emits a retry
    event labeled ["sparse-cut"]. Raises [Dex_util.Invariant.Violation] when
    [attempts < 1]. *)
val run_verified :
  ?attempts:int ->
  ?p:float ->
  ?ledger:Dex_congest.Rounds.t ->
  bound:float ->
  Params.t ->
  Dex_graph.Graph.t ->
  Dex_util.Rng.t ->
  (attempt_outcome, attempt_outcome) result
