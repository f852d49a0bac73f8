(** RandomNibble and ParallelNibble (Appendix A.3–A.4).

    RandomNibble draws the start vertex from the degree distribution
    ψ_V and the scale b with Pr[b = i] ∝ 2^{-i}, then runs
    ApproximateNibble.

    ParallelNibble executes k = [Params.parallel_copies] RandomNibbles
    "simultaneously"; if any edge participates in more than
    w = 10⌈ln Vol(V)⌉ of them the whole call aborts with ∅ (the
    congestion failsafe of Lemma 7 — the event B), otherwise it
    returns the union U_{i*} of the first i* cuts, i* maximal with
    Vol(U_{i*}) ≤ (23/24)·Vol(V). *)

type t = {
  cut : int array; (** the returned set C (possibly empty), sorted *)
  rounds : int; (** measured simulated rounds (Lemma 10 accounting) *)
  copies : int; (** k *)
  aborted : bool; (** true iff the w-overlap cap was hit *)
  max_overlap : int; (** max per-edge participation observed *)
  nibbles : Nibble.outcome list; (** the underlying runs, in order *)
}

(** [random_nibble params g rng] is one RandomNibble run. *)
val random_nibble : Params.t -> Dex_graph.Graph.t -> Dex_util.Rng.t -> Nibble.outcome

(** [run ?k ?ledger params g rng] is ParallelNibble(G, φ); [k]
    overrides the number of copies (tests use this to force overlap).
    When [ledger] is given the accounted cost is also charged there,
    split into its Lemma 10 components under the modelled labels
    [Nibble_generate], [Nibble_execute] and [Nibble_select] of
    {!Dex_congest.Rounds}. *)
val run :
  ?k:int -> ?ledger:Dex_congest.Rounds.t ->
  Params.t -> Dex_graph.Graph.t -> Dex_util.Rng.t -> t
