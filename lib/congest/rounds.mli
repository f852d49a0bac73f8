(** Round-cost ledger with hierarchical spans.

    Every simulated CONGEST computation charges its rounds here, under
    a {!label}, so that benchmark tables can report both the total
    round count and its breakdown (e.g. how many rounds Phase 1 of the
    expander decomposition spent in low-diameter decomposition versus
    sparse-cut computation). A label is either {!executed} — a
    message-passing protocol whose actual round loop
    {!Network.run_for}/{!Network.run_active} charge — or {!modelled} —
    a phase charged through {!charge} at the cost its lemma states,
    evaluated on the measured run (see DESIGN.md §2). The two sets are
    closed, so the compiler keeps them apart.

    Three views of the same charges coexist:

    - the {e flat} view ({!phases}, {!by_phase}): per-label totals;
    - the {e tree} view ({!tree}): components may wrap work in
      {!with_span}, and every charge is then attributed to a leaf named
      by its label under the innermost open span, so the nested
      Phase-1/Phase-2 structure of a decomposition becomes visible.
      Leaf round totals always sum to {!total} by construction;
    - the {e clock} ({!makespan}): the simulated round count of the
      whole computation. Every charge advances it, so sequential work
      adds; branches run through {!parallel} start from the same
      instant and the clock resumes at the latest of them, so
      concurrent components cost their maximum. {!total} is the
      sequential sum of every charge, [makespan ≤ total], with
      equality when no {!parallel} ran. An algorithm reports its
      rounds as the change in makespan across its call.

    Spans also self-profile the simulator: each span accumulates the
    wall-clock nanoseconds spent inside its body, and when a
    {!Dex_obs.Trace.t} is attached ({!attach_trace}) each span
    open/close is mirrored as a structured trace event. *)

(** {1 Round labels} *)

(** Protocols the simulator runs message by message. *)
type executed =
  | Mpx_clustering
      (** ["mpx-clustering"]: Clustering(β) of Appendix B, ⌈2·ln n/β⌉
          epochs (Lemma 12) *)
  | Bfs  (** ["bfs"]: the BFS-tree flood the aggregations of Lemmas 9 and 10 run over *)
  | Leader  (** ["leader"]: minimum-id flooding, a textbook primitive no lemma states *)
  | Walk_protocol
      (** ["walk-protocol"]: the truncated lazy walk, one round per
          step — the diffusion of Lemma 9 *)
  | Bfs_reliable
      (** ["bfs-reliable"]: {!Bfs} with ack/retransmit, outside the
          paper's fault-free model *)
  | Leader_reliable
      (** ["leader-reliable"]: {!Leader} with ack/retransmit, outside
          the paper's fault-free model *)

(** Phases charged at the cost a lemma states, evaluated on the
    measured run. *)
type modelled =
  | Ldd_refine
      (** ["ldd-refine"]: the V_D/V_S refinement of Appendix B.1
          (Lemma 21, with Lemma 16's ball-size estimates) *)
  | Nibble_generate  (** ["nibble-generate"]: ParallelNibble's instance generation (Lemma 10) *)
  | Nibble_execute
      (** ["nibble-execute"]: the k Nibble copies run at once, per-copy
          rounds times the realized congestion (Lemma 10) *)
  | Nibble_select  (** ["nibble-select"]: the binary search for i* (Lemma 10) *)
  | Routing_preprocess
      (** ["routing-preprocess"]: building the Ghaffari–Kuhn–Su routing
          hierarchy (GKS Lemmas 3.2 and 3.3, Theorem 2) *)
  | Routing_query
      (** ["routing-query"]: the routing queries that deliver the edge
          lists (GKS Lemma 3.4, Theorem 2) *)
  | Residual_trivial
      (** ["residual-trivial"]: the trivial neighborhood exchange on a
          residual graph the decomposition does not shrink (the trivial
          CONGEST line of experiment E7) *)

type label = Executed of executed | Modelled of modelled

(** [name label] is the label's printed name, the string in brackets
    above (perfbench reads it as [congest.rounds.<name>]). *)
val name : label -> string

(** {1 The ledger} *)

type t

(** [create ()] is an empty ledger with no trace attached. *)
val create : unit -> t

(** [attach_trace t trace] mirrors span open/close events to [trace];
    networks created over this ledger also emit per-round ticks there.
    Attach before creating networks — {!Network.create} caches the
    handle. [None] detaches. *)
val attach_trace : t -> Dex_obs.Trace.t option -> unit

(** [trace t] is the attached trace, if any. *)
val trace : t -> Dex_obs.Trace.t option

(** [charge t ~label k] adds [k] modelled rounds to the leaf [label]
    under the innermost open span and advances the clock by [k].
    Raises [Dex_util.Invariant.Violation] on negative [k]. *)
val charge : t -> label:modelled -> int -> unit

(** [charge_executed t ~label k] is {!charge} for the rounds a protocol
    really ran; {!Network.run_for} and {!Network.run_active} call it. *)
val charge_executed : t -> label:executed -> int -> unit

(** [with_span t name f] runs [f ()] inside a span [name] nested under
    the innermost open span. Re-entering the same name under the same
    parent accumulates into one node (the tree stays compact and
    deterministic). The span records the rounds charged and the
    wall-clock spent during [f]; the span is closed even if [f]
    raises. *)
val with_span : t -> string -> (unit -> 'a) -> 'a

(** [total t] is the number of rounds charged so far. *)
val total : t -> int

(** [makespan t] is the clock: rounds charged so far with the branches
    of every {!parallel} counted at their maximum. *)
val makespan : t -> int

(** [parallel t f xs] runs [f x] for each [x] of [xs] in order, each
    branch starting from the clock at the call; the clock is then left
    at the largest branch's end (unchanged for an empty list). It opens
    no span and leaves {!total}, {!phases} and {!tree} to the
    branches' own charges. *)
val parallel : t -> ('a -> unit) -> 'a list -> unit

(** The Las Vegas loops; a retry event names its loop ["decompose"],
    ["sparse-cut"] or ["triangles"]. *)
type loop = Decompose | Sparse_cut | Triangles

(** [retry t ~loop ~attempts f] is the Las Vegas loop: it calls
    [f 1], [f 2], … where [f i] returns [(value, certified)], and stops
    at the first certified attempt or after [attempts] of them. Each
    attempt emits one retry event naming [loop] on the attached trace,
    if any. The result is [Ok value] of the certified attempt
    or [Error value] of the last one, the attempts used, and the
    makespan the attempts added. Raises [Dex_util.Invariant.Violation]
    when [attempts < 1]. *)
val retry :
  t -> loop:loop -> attempts:int -> (int -> 'a * bool) -> ('a, 'a) result * int * int

(** [phases t] sums the tree's charge leaves per label, descending by
    cost; equal costs are ordered by name, so the listing is
    deterministic. A label charged only 0 rounds is listed with 0. *)
val phases : t -> (label * int) list

(** [by_phase t] is {!phases} with each label printed by {!name}. *)
val by_phase : t -> (string * int) list

(** One node of the span tree: [rounds] = [self] + sum of children's
    [rounds]; [self] is non-zero only on charge leaves, whose [span] is
    their label's {!name}; [wall_ns] is the simulator wall-clock
    accumulated by {!with_span}. Children appear in first-creation
    order. *)
type tree = { span : string; rounds : int; self : int; wall_ns : int; children : tree list }

(** [tree t] is the hierarchical view of every charge, rooted at a
    synthetic ["total"] node with [rounds = total t]. *)
val tree : t -> tree
