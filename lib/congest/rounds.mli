(** Round-cost ledger with hierarchical spans.

    Every simulated CONGEST computation charges its rounds here, under
    a phase label, so that benchmark tables can report both the total
    round count and its breakdown (e.g. how many rounds Phase 1 of the
    expander decomposition spent in low-diameter decomposition versus
    sparse-cut computation). Executed message-passing protocols charge
    their actual round loop; accounted phases charge the measured cost
    of the primitive they stand for (see DESIGN.md §2).

    Three views of the same charges coexist:

    - the {e flat} view ({!by_phase}): per-label totals;
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

(** [charge t ~label k] adds [k] rounds under [label], both to the flat
    per-label table and to the leaf [label] under the innermost open
    span, and advances the clock by [k]. Raises [Dex_util.Invariant.Violation] on negative [k]. *)
val charge : t -> label:string -> int -> unit

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
    no span and leaves {!total}, {!by_phase} and {!tree} to the
    branches' own charges. *)
val parallel : t -> ('a -> unit) -> 'a list -> unit

(** [retry t ~label ~attempts f] is the Las Vegas loop: it calls
    [f 1], [f 2], … where [f i] returns [(value, certified)], and stops
    at the first certified attempt or after [attempts] of them. Each
    attempt emits one retry event labeled [label] on the attached
    trace, if any. The result is [Ok value] of the certified attempt
    or [Error value] of the last one, the attempts used, and the
    makespan the attempts added. Raises [Dex_util.Invariant.Violation]
    when [attempts < 1]. *)
val retry :
  t -> label:string -> attempts:int -> (int -> 'a * bool) -> ('a, 'a) result * int * int

(** [by_phase t] aggregates charges per label, descending by cost;
    equal costs are ordered by label, so the listing is deterministic. *)
val by_phase : t -> (string * int) list

(** One node of the span tree: [rounds] = [self] + sum of children's
    [rounds]; [self] is non-zero only on charge leaves (or on nodes
    whose name was used both as a span and as a charge label);
    [wall_ns] is the simulator wall-clock accumulated by {!with_span}.
    Children appear in first-creation order. *)
type tree = { span : string; rounds : int; self : int; wall_ns : int; children : tree list }

(** [tree t] is the hierarchical view of every charge, rooted at a
    synthetic ["total"] node with [rounds = total t]. *)
val tree : t -> tree
