(** Synchronous message-passing simulation of the CONGEST model.

    A network wraps a communication graph. A protocol is a per-vertex
    state machine: in every round each vertex reads its inbox (the
    messages its neighbors sent in the previous round), updates its
    state and emits at most one message per incident edge. The kernel
    enforces the CONGEST discipline:

    - a message may only be sent to a neighbor;
    - at most one message per (vertex, incident edge) per round;
    - each message carries at most [word_size] machine words, a word
      standing for O(log n) bits.

    Violations raise {!Congestion_violation} — this is how tests do
    failure injection. Rounds and message words are charged to a
    {!Rounds.t} ledger so protocol compositions have one cost ledger.

    A network may additionally carry a {!Faults.t} schedule: message
    drops/duplications, permanent link failures and crash-stop vertex
    faults are then applied inside every executed round, with each
    fault event recorded in the schedule's trace. Congestion validation
    happens {e before} fault application — a protocol may not excuse an
    oversized message by hoping the adversary drops it.

    When the ledger has a {!Dex_obs.Trace.t} attached
    ({!Rounds.attach_trace}, before the network is created), every
    executed round additionally emits a structured round tick (messages
    delivered, words, max per-edge congestion, active vertices), edge
    delivery counts accumulate into the trace's per-edge load histogram,
    and fault events are bridged into the trace. Networks over induced
    subgraphs carry a [vertex_map] so those metrics are reported in
    original-graph coordinates. Without an attached trace the kernel
    skips all of this — tracing off costs one pointer test per round. *)

(** Same exception as {!Arena.Congestion_violation} (re-exported):
    handlers written against either name catch every violation. *)
exception Congestion_violation of string

(** Kept for source compatibility: the kernel has one driver, and
    {!executor} always reports [Staged]. [Legacy] and [Parallel _] are
    never produced. *)
type executor = Legacy | Staged | Parallel of int

(** Final states of a protocol that hit its round limit, with the
    element type hidden (protocol state types differ per caller). *)
type packed_states = Packed : 'a array -> packed_states

(** Raised by {!run_active} when [max_rounds] pass without
    quiescence. The elapsed rounds have already been charged to the
    ledger when this is raised. *)
exception
  Round_limit_exceeded of {
    label : string;
    max_rounds : int;
    executed : int;
    states : packed_states;
  }

type t

(** [create ?word_size ?faults ?vertex_map graph rounds] wraps [graph];
    [word_size] (default 1) is the per-message word budget. When
    [faults] is given, every executed round applies the schedule to
    deliveries and step execution. [vertex_map] translates local vertex
    ids to original-graph ids for trace and error reporting (it must
    have exactly one entry per vertex); {!Primitives.subnetwork}
    threads it automatically. The trace handle, if any, is read from
    the ledger at creation time — attach it first. *)
val create :
  ?word_size:int ->
  ?faults:Faults.t ->
  ?vertex_map:Dex_graph.Vertex.Map.t ->
  Dex_graph.Graph.t ->
  Rounds.t ->
  t

(** [executor t] is always [Staged]. *)
val executor : t -> executor

(** [graph t] is the underlying communication graph. *)
val graph : t -> Dex_graph.Graph.t

(** [messages_sent t] is the cumulative number of messages delivered:
    under a fault schedule, dropped messages are excluded and
    duplicated ones count twice. *)
val messages_sent : t -> int

(** [words_sent t] is the cumulative number of machine words delivered,
    fault-aware in the same way as {!messages_sent}: dropped messages
    contribute nothing, duplicated ones contribute twice. *)
val words_sent : t -> int

(** [faults t] is the fault schedule, if any. *)
val faults : t -> Faults.t option

(** [vertex_map t] is the local-to-original vertex translation, if this
    network simulates an induced subgraph of a larger instance. *)
val vertex_map : t -> Dex_graph.Vertex.Map.t option

(** [top_edges t k] is the [k] most-loaded edges (original-graph
    coordinates, cumulative deliveries, descending) from the attached
    trace's histogram; [[]] when no trace is attached. Note the
    histogram belongs to the trace, so it aggregates across every
    network sharing it — which is exactly what hot-edge reporting over
    a recursive decomposition wants. *)
val top_edges : t -> int -> ((int * int) * int) list

(** A message is an int array of at most [word_size] words. *)
type message = int array

(** {1 Running a protocol}

    Inboxes and outboxes are {!Arena} cursors over preallocated
    per-edge slots, and only {e active} vertices are stepped: in round
    1 every vertex, afterwards those with a non-empty inbox, an
    [Arena.Outbox.wake] from the previous round or an
    [Arena.Outbox.wake_at] timer due this round. When nothing is active
    and no message is in flight, the driver jumps straight to the next
    timer: the skipped rounds elapse and are charged, but execute
    nothing and emit no round tick. *)

(** Per-round behaviour of one vertex. Receives the current round
    number (starting at 1), the vertex id (phantom-typed: it lives in
    {e this} network's coordinate space — see {!Dex_graph.Vertex}), its
    state and its cursors; returns the new state. Read the inbox with
    [Arena.Inbox.iter1]/[iter], send with [Arena.Outbox.send1]/[send];
    the cursors are only valid for the duration of the call. *)
type 's active_step =
  round:int ->
  vertex:Dex_graph.Vertex.local ->
  's ->
  Arena.inbox ->
  Arena.outbox ->
  's

(** [run_active t ~label ~init ~step ?max_rounds ?on_round ()] runs
    the protocol to quiescence — no active vertex, no message in
    flight, no pending timer — and returns the final states and the
    rounds elapsed, which are also charged to the ledger under
    [label]. Termination costs O(active), not O(n); a protocol that
    needs stepping without traffic must wake itself.
    {!Round_limit_exceeded} is raised, after charging [max_rounds]
    (default 1_000_000), when round [max_rounds] passes without
    quiescence. [on_round] is called after every executed round with
    the round number and the (mutable) state array. The arena is built
    lazily on first use and reused across runs on the same network. *)
val run_active :
  t ->
  label:string ->
  init:(int -> 's) ->
  step:'s active_step ->
  ?max_rounds:int ->
  ?on_round:(int -> 's array -> unit) ->
  unit ->
  's array * int

(** [run_for t ~label ~init ~step ?on_round horizon] runs exactly
    [horizon] rounds and charges them all, whether or not the protocol
    goes quiet earlier. Messages sent in round [horizon] are delivered
    and counted but never read; timers past the horizon never fire. *)
val run_for :
  t ->
  label:string ->
  init:(int -> 's) ->
  step:'s active_step ->
  ?on_round:(int -> 's array -> unit) ->
  int ->
  's array

(** [charge t ~label k] charges [k] rounds for an accounted (not
    message-level executed) protocol phase. *)
val charge : t -> label:string -> int -> unit

(** [rounds t] is the ledger. *)
val rounds : t -> Rounds.t
