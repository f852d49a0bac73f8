(** CSR slot-addressed message arena — the zero-allocation data plane
    behind {!Network}'s round loop.

    Every directed edge [(v, i)] of the graph owns one preallocated
    message slot at the dense CSR index [off(v) + i] (see
    {!Dex_graph.Graph.csr_offsets}). Slots live on two flat planes —
    a src-side staging plane written during the step phase and a
    dst-side inbox plane written during delivery — and occupancy is
    tracked by monotonic tick stamps, so steady-state rounds neither
    allocate nor clear.

    The module also owns the active-set worklist — vertices with a
    stamped inbox slot, an explicit self-wake or a due timer, kept
    deduplicated and sorted ascending so every run activates vertices
    in the same canonical order — and the timers themselves, a min-heap
    of (round, vertex) wake-ups.

    Protocols normally go through {!Network}; this interface is what
    the round loop and the throughput benchmarks program against. *)

(** Same meaning as [Network.Congestion_violation] — [Network]
    re-exports this very exception, so handlers written against either
    name catch both. *)
exception Congestion_violation of string

type t

(** [create ?word_size ?to_orig g] allocates all planes for [g]
    (O(m·word_size) ints, once). [to_orig] translates local vertex ids
    into the coordinates violation messages should use (subnetworks
    report original ids). *)
val create : ?word_size:int -> ?to_orig:(int -> int) -> Dex_graph.Graph.t -> t

(** [word_size a] is the per-message word budget the arena validates
    against. *)
val word_size : t -> int

(** [slot_count a] is the number of directed-edge slots (twice the
    plain edge count). *)
val slot_count : t -> int

(** {1 Cursors}

    A cursor is a reusable window onto one vertex's slots. The driver
    allocates one inbox/outbox pair per run and re-aims them
    with {!set_inbox}/{!set_outbox} for every step — the step callback
    itself allocates nothing. *)

type inbox
type outbox

val make_inbox : t -> inbox
val make_outbox : t -> outbox

(** [set_inbox ib v] aims the cursor at vertex [v]'s dst-side slots. *)
val set_inbox : inbox -> int -> unit

(** [set_outbox ob v] aims the cursor at vertex [v]'s src-side slots;
    subsequent sends are validated and staged as coming from [v]. *)
val set_outbox : outbox -> int -> unit

module Inbox : sig
  (** [is_empty ib] — no message was delivered to this vertex for the
      current round. *)
  val is_empty : inbox -> bool

  (** [count ib] — number of deliveries this round (a duplicated
      message counts twice). *)
  val count : inbox -> int

  (** [iter1 ib f] calls [f src word] per delivery, in ascending
      sender order (duplicates are adjacent). Reads only the first
      word of each message: the fast path for one-word protocols. *)
  val iter1 : inbox -> (int -> int -> unit) -> unit

  (** [iter ib f] calls [f src msg] per delivery in ascending sender
      order, materializing each message array. *)
  val iter : inbox -> (int -> int array -> unit) -> unit
end

module Outbox : sig
  (** [send1 ob ~dst w] stages the one-word message [w] to [dst].
      Raises {!Congestion_violation} on the first broken rule, checked
      in this order: over-budget, non-neighbor, duplicate edge use. *)
  val send1 : outbox -> dst:Dex_graph.Vertex.local -> int -> unit

  (** [send ob ~dst msg] stages an arbitrary message of at most
      [word_size] words ([msg] is copied into the arena). *)
  val send : outbox -> dst:Dex_graph.Vertex.local -> int array -> unit

  (** [wake ob] self-wakes the cursor's vertex: it stays on the next
      round's worklist even if it receives nothing. *)
  val wake : outbox -> unit

  (** [wake_at ob ~round] schedules the cursor's vertex to be stepped
      in [round] even if it receives nothing; [wake_at ~round:(r+1)]
      in round [r] is {!wake}. Raises [Dex_util.Invariant.Violation]
      unless [round] is after the current round. *)
  val wake_at : outbox -> round:int -> unit
end

(** {1 Round lifecycle}

    Driven by [Network]'s round loop. A round is: read the sorted
    worklist ([active_count]/[active_get]), step each active vertex
    through its cursors, then for each vertex in ascending order apply
    {!deliver_staged} (and {!push_active} for {!woke} vertices), and
    {!finish_round}. When the worklist comes out empty, {!skip_idle}
    jumps to the next timer. *)

(** [begin_run a] starts a run at round 1 with every vertex on the
    worklist and no timer pending. *)
val begin_run : t -> unit

(** [round a] is the run's current round (the one the worklist is
    for). *)
val round : t -> int

(** [next_timer a] is the earliest round a pending timer is due in, or
    [max_int] when none is pending. *)
val next_timer : t -> int

(** Number of vertices on the current round's worklist. *)
val active_count : t -> int

(** [active_get a i] — the [i]-th active vertex, ascending in [i]. *)
val active_get : t -> int -> int

(** [woke a v] — vertex [v] called [Outbox.wake] this round. *)
val woke : t -> int -> bool

(** [push_active a v] schedules [v] for the next round (deduplicated;
    delivery does this automatically for receivers). *)
val push_active : t -> int -> unit

(** [deliver_staged a src verdict] walks [src]'s staged sends in
    descending destination order; [verdict dst words] decides each
    message's fate, exactly like [Faults.verdict], and delivered
    messages land in the destination's inbox slots for the next round.
    The caller's verdict callback is where message/word counters and
    fault recording happen; calling this for each source in ascending
    order keeps the event order canonical. *)
val deliver_staged :
  t -> int -> (int -> int -> [ `Deliver | `Drop | `Duplicate ]) -> unit

(** [finish_round a] advances the tick (retiring all current-round
    slots at once) and the round, and swaps in the next worklist —
    joined by the timers due in the new round — sorted ascending. *)
val finish_round : t -> unit

(** [skip_idle a] jumps from an empty worklist to round {!next_timer}
    and puts the vertices due then on the worklist; no-op when no timer
    is pending. Raises [Dex_util.Invariant.Violation] if the worklist is
    not empty. *)
val skip_idle : t -> unit
