(** Reliable-delivery primitives over a (possibly faulty) {!Network.t}.

    The executed protocols in {!Primitives} assume perfect delivery:
    one lost message silently truncates a BFS tree or elects the wrong
    leader. This module reimplements the flooding primitives on top of
    a per-edge ack/retransmit discipline with bounded retries:

    - a vertex that must deliver a value to a neighbor retransmits it
      every round until the neighbor acknowledges that exact value or
      the retry budget is exhausted;
    - acknowledgements are self-clocking: a lost ack triggers a
      retransmission, which triggers a fresh ack;
    - data and ack ride in a single word per edge per round (two
      O(log n)-bit fields packed into one word), so the CONGEST
      discipline is respected without widening the word budget.

    The extra rounds a lossy run needs are charged honestly to the
    network's ledger under the protocol's label ({!Rounds.Bfs_reliable},
    {!Rounds.Leader_reliable}) — the overhead versus {!Primitives} is exactly
    the measured price of reliability.

    On retry exhaustion the behaviour is configurable: with
    [give_up = false] (the default) the run completes and then raises
    {!Delivery_failed} identifying the dead edge; with
    [give_up = true] the edge is abandoned and the protocol proceeds
    without it — the right semantics when the peer has crash-stopped
    or the link has failed permanently. *)

type config = {
  max_retries : int; (** transmissions attempted per (neighbor, value) *)
  give_up : bool; (** abandon an unacknowledged edge instead of failing *)
}

(** [{ max_retries = 64; give_up = false }] — with drop probability p,
    64 retries fail with probability p^64 per edge. *)
val default_config : config

(** Raised after the run completes (rounds charged) when a value could
    not be delivered within [max_retries] transmissions and
    [give_up = false]. *)
exception
  Delivery_failed of {
    label : Rounds.executed;
    vertex : int;
    neighbor : int;
    value : int;
    attempts : int;
  }

(** Payload values must be in [0, 2^30): two packed per word. *)
val value_limit : int

(** [bfs_tree ?config ?max_rounds net ~root] is {!Primitives.bfs_tree}
    with reliable delivery: distances adopt monotonically, every
    improvement is re-announced until acknowledged, so the final
    depths equal true BFS distances under arbitrary message loss
    (rounds charged under {!Rounds.Bfs_reliable}). Vertices unreachable
    through surviving edges keep depth [max_int]. *)
val bfs_tree :
  ?config:config -> ?max_rounds:int -> Network.t -> root:Dex_graph.Vertex.local ->
  Primitives.tree

(** [elect_leader ?config ?max_rounds net] floods the minimum vertex id
    with reliable delivery (charged under {!Rounds.Leader_reliable});
    returns the per-vertex leader array, one leader per connected
    component of the surviving network. *)
val elect_leader : ?config:config -> ?max_rounds:int -> Network.t -> int array
