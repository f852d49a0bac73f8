(** Ground-truth triangle enumeration (centralized).

    The forward algorithm: orient every edge from lower to higher
    degree (ties by id) and intersect out-neighborhoods — O(m^{3/2})
    and the reference answer every distributed algorithm is checked
    against.

    A triangle [a < b < c] is one packed int, [(a lsl 40) lor (b lsl 20)
    lor c], so integer order is lexicographic order on [(a, b, c)] and
    a set of triangles is a sorted [int array] compared with [=]. *)

(** [pack a b c] for [0 <= a < b < c < 2^20]; unchecked. *)
val pack : int -> int -> int -> int

(** [unpack t] is the [(a, b, c)] that {!pack} packed into [t]. *)
val unpack : int -> int * int * int

(** [enumerate g] is every triangle of [g], packed and sorted. Self-loops
    and parallel edges never form triangles. Raises
    [Dex_util.Invariant.Violation] when [g] has more than 2^20
    vertices. *)
val enumerate : Dex_graph.Graph.t -> int array

(** [count g] is [Array.length (enumerate g)] without materializing,
    for any [n]. *)
val count : Dex_graph.Graph.t -> int

(** [iter g f] calls [f a b c] on each triangle [a < b < c] once. *)
val iter : Dex_graph.Graph.t -> (int -> int -> int -> unit) -> unit
