(** Breadth-first search on a reusable workspace.

    Every sequential graph search in the library — connected
    components, hop distances, subset diameters, the ball edge counts
    of Lemmas 14–16 and the V_D growth of Appendix B.1 — runs on this
    one primitive. A workspace is allocated once per graph and reused
    across runs: epoch stamps mark the vertices of the current run, so
    a run costs only what it reaches, with no hashing, sorting or
    clearing. The FIFO array doubles as the visit order, so vertices
    come out by non-decreasing distance and the last one reached is
    the farthest. *)

type t

(** [create g] allocates a workspace for searches on [g]. *)
val create : Graph.t -> t

(** [run ?within ?limit t sources] replaces [t]'s result with a
    multi-source search from [sources] (all at distance 0). Only
    vertices [u] with [within.(u)] are entered; the sources are
    reached whatever the mask says. Vertices at distance [limit]
    (default unbounded) are reached but not expanded, so the result is
    the radius-[limit] ball. A repeated source keeps its first index. *)
val run : ?within:bool array -> ?limit:int -> t -> int array -> unit

(** [reached t] is the number of vertices the last run reached. *)
val reached : t -> int

(** [nth t i] is the [i]-th vertex reached, [0 <= i < reached t], in
    visit order: distances are non-decreasing in [i]. *)
val nth : t -> int -> int

(** [mem t v] tests whether the last run reached [v]. *)
val mem : t -> int -> bool

(** [dist t v] is [v]'s hop distance from the nearest source, or
    [max_int] if the last run did not reach [v]. *)
val dist : t -> int -> int

(** [origin t v] is the index in [sources] of the source whose wave
    reached [v] first — on a tie, the first listed — or [-1] if the
    last run did not reach [v]. *)
val origin : t -> int -> int
