(** Binary min-heap over [(priority, value)] pairs, with float
    priorities. The CONGEST arena keeps its timed wakes in one (e.g.
    the clustering start epochs). *)

type 'a t

(** [create ()] is an empty heap. *)
val create : unit -> 'a t

(** [push h priority value] inserts. *)
val push : 'a t -> float -> 'a -> unit

(** [pop h] removes and returns the minimum pair; [None] when empty. *)
val pop : 'a t -> (float * 'a) option

(** [peek h] returns the minimum pair without removing it. *)
val peek : 'a t -> (float * 'a) option

(** [size h] is the number of stored elements. *)
val size : 'a t -> int

(** [is_empty h]. *)
val is_empty : 'a t -> bool
