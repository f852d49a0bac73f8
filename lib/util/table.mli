(** Aligned plain-text tables for the benchmark harness, plus the
    sorted hashtable iteration helpers mandated by lint rule D001. *)

(** {1 Deterministic hashtable iteration}

    [Hashtbl.iter]/[Hashtbl.fold] visit bindings in hash-bucket order,
    which depends on the table's insertion history — two tables with
    identical bindings can iterate differently, leaking
    nondeterminism into round schedules, RNG consumption and float
    accumulation. Algorithm libraries must use these instead (enforced
    by [dex_lint] rule D001). *)

(** [iter_sorted ?compare f tbl] applies [f k v] in ascending key
    order ([compare] defaults to the polymorphic compare — fine for
    the int and int-pair keys used throughout). For keys with multiple bindings only the most recent
    binding is visited. *)
val iter_sorted : ?compare:('a -> 'a -> int) -> ('a -> 'b -> unit) -> ('a, 'b) Hashtbl.t -> unit

(** [fold_sorted ?compare f tbl init] folds [f k v acc] in ascending
    key order. *)
val fold_sorted :
  ?compare:('a -> 'a -> int) -> ('a -> 'b -> 'c -> 'c) -> ('a, 'b) Hashtbl.t -> 'c -> 'c

(** {1 Aligned text tables} *)

type t

(** [create ~title headers] starts a table. *)
val create : title:string -> string list -> t

(** [add_row t cells] appends a row; short rows are padded. *)
val add_row : t -> string list -> unit

(** [render t] is the aligned textual rendering (with title and rule). *)
val render : t -> string

(** [print t] writes [render t] to stdout. *)
val print : t -> unit

(** Formatting helpers shared by the bench harness. *)

val fmt_float : float -> string
val fmt_pct : float -> string
