(** Minimal JSON representation: just enough for the observability
    layer to emit trace events (and for perfbench and the linter to
    print their reports) and to read its own output back (tests
    round-trip every line we write). Object key order is preserved
    verbatim, so emitted documents have a stable, documented key
    order — diffs across PRs stay meaningful. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string v] is the compact (single-line) rendering of [v].
    Strings are escaped per RFC 8259; non-finite floats render as
    [null] (JSON has no representation for them). *)
val to_string : t -> string

(** [to_buffer buf v] appends the compact rendering to [buf]. *)
val to_buffer : Buffer.t -> t -> unit

(** [parse s] reads one JSON document (surrounding whitespace allowed).
    Numbers with a fraction or exponent parse as [Float], others as
    [Int]. Returns [Error msg] with a position on malformed input. *)
val parse : string -> (t, string) result

(** {2 Accessors} *)

(** [member key v] is the value under [key] when [v] is an object. *)
val member : string -> t -> t option

(** Typed projections; [None] on shape mismatch. [to_int] accepts
    [Int]; [to_float] accepts both [Int] and [Float]. *)

val to_int : t -> int option
val to_float : t -> float option
val to_bool : t -> bool option
val to_str : t -> string option
val to_list : t -> t list option
