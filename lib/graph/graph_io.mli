(** Plain-text graph serialization, so the CLI and examples can run on
    real edge lists as well as generated families.

    The format is a whitespace edge list:

    {v
    # comment lines start with '#'
    n <vertex-count>        (optional; inferred as 1 + max id if absent)
    <u> <v>                 (one undirected edge per line; u = v is a self-loop)
    v}

    Vertex ids are non-negative integers. *)

(** [parse string] reads a graph from the textual format.
    Raises [Failure] with a line-numbered message on malformed input. *)
val parse : string -> Graph.t

(** [to_string g] serializes; [parse (to_string g)] reconstructs an
    isomorphic (identical ids) graph. *)
val to_string : Graph.t -> string

(** [load path] / [save path g] are the file versions; the channel is
    closed on every exit. [load] raises [Sys_error] when [path] cannot
    be read and [Failure] (as {!parse}) on malformed content. *)
val load : string -> Graph.t

val save : string -> Graph.t -> unit
