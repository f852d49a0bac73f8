(** Standard CONGEST building blocks over {!Network.t}.

    [bfs_tree] and [elect_leader] are executed as real message-passing
    protocols (they exercise the kernel and their round counts are
    measured from the execution). Tree aggregation helpers charge the
    measured tree height — the textbook cost of a pipelined
    broadcast / convergecast — and evaluate the aggregate centrally. *)

(** A rooted BFS spanning tree of (one component of) the network. *)
type tree = {
  root : int;
  parent : int array; (** [parent.(root) = root]; [-1] for vertices outside the component *)
  depth : int array; (** hop depth; [max_int] outside the component *)
  height : int; (** max finite depth *)
  members : int array; (** vertices of the component, sorted *)
}

(** [bfs_tree net ~root] floods from [root] (executed protocol;
    rounds measured and charged under {!Rounds.Bfs}). [root] is a vertex of
    {e this} network's coordinate space ({!Dex_graph.Vertex.local}). *)
val bfs_tree : Network.t -> root:Dex_graph.Vertex.local -> tree

(** [elect_leader net] floods minimum vertex id (executed protocol,
    charged under {!Rounds.Leader}); returns per-vertex leader array —
    one leader per connected component. *)
val elect_leader : Network.t -> int array

(** [broadcast net tree ~label] charges the cost of sending one
    O(log n)-bit value from the root to all members: [tree.height]
    rounds. *)
val broadcast : Network.t -> tree -> label:Rounds.modelled -> unit

(** [convergecast_sum net tree ~label values] charges [tree.height]
    rounds and returns the sum of [values] over the tree members —
    the standard aggregation used by the paper's implementation
    lemmas (Lemma 9's volume queries, Lemma 10's token counts). *)
val convergecast_sum : Network.t -> tree -> label:Rounds.modelled -> int array -> int

(** [convergecast_min net tree ~label values] as above with min. *)
val convergecast_min : Network.t -> tree -> label:Rounds.modelled -> int array -> int

(** [pipelined_broadcast net tree ~label ~words] charges
    [tree.height + words] rounds — k values broadcast down a tree
    pipeline in height + k rounds. *)
val pipelined_broadcast : Network.t -> tree -> label:Rounds.modelled -> words:int -> unit

(** [subnetwork net members] is a network on the induced subgraph
    [G\[members\]] sharing [net]'s ledger; returns the new network and
    the typed map from sub-vertex ids to [net] ids. The subnetwork's
    own [vertex_map] (used for trace and violation reporting) is the
    composition with [net]'s map, so metrics stay in original-instance
    coordinates however deep the recursion. Communication inside a
    cluster of a decomposition runs on such subnetworks. *)
val subnetwork : Network.t -> int array -> Network.t * Dex_graph.Vertex.Map.t
