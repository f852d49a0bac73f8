(** Miller–Peng–Xu exponential-shift clustering — the algorithm
    Clustering(β) of Appendix B, executed as a real message-passing
    protocol on the CONGEST kernel.

    Every vertex draws δ_v ~ Exponential(β) and wakes up at epoch
    start_v = max(1, ⌈2·ln n/β⌉ - ⌊δ_v⌋). An awake unclustered vertex
    becomes a cluster center; an unclustered vertex adjacent to a
    clustered one joins that cluster (ties broken by smallest cluster
    id). The protocol runs for ⌈2·ln n/β⌉ epochs = rounds, after which
    every vertex is clustered; each cluster has radius ≤ 2·ln n/β from
    its center, and each edge is inter-cluster with probability ≤ 2β
    (Lemma 12). *)

type t = {
  cluster : int array; (** cluster center id per vertex *)
  start : int array; (** the start epoch each vertex drew *)
  epochs : int; (** number of epochs executed *)
  rounds : int; (** CONGEST rounds charged (= epochs) *)
}

(** [run net ~beta rng] executes Clustering(beta) on the network: a
    vertex sleeps on a timer until its start epoch unless an
    announcement wakes it first, so idle epochs are skipped while all
    ⌈2·ln n/β⌉ rounds are still charged. Raises
    [Dex_util.Invariant.Violation] unless [beta] is in (0, 1). *)
val run : Dex_congest.Network.t -> beta:float -> Dex_util.Rng.t -> t

(** [clusters t] groups vertices by cluster, each sorted ascending;
    the list runs in descending center-id order. *)
val clusters : t -> int array list

(** [inter_cluster_edges g t] counts edges whose endpoints disagree. *)
val inter_cluster_edges : Dex_graph.Graph.t -> t -> int
