module Trace = Dex_obs.Trace

type executed = Mpx_clustering | Bfs | Leader | Walk_protocol | Bfs_reliable | Leader_reliable

type modelled =
  | Ldd_refine | Nibble_generate | Nibble_execute | Nibble_select
  | Routing_preprocess | Routing_query | Residual_trivial

type label = Executed of executed | Modelled of modelled

let name = function
  | Executed Mpx_clustering -> "mpx-clustering"
  | Executed Bfs -> "bfs"
  | Executed Leader -> "leader"
  | Executed Walk_protocol -> "walk-protocol"
  | Executed Bfs_reliable -> "bfs-reliable"
  | Executed Leader_reliable -> "leader-reliable"
  | Modelled Ldd_refine -> "ldd-refine"
  | Modelled Nibble_generate -> "nibble-generate"
  | Modelled Nibble_execute -> "nibble-execute"
  | Modelled Nibble_select -> "nibble-select"
  | Modelled Routing_preprocess -> "routing-preprocess"
  | Modelled Routing_query -> "routing-query"
  | Modelled Residual_trivial -> "residual-trivial"

(* a span and a charge leaf never share a node, whatever their names *)
type key = Span of string | Leaf of label

type node = {
  key : key;
  mutable self : int; (* rounds charged directly at this node *)
  mutable wall_ns : int; (* simulator wall-clock spent while this span was innermost-opened *)
  mutable sub : node list; (* reversed creation order *)
}

type t = {
  mutable total : int;
  mutable clock : int; (* makespan: charges advance it, parallel branches join at their max *)
  root : node;
  mutable stack : node list; (* innermost open span first *)
  mutable trace : Trace.t option;
}

type tree = { span : string; rounds : int; self : int; wall_ns : int; children : tree list }

let fresh_node key = { key; self = 0; wall_ns = 0; sub = [] }

let create () = { total = 0; clock = 0; root = fresh_node (Span "total"); stack = []; trace = None }

let attach_trace t trace = t.trace <- trace
let trace t = t.trace

let current t = match t.stack with n :: _ -> n | [] -> t.root

let child parent key =
  match List.find_opt (fun n -> n.key = key) parent.sub with
  | Some n -> n
  | None ->
    let n = fresh_node key in
    parent.sub <- n :: parent.sub;
    n

let add t label k =
  Dex_util.Invariant.require (k >= 0) ~where:"Rounds.charge" "negative round count";
  t.total <- t.total + k;
  t.clock <- t.clock + k;
  let leaf = child (current t) (Leaf label) in
  leaf.self <- leaf.self + k

let charge t ~label k = add t (Modelled label) k
let charge_executed t ~label k = add t (Executed label) k

let with_span t name f =
  let node = child (current t) (Span name) in
  t.stack <- node :: t.stack;
  let before = t.total in
  let id =
    match t.trace with
    | Some tr -> Trace.span_open tr ~name ~rounds_before:before
    | None -> -1
  in
  let t0 = Dex_obs.Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let wall = Dex_obs.Clock.now_ns () - t0 in
      node.wall_ns <- node.wall_ns + wall;
      (match t.stack with
      | top :: rest when top == node -> t.stack <- rest
      | stack ->
        (* an exception may have skipped inner pops: unwind past [node] *)
        let rec unwind = function
          | top :: rest -> if top == node then rest else unwind rest
          | [] -> []
        in
        t.stack <- unwind stack);
      match t.trace with
      | Some tr -> Trace.span_close tr ~id ~name ~rounds:(t.total - before) ~wall_ns:wall
      | None -> ())
    f

let total t = t.total
let makespan t = t.clock

let parallel t f xs =
  let start = t.clock in
  t.clock <-
    List.fold_left
      (fun finish x ->
        t.clock <- start;
        f x;
        max finish t.clock)
      start xs

type loop = Decompose | Sparse_cut | Triangles

let retry t ~loop ~attempts f =
  Dex_util.Invariant.require (attempts >= 1) ~where:"Rounds.retry" "attempts must be >= 1";
  let label =
    match loop with Decompose -> "decompose" | Sparse_cut -> "sparse-cut" | Triangles -> "triangles"
  in
  let start = t.clock in
  let rec go i =
    let value, certified = f i in
    Option.iter (fun tr -> Trace.retry tr ~label ~attempt:i ~certified) t.trace;
    if certified then (Ok value, i)
    else if i >= attempts then (Error value, i)
    else go (i + 1)
  in
  let outcome, used = go 1 in
  (outcome, used, t.clock - start)

let phases t =
  let rec leaves acc n =
    List.fold_left leaves (match n.key with Leaf l -> (l, n.self) :: acc | Span _ -> acc) n.sub
  in
  let all = leaves [] t.root in
  (* each label once, summed over its leaves; then descending by cost
     with ties left in name order: bench tables must be stable *)
  List.sort_uniq (fun a b -> String.compare (name a) (name b)) (List.map fst all)
  |> List.map (fun l -> (l, List.fold_left (fun s (l', k) -> if l' = l then s + k else s) 0 all))
  |> List.stable_sort (fun (_, x) (_, y) -> Int.compare y x)

let by_phase t = List.map (fun (l, k) -> (name l, k)) (phases t)

let tree t =
  let rec freeze node =
    let children = List.rev_map freeze node.sub in
    let rounds =
      List.fold_left (fun acc (c : tree) -> acc + c.rounds) node.self children
    in
    let span = match node.key with Span s -> s | Leaf l -> name l in
    { span; rounds; self = node.self; wall_ns = node.wall_ns; children }
  in
  freeze t.root
