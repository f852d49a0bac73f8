module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Sweep = Dex_spectral.Sweep
module Walk = Dex_spectral.Walk
module Invariant = Dex_util.Invariant

type t = {
  cut : int array;
  conductance : float;
  balance : float;
  pushes : int;
  support : int;
}

let approximate_pagerank ?(alpha = 0.1) ?eps g ~src =
  Invariant.require (alpha > 0.0 && alpha < 1.0) ~where:"Pagerank_cut.approximate_pagerank"
    "alpha in (0, 1)";
  let m = max 1 (Graph.num_edges g) in
  let eps = match eps with Some e -> e | None -> 1.0 /. (20.0 *. float_of_int m) in
  Invariant.require (eps > 0.0) ~where:"Pagerank_cut.approximate_pagerank" "eps > 0";
  let n = Graph.num_vertices g in
  let p = Array.make n 0.0 and r = Array.make n 0.0 in
  r.(src) <- 1.0;
  let add a v x = a.(v) <- a.(v) +. x in
  (* work queue of vertices that may violate r(v) < eps·deg(v) *)
  let queue = Queue.create () in
  let queued = Array.make n false in
  let enqueue v = if not queued.(v) then (queued.(v) <- true; Queue.add v queue) in
  enqueue src;
  let pushes = ref 0 in
  let push_limit = 64 * m in
  while (not (Queue.is_empty queue)) && !pushes < push_limit do
    let v = Queue.take queue in
    queued.(v) <- false;
    let deg = float_of_int (Graph.degree g v) in
    let rv = r.(v) in
    if deg > 0.0 && rv >= eps *. deg then begin
      incr pushes;
      (* lazy ACL push: p += alpha·r(v); half of the rest stays, half
         spreads over incident edges (self-loops included) *)
      add p v (alpha *. rv);
      let rest = (1.0 -. alpha) *. rv in
      r.(v) <- rest /. 2.0;
      let share = rest /. 2.0 /. deg in
      (* the self-loop share also stays home *)
      if Graph.self_loops g v > 0 then
        add r v (share *. float_of_int (Graph.self_loops g v));
      Graph.iter_neighbors g v (fun u ->
          add r u share;
          let du = float_of_int (Graph.degree g u) in
          if du > 0.0 && r.(u) >= eps *. du then enqueue u);
      if r.(v) >= eps *. deg then enqueue v
    end
  done;
  (p, r, !pushes)

let run ?alpha ?eps g ~src =
  let p, _r, pushes = approximate_pagerank ?alpha ?eps g ~src in
  (* every pushed vertex holds positive mass, and only those do *)
  let ids = Array.of_seq (Seq.filter (fun v -> p.(v) > 0.0) (Seq.init (Array.length p) Fun.id)) in
  if Array.length ids = 0 then None
  else begin
    let p = Walk.of_sorted ~ids ~mass:(Array.map (Array.get p) ids) in
    match Sweep.best_cut g p with
    | None -> None
    | Some (sweep, j) ->
      let vertices = Sweep.take sweep j in
      Array.sort Int.compare vertices;
      let pref = sweep.Sweep.prefixes.(j - 1) in
      Some
        { cut = vertices;
          conductance = pref.Sweep.conductance;
          balance = Metrics.balance g vertices;
          pushes;
          support = Array.length ids }
  end
