module Graph = Dex_graph.Graph
module Rng = Dex_util.Rng

type run_tag = Canonical | Permuted

let run_name = function Canonical -> "canonical" | Permuted -> "permuted"

type violation =
  | Word_budget_exceeded of {
      run : run_tag;
      round : int;
      vertex : int;
      dst : int;
      words : int;
      budget : int;
    }
  | Duplicate_message of { run : run_tag; round : int; vertex : int; dst : int }
  | Not_a_neighbor of { run : run_tag; round : int; vertex : int; dst : int }
  | Round_limit of { run : run_tag; executed : int }
  | State_divergence of { round : int; vertex : int; digest_canonical : int; digest_permuted : int }
  | Round_divergence of { rounds_canonical : int; rounds_permuted : int }

let describe = function
  | Word_budget_exceeded { run; round; vertex; dst; words; budget } ->
    Printf.sprintf "[%s] round %d: vertex %d -> %d sends %d words (budget %d)"
      (run_name run) round vertex dst words budget
  | Duplicate_message { run; round; vertex; dst } ->
    Printf.sprintf "[%s] round %d: vertex %d sends twice on directed edge to %d"
      (run_name run) round vertex dst
  | Not_a_neighbor { run; round; vertex; dst } ->
    Printf.sprintf "[%s] round %d: vertex %d sends to non-neighbor %d" (run_name run) round
      vertex dst
  | Round_limit { run; executed } ->
    Printf.sprintf "[%s] protocol did not quiesce within %d rounds" (run_name run) executed
  | State_divergence { round; vertex; digest_canonical; digest_permuted } ->
    Printf.sprintf
      "round %d: vertex %d state digest diverges under permuted schedule (%d vs %d)" round
      vertex digest_canonical digest_permuted
  | Round_divergence { rounds_canonical; rounds_permuted } ->
    Printf.sprintf "round counts diverge under permuted schedule (%d vs %d)" rounds_canonical
      rounds_permuted

type 's step =
  round:int ->
  vertex:Dex_graph.Vertex.local ->
  's ->
  (int * Network.message) list ->
  's * (int * Network.message) list

type 's protocol = {
  init : int -> 's;
  step : 's step;
  finished : 's array -> bool;
}

type report = {
  rounds_canonical : int;
  rounds_permuted : int;
  messages_canonical : int;
  messages_permuted : int;
  violations : violation list;
}

let ok r = r.violations = []

(* cap the violation list: one schedule bug fires at every vertex of
   every round, and the report should stay readable *)
let max_reported = 32

type 's run_result = {
  digests : int array list; (* per round, per vertex *)
  audit : violation list;
  rounds : int;
  messages : int;
}

(* One full execution of [p] in plain synchronous rounds — every
   vertex stepped every round, quiescence = finished AND no message in
   flight — independently of the kernel, under an explicit schedule: [Canonical]
   activates vertices in id order and delivers each inbox sorted by
   sender; [Permuted] draws a fresh activation permutation and inbox
   shuffle from [rng] every round. A conformant protocol cannot
   observe the difference. *)
let exec ~run ~word_size ~max_rounds ~rng g (p : 's protocol) ~digest =
  let n = Graph.num_vertices g in
  let audit = ref [] in
  let nviol = ref 0 in
  let record v =
    if !nviol < max_reported then audit := v :: !audit;
    incr nviol
  in
  let states = Array.init n p.init in
  let inboxes = ref (Array.make n []) in
  let digests = ref [] in
  let messages = ref 0 in
  let executed = ref 0 in
  let in_flight () = Array.exists (fun inbox -> inbox <> []) !inboxes in
  while (not (p.finished states && not (in_flight ()))) && !executed < max_rounds do
    incr executed;
    let round = !executed in
    let order = Array.init n (fun i -> i) in
    (match rng with Some r -> Rng.shuffle r order | None -> ());
    let next = Array.make n [] in
    Array.iter
      (fun v ->
        let inbox =
          match rng with
          | None ->
            List.stable_sort (fun (a, _) (b, _) -> compare (a : int) b) !inboxes.(v)
          | Some r ->
            let a = Array.of_list !inboxes.(v) in
            Rng.shuffle r a;
            Array.to_list a
        in
        let state', outbox = p.step ~round ~vertex:(Dex_graph.Vertex.local v) states.(v) inbox in
        states.(v) <- state';
        let seen = Hashtbl.create 8 in
        List.iter
          (fun (u, (msg : Network.message)) ->
            if Array.length msg > word_size then
              record
                (Word_budget_exceeded
                   { run; round; vertex = v; dst = u;
                     words = Array.length msg; budget = word_size });
            if v = u || not (Graph.mem_edge g v u) then
              record (Not_a_neighbor { run; round; vertex = v; dst = u });
            if Hashtbl.mem seen u then record (Duplicate_message { run; round; vertex = v; dst = u })
            else Hashtbl.replace seen u ();
            incr messages;
            (* dex-lint: allow C002 the audit kernel records budget violations instead of raising *)
            next.(u) <- (v, msg) :: next.(u))
          outbox)
      order;
    inboxes := next;
    digests := Array.map digest states :: !digests
  done;
  if not (p.finished states) then record (Round_limit { run; executed = !executed });
  { digests = List.rev !digests; audit = List.rev !audit; rounds = !executed;
    messages = !messages }

let default_digest s = Hashtbl.hash_param 256 256 s

let check ?(word_size = 1) ?(max_rounds = 100_000) ?(seed = 0xD1CE) ?digest g ~protocol () =
  let digest = match digest with Some d -> d | None -> default_digest in
  (* the protocol thunk rebuilds every closure, so each replay starts
     from virgin mutable state and a virgin RNG *)
  let a = exec ~run:Canonical ~word_size ~max_rounds ~rng:None g (protocol ()) ~digest in
  let b =
    exec ~run:Permuted ~word_size ~max_rounds ~rng:(Some (Rng.create seed)) g (protocol ())
      ~digest
  in
  let divergences = ref [] in
  let ndiv = ref 0 in
  if a.rounds <> b.rounds then begin
    divergences :=
      [ Round_divergence { rounds_canonical = a.rounds; rounds_permuted = b.rounds } ];
    incr ndiv
  end;
  List.iteri
    (fun i (da, db) ->
      Array.iteri
        (fun v ha ->
          let hb = db.(v) in
          if ha <> hb then begin
            if !ndiv < max_reported then
              divergences :=
                State_divergence
                  { round = i + 1; vertex = v; digest_canonical = ha; digest_permuted = hb }
                :: !divergences;
            incr ndiv
          end)
        da)
    (List.combine
       (if List.length a.digests <= List.length b.digests then a.digests
        else List.filteri (fun i _ -> i < List.length b.digests) a.digests)
       (if List.length b.digests <= List.length a.digests then b.digests
        else List.filteri (fun i _ -> i < List.length a.digests) b.digests));
  { rounds_canonical = a.rounds;
    rounds_permuted = b.rounds;
    messages_canonical = a.messages;
    messages_permuted = b.messages;
    violations = a.audit @ b.audit @ List.rev !divergences }

(* ---------------- reference protocols ---------------- *)

(* the BFS flood of [Primitives.bfs_tree], restated against the
   [protocol] record; min-adoption over the inbox is order-insensitive
   by construction *)
type bfs_state = { dist : int; par : int; pending : bool }

let bfs ?(root = Dex_graph.Vertex.local 0) g () =
  let root = Dex_graph.Vertex.local_int root in
  let init v =
    if v = root then { dist = 0; par = root; pending = true }
    else { dist = max_int; par = -1; pending = false }
  in
  let step ~round:_ ~vertex:v st inbox =
    let v = Dex_graph.Vertex.local_int v in
    let st =
      if st.dist = max_int then
        List.fold_left
          (fun acc (sender, (msg : Network.message)) ->
            let d = msg.(0) + 1 in
            if d < acc.dist || (d = acc.dist && sender < acc.par) then
              { dist = d; par = sender; pending = true }
            else acc)
          st inbox
      else st
    in
    if st.pending then begin
      let outbox = ref [] in
      Graph.iter_neighbors g v (fun u -> outbox := (u, [| st.dist |]) :: !outbox);
      ({ st with pending = false }, !outbox)
    end
    else (st, [])
  in
  let finished states = Array.for_all (fun st -> not st.pending) states in
  { init; step; finished }

type leader_state = { best : int; fresh : bool }

let leader g () =
  let init v = { best = v; fresh = true } in
  let step ~round:_ ~vertex:v st inbox =
    let v = Dex_graph.Vertex.local_int v in
    let best =
      List.fold_left (fun acc (_, (msg : Network.message)) -> min acc msg.(0)) st.best inbox
    in
    if best < st.best || st.fresh then begin
      let outbox = ref [] in
      Graph.iter_neighbors g v (fun u -> outbox := (u, [| best |]) :: !outbox);
      ({ best; fresh = false }, !outbox)
    end
    else ({ best; fresh = false }, [])
  in
  (* on a connected graph the minimum floods everywhere; quiescence is
     then handled by the engine's in-flight check *)
  let finished states =
    let target = Array.fold_left (fun acc st -> min acc st.best) max_int states in
    Array.for_all (fun st -> st.best = target && not st.fresh) states
  in
  { init; step; finished }
