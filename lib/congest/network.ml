module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex
module Trace = Dex_obs.Trace
module Invariant = Dex_util.Invariant

exception Congestion_violation = Arena.Congestion_violation

type packed_states = Packed : 'a array -> packed_states

exception
  Round_limit_exceeded of {
    label : Rounds.executed;
    max_rounds : int;
    executed : int;
    states : packed_states;
  }

type message = int array

(* kept for source compatibility: there is one driver, reported as
   [Staged] *)
type executor = Legacy | Staged | Parallel of int

type t = {
  graph : Graph.t;
  ledger : Rounds.t;
  word_size : int;
  faults : Faults.t option;
  vertex_map : Vertex.Map.t option; (* local -> original-graph vertex ids *)
  trace : Trace.t option; (* cached from the ledger at creation *)
  mutable arena : Arena.t option; (* built on first run *)
  mutable messages : int;
  mutable words : int;
}

type 's active_step =
  round:int -> vertex:Vertex.local -> 's -> Arena.inbox -> Arena.outbox -> 's

let create ?(word_size = 1) ?faults ?vertex_map graph ledger =
  Invariant.require (word_size >= 1) ~where:"Network.create" "word_size must be >= 1";
  (match vertex_map with
  | Some map when Vertex.Map.length map <> Graph.num_vertices graph ->
    Invariant.fail ~where:"Network.create" "vertex_map length must equal the vertex count"
  | _ -> ());
  let trace = Rounds.trace ledger in
  let map v =
    match vertex_map with Some m -> Vertex.orig_int (Vertex.Map.get m v) | None -> v
  in
  (match (faults, trace) with
  | Some f, Some tr ->
    (* bridge every fault decision into the structured trace, in
       original-graph coordinates *)
    Faults.set_observer f
      (Some
         (fun fault ->
           let kind, round, src, dst =
             match fault with
             | Faults.Drop { round; src; dst } -> ("drop", round, map src, map dst)
             | Faults.Duplicate { round; src; dst } ->
               ("duplicate", round, map src, map dst)
             | Faults.Link_down { round; u; v } -> ("link-down", round, map u, map v)
             | Faults.Crash { round; vertex } -> ("crash", round, map vertex, -1)
           in
           Trace.fault tr ~kind ~round ~src ~dst))
  | _ -> ());
  { graph; ledger; word_size; faults; vertex_map; trace; arena = None; messages = 0; words = 0 }

let graph t = t.graph
let messages_sent t = t.messages
let words_sent t = t.words
let rounds t = t.ledger
let faults t = t.faults
let vertex_map t = t.vertex_map
let executor _ = Staged
(* [orig t v] reports [v] in original-graph coordinates: violation
   messages raised from deep inside a recursive decomposition must name
   the vertex of the instance the caller actually built. *)
let orig t v =
  match t.vertex_map with Some m -> Vertex.orig_int (Vertex.Map.get m v) | None -> v

(* per-round tracing accumulators; allocated only when a trace is
   attached, so disabled tracing costs one match per delivery *)
type round_stats = {
  tr : Trace.t;
  loads : (int * int, int) Hashtbl.t; (* local undirected edge -> deliveries *)
  touched : bool array;
}

let make_stats t =
  match t.trace with
  | None -> None
  | Some tr ->
    Some
      { tr;
        loads = Hashtbl.create 64;
        touched = Array.make (Graph.num_vertices t.graph) false }

let emit_stats t ~round ~messages_before ~words_before = function
  | Some { tr; loads; touched } ->
    let map v = orig t v in
    let max_load = ref 0 in
    Dex_util.Table.iter_sorted
      (fun (u, v) c ->
        if c > !max_load then max_load := c;
        Trace.count_edge tr (map u) (map v) ~by:c)
      loads;
    let active = ref 0 in
    Array.iter (fun b -> if b then incr active) touched;
    Trace.round_tick tr ~round
      ~messages:(t.messages - messages_before)
      ~words:(t.words - words_before)
      ~max_edge_load:!max_load ~active:!active
  | None -> ()

(* ---------------- the round loop ---------------- *)

let arena_of t =
  match t.arena with
  | Some a -> a
  | None ->
    let a = Arena.create ~word_size:t.word_size ~to_orig:(fun v -> orig t v) t.graph in
    t.arena <- Some a;
    a

(* One round: Phase A steps the active vertices through reusable
   cursors, reading the fault schedule only through the pure
   [Faults.is_crashed]; Phase B then delivers in canonical order
   (ascending source, then descending destination) and does everything
   that records — crash events, fault verdicts, counters, trace stats.
   The phases cannot interleave: a delivery overwrites the receiver's
   slot, which a vertex stepped later in the same round may still have
   to read. *)
let step_round t a ib ob states step =
  let round = Arena.round a in
  let active = Arena.active_count a in
  let crashed record v =
    match t.faults with
    | Some f when record -> Faults.crashed f ~round ~vertex:(Vertex.local v)
    | Some f -> Faults.is_crashed f ~round ~vertex:(Vertex.local v)
    | None -> false
  in
  for i = 0 to active - 1 do
    let v = Arena.active_get a i in
    if not (crashed false v) then begin
      Arena.set_inbox ib v;
      Arena.set_outbox ob v;
      states.(v) <- step ~round ~vertex:(Vertex.local v) states.(v) ib ob
    end
  done;
  let stats = make_stats t in
  let messages_before = t.messages and words_before = t.words in
  let record src dst words times =
    t.messages <- t.messages + times;
    t.words <- t.words + (times * words);
    match stats with
    | Some { loads; touched; _ } ->
      touched.(src) <- true;
      touched.(dst) <- true;
      let e = (min src dst, max src dst) in
      let prev = try Hashtbl.find loads e with Not_found -> 0 in
      Hashtbl.replace loads e (prev + times)
    | None -> ()
  in
  for i = 0 to active - 1 do
    let v = Arena.active_get a i in
    if not (crashed true v) then begin
      Arena.deliver_staged a v (fun dst words ->
          match t.faults with
          | None ->
            record v dst words 1;
            `Deliver
          | Some f ->
            (match Faults.verdict f ~round ~src:(Vertex.local v) ~dst:(Vertex.local dst) with
            | `Deliver ->
              record v dst words 1;
              `Deliver
            | `Drop -> `Drop
            | `Duplicate ->
              record v dst words 2;
              `Duplicate));
      if Arena.woke a v then Arena.push_active a v
    end
  done;
  emit_stats t stats ~round ~messages_before ~words_before

(* Steps rounds until nothing is active and no timer is pending, or
   round [last] is done. An idle stretch before the next timer is
   skipped in O(1): the skipped rounds elapse (and are charged by the
   callers) but execute nothing and emit no round tick. Returns the
   final states, the rounds elapsed and whether the run went
   quiescent. *)
let drive t ~init ~step ~last ?on_round () =
  let a = arena_of t in
  Arena.begin_run a;
  let states = Array.init (Graph.num_vertices t.graph) init in
  let ib = Arena.make_inbox a and ob = Arena.make_outbox a in
  let rec loop () =
    if Arena.active_count a = 0 && Arena.next_timer a <= last then Arena.skip_idle a;
    if Arena.active_count a > 0 && Arena.round a <= last then begin
      step_round t a ib ob states step;
      Arena.finish_round a;
      (match on_round with Some f -> f (Arena.round a - 1) states | None -> ());
      loop ()
    end
  in
  loop ();
  (states, Arena.round a - 1, Arena.active_count a = 0 && Arena.next_timer a = max_int)

let run_active t ~label ~init ~step ?(max_rounds = 1_000_000) ?on_round () =
  let states, rounds, quiescent = drive t ~init ~step ~last:max_rounds ?on_round () in
  if not quiescent then begin
    (* the rounds really elapsed: charge them before raising so the
       ledger stays truthful on failure *)
    Rounds.charge_executed t.ledger ~label max_rounds;
    raise
      (Round_limit_exceeded
         { label; max_rounds; executed = max_rounds; states = Packed states })
  end;
  Rounds.charge_executed t.ledger ~label rounds;
  (states, rounds)

let run_for t ~label ~init ~step ?on_round horizon =
  let states, _, _ = drive t ~init ~step ~last:horizon ?on_round () in
  Rounds.charge_executed t.ledger ~label horizon;
  states
