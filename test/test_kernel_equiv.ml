(* Golden kernel suite. BFS, leader election and lossy-crash gossip,
   written against the cursor driver, must reproduce bit for bit what
   the seed's interleaved list kernel observed running the same
   protocols in list form: per-round and final state digests, round
   counts, message/word ledgers, fault traces, drop and duplicate
   counts. Those observations were recorded once, in
   golden/kernel_legacy.json, so the oracle is fixed and shares no
   code with the kernel under test. The cursor primitives are held to
   their recorded trees and to graph-theoretic ground truth. *)

module Graph = Dex_graph.Graph
module Generators = Dex_graph.Generators
module Metrics = Dex_graph.Metrics
module Vertex = Dex_graph.Vertex
module Rng = Dex_util.Rng
module Json = Dex_obs.Json
module Network = Dex_congest.Network
module Faults = Dex_congest.Faults
module Rounds = Dex_congest.Rounds
module Primitives = Dex_congest.Primitives
module Conformance = Dex_congest.Conformance
module Arena = Dex_congest.Arena

let seeds = [ 1; 2; 3 ]

(* ---------- the recorded oracle ---------- *)

let golden =
  let ic = open_in_bin
      (Filename.concat (Filename.dirname Sys.executable_name) "golden/kernel_legacy.json") in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse text with Ok v -> v | Error e -> failwith ("kernel_legacy.json: " ^ e)

let field key v =
  match Json.member key v with Some x -> x | None -> failwith ("golden: no field " ^ key)

let int_of v = Option.get (Json.to_int v)
let list_of v = Option.get (Json.to_list v)
let int_field key v = int_of (field key v)
let ints_field key v = Array.of_list (List.map int_of (list_of (field key v)))

(* the golden record of [workload] for [seed] *)
let recorded workload seed =
  List.find (fun r -> int_field "seed" r = seed) (list_of (field workload golden))

(* ---------- observation record ---------- *)

type obs = {
  final_digest : int;
  per_round : (int * int) list; (* (round, state digest) after each round *)
  rounds : int;
  messages : int;
  words : int;
  fault_log : string list;
  drops : int;
  dups : int;
}

let obs_of_json r =
  { final_digest = int_field "final_digest" r;
    per_round =
      List.map
        (fun p -> match list_of p with [ a; b ] -> (int_of a, int_of b) | _ -> assert false)
        (list_of (field "per_round" r));
    rounds = int_field "rounds" r;
    messages = int_field "messages" r;
    words = int_field "words" r;
    fault_log = List.map (fun s -> Option.get (Json.to_str s)) (list_of (field "fault_log" r));
    drops = int_field "drops" r;
    dups = int_field "duplicates" r }

let fault_repr = function
  | Faults.Drop { round; src; dst } -> Printf.sprintf "drop@%d:%d->%d" round src dst
  | Faults.Duplicate { round; src; dst } ->
    Printf.sprintf "dup@%d:%d->%d" round src dst
  | Faults.Link_down { round; u; v } -> Printf.sprintf "link@%d:%d-%d" round u v
  | Faults.Crash { round; vertex } -> Printf.sprintf "crash@%d:%d" round vertex

let observe ?spec g runner =
  let faults = Option.map Faults.create spec in
  let net = Network.create ?faults g (Rounds.create ()) in
  let per_round = ref [] in
  let on_round round states =
    per_round := (round, Conformance.default_digest states) :: !per_round
  in
  let states, rounds = runner g net on_round in
  { final_digest = Conformance.default_digest states;
    per_round = List.rev !per_round;
    rounds;
    messages = Network.messages_sent net;
    words = Network.words_sent net;
    fault_log =
      (match faults with Some f -> List.map fault_repr (Faults.trace f) | None -> []);
    drops = (match faults with Some f -> Faults.drops f | None -> 0);
    dups = (match faults with Some f -> Faults.duplicates f | None -> 0) }

let check_same name base o =
  Alcotest.(check int) (name ^ " rounds") base.rounds o.rounds;
  Alcotest.(check int) (name ^ " final digest") base.final_digest o.final_digest;
  Alcotest.(check (list (pair int int)))
    (name ^ " per-round digests") base.per_round o.per_round;
  Alcotest.(check int) (name ^ " messages") base.messages o.messages;
  Alcotest.(check int) (name ^ " words") base.words o.words;
  Alcotest.(check (list string)) (name ^ " fault trace") base.fault_log o.fault_log;
  Alcotest.(check int) (name ^ " drops") base.drops o.drops;
  Alcotest.(check int) (name ^ " duplicates") base.dups o.dups

let matches_golden ~workload ?spec make_graph runner () =
  List.iter
    (fun seed ->
      let spec = Option.map (fun f -> f seed) spec in
      let o = observe ?spec (make_graph seed) runner in
      check_same
        (Printf.sprintf "%s seed %d" workload seed)
        (obs_of_json (recorded workload seed))
        o)
    seeds

(* ---------- the former list-API workloads, on cursors ---------- *)

let send_all g v ob w =
  Graph.iter_neighbors g v (fun u -> Arena.Outbox.send1 ob ~dst:(Vertex.local u) w)

let bfs_runner g net on_round =
  let init v = if v = 0 then (0, 0, true) else (max_int, -1, false) in
  let step ~round:_ ~vertex st ib ob =
    let v = Vertex.local_int vertex in
    let dist, par, pending = st in
    let dist, par, pending =
      if dist = max_int then begin
        (* the list inbox ran senders descending and adopted strict
           improvements: the highest sender among the nearest wins *)
        let best = ref (dist, par, pending) in
        Arena.Inbox.iter1 ib (fun sender w ->
            let d0, _, _ = !best in
            if w + 1 <= d0 then best := (w + 1, sender, true));
        !best
      end
      else (dist, par, pending)
    in
    if pending then send_all g v ob dist;
    (dist, par, false)
  in
  Network.run_active net ~label:Bfs ~init ~step ~on_round ()

let leader_runner g net on_round =
  let init v = (v, true) in
  let step ~round:_ ~vertex (best0, fresh) ib ob =
    let v = Vertex.local_int vertex in
    let best = ref best0 in
    Arena.Inbox.iter1 ib (fun _ w -> if w < !best then best := w);
    if !best < best0 || fresh then send_all g v ob !best;
    (!best, false)
  in
  Network.run_active net ~label:Leader ~init ~step ~on_round ()

(* constant traffic for ten rounds, so drop/duplicate coins and the
   crash/link schedule all get exercised; every vertex wakes itself,
   since a vertex whose inbound messages were all dropped still sends *)
let gossip_runner g net on_round =
  let init v = v in
  let step ~round:_ ~vertex st ib ob =
    let v = Vertex.local_int vertex in
    let st = ref st in
    Arena.Inbox.iter1 ib (fun _ w -> if w < !st then st := w);
    send_all g v ob !st;
    Arena.Outbox.wake ob;
    !st
  in
  (Network.run_for net ~label:Leader ~init ~step ~on_round 10, 10)

let gnp_graph seed = Generators.gnp (Rng.create seed) ~n:40 ~p:0.12

(* cycles always contain edge (1, 2) and vertex 3, which the fault
   schedule below targets (same shape as test_faults.ml) *)
let cycle_graph seed = Generators.cycle (16 + seed)

let fault_spec seed =
  { (Faults.lossy ~drop:0.15 ~duplicate:0.05 ~seed ()) with
    Faults.link_failures = [ ((1, 2), 1) ];
    Faults.crashes = [ (3, 2) ] }

let test_bfs_golden = matches_golden ~workload:"bfs" gnp_graph bfs_runner

let test_leader_golden = matches_golden ~workload:"leader" gnp_graph leader_runner

let test_faulty_gossip_golden =
  matches_golden ~workload:"gossip" ~spec:fault_spec cycle_graph gossip_runner

(* ---------- cursor primitives ---------- *)

let test_cursor_bfs_tree () =
  List.iter
    (fun seed ->
      let g = gnp_graph seed in
      let net = Network.create g (Rounds.create ()) in
      let t = Primitives.bfs_tree net ~root:(Vertex.local 0) in
      let truth = Metrics.bfs_distances g 0 in
      Array.iteri
        (fun v d -> Alcotest.(check int) (Printf.sprintf "depth %d vs bfs" v) truth.(v) d)
        t.Primitives.depth;
      let r = recorded "bfs_tree" seed in
      let name what = Printf.sprintf "bfs_tree seed %d %s" seed what in
      Alcotest.(check (array int)) (name "depths") (ints_field "depth" r) t.Primitives.depth;
      Alcotest.(check (array int)) (name "members") (ints_field "members" r)
        t.Primitives.members;
      Alcotest.(check int) (name "height") (int_field "height" r) t.Primitives.height;
      Alcotest.(check int) (name "rounds") (int_field "rounds" r)
        (List.assoc "bfs" (Rounds.by_phase (Network.rounds net)));
      Alcotest.(check int) (name "messages") (int_field "messages" r)
        (Network.messages_sent net);
      Alcotest.(check int) (name "words") (int_field "words" r) (Network.words_sent net))
    seeds

let test_cursor_leader () =
  List.iter
    (fun seed ->
      let net = Network.create (gnp_graph seed) (Rounds.create ()) in
      let leaders = Primitives.elect_leader net in
      let r = recorded "elect_leader" seed in
      Alcotest.(check (array int))
        (Printf.sprintf "leaders seed %d" seed)
        (ints_field "leaders" r) leaders;
      Alcotest.(check int)
        (Printf.sprintf "leader messages seed %d" seed)
        (int_field "messages" r) (Network.messages_sent net))
    seeds

(* ---------- arena direct coverage ---------- *)

let test_arena_cursor_surface () =
  let g = Generators.cycle 6 in
  let a = Arena.create ~word_size:2 g in
  Alcotest.(check int) "word size" 2 (Arena.word_size a);
  Alcotest.(check int) "one slot per directed edge" (2 * Graph.num_plain_edges g)
    (Arena.slot_count a);
  let net = Network.create ~word_size:2 g (Rounds.create ()) in
  (* round 1: every vertex sends a two-word message to both cycle
     neighbors and self-wakes; round 2: fold the inbox through every
     cursor accessor, which must agree *)
  let step ~round ~vertex st ib ob =
    let v = Vertex.local_int vertex in
    if round = 1 then begin
      Graph.iter_neighbors g v (fun u ->
          Arena.Outbox.send ob ~dst:(Vertex.local u) [| u; 10 * v |]);
      Arena.Outbox.wake ob;
      st
    end
    else begin
      let count = Arena.Inbox.count ib in
      let firsts = ref 0 in
      Arena.Inbox.iter1 ib (fun _ w -> if w = v then incr firsts);
      let sum = ref 0 in
      Arena.Inbox.iter ib (fun src msg ->
          (* senders addressed us by id: msg.(0) = v, msg.(1) = 10*src *)
          sum := !sum + msg.(0) + msg.(1) - (10 * src));
      let empty = Arena.Inbox.is_empty ib in
      st + (1000 * count) + (100 * !firsts) + !sum + if empty then 1_000_000 else 0
    end
  in
  let states, rounds =
    Network.run_active net ~label:Bfs ~init:(fun _ -> 0) ~step ()
  in
  Alcotest.(check int) "two rounds to quiescence" 2 rounds;
  Array.iteri
    (fun v st ->
      (* two deliveries, both first words = v, iter sum = 2v *)
      Alcotest.(check int) (Printf.sprintf "vertex %d" v) (2000 + 200 + (2 * v)) st)
    states

let test_wake_keeps_vertex_active () =
  let g = Generators.path 5 in
  let net = Network.create g (Rounds.create ()) in
  (* nobody ever sends; vertex 0 self-wakes through round 3, so the
     run must execute exactly 4 rounds (the last one finds no wake)
     and step only vertex 0 after round 1 *)
  let step ~round ~vertex st _ib ob =
    if Vertex.local_int vertex = 0 && round <= 3 then begin
      Arena.Outbox.wake ob;
      st + 1
    end
    else st
  in
  let states, rounds =
    Network.run_active net ~label:Mpx_clustering ~init:(fun _ -> 0) ~step ()
  in
  Alcotest.(check int) "rounds" 4 rounds;
  Alcotest.(check int) "vertex 0 incremented through round 3" 3 states.(0);
  for v = 1 to 4 do
    Alcotest.(check int) (Printf.sprintf "vertex %d stepped once" v) 0 states.(v)
  done

let test_run_active_round_limit () =
  let g = Generators.cycle 5 in
  let net = Network.create g (Rounds.create ()) in
  let step ~round:_ ~vertex:_ st _ib ob =
    Arena.Outbox.wake ob;
    st
  in
  match Network.run_active net ~label:Leader ~init:(fun _ -> 0) ~step ~max_rounds:7 ()
  with
  | exception Network.Round_limit_exceeded { executed; max_rounds; _ } ->
    Alcotest.(check int) "executed" 7 executed;
    Alcotest.(check int) "limit" 7 max_rounds
  | _ -> Alcotest.fail "expected Round_limit_exceeded"

let test_cursor_congestion_violation () =
  let g = Generators.path 4 in
  let net = Network.create g (Rounds.create ()) in
  (* vertex 0's only neighbor is 1: sending to 3 must raise, naming
     both endpoints *)
  let step ~round:_ ~vertex st _ib ob =
    if Vertex.local_int vertex = 0 then Arena.Outbox.send1 ob ~dst:(Vertex.local 3) 7;
    st
  in
  match Network.run_active net ~label:Bfs ~init:(fun _ -> 0) ~step () with
  | exception Network.Congestion_violation msg ->
    Alcotest.(check string) "message" "vertex 0: 3 is not a neighbor" msg
  | _ -> Alcotest.fail "expected Congestion_violation"

let () =
  Alcotest.run "kernel-equiv"
    [ ( "list-api",
        [ Alcotest.test_case "bfs" `Quick test_bfs_golden;
          Alcotest.test_case "leader" `Quick test_leader_golden;
          Alcotest.test_case "faulty gossip" `Quick test_faulty_gossip_golden ] );
      ( "cursor-api",
        [ Alcotest.test_case "bfs tree" `Quick test_cursor_bfs_tree;
          Alcotest.test_case "leader" `Quick test_cursor_leader ] );
      ( "arena",
        [ Alcotest.test_case "cursor surface" `Quick test_arena_cursor_surface;
          Alcotest.test_case "wake" `Quick test_wake_keeps_vertex_active;
          Alcotest.test_case "round limit" `Quick test_run_active_round_limit;
          Alcotest.test_case "violation" `Quick test_cursor_congestion_violation ] ) ]
