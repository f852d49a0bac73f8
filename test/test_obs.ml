(* Tests for the observability layer: the JSON codec, trace events and
   their JSONL round-trip, span trees over real algorithm runs, the
   per-edge congestion histogram and fault-aware word accounting. *)

module Json = Dex_obs.Json
module Trace = Dex_obs.Trace
module Graph = Dex_graph.Graph
module Gen = Dex_graph.Generators
module Rounds = Dex_congest.Rounds
module Network = Dex_congest.Network
module Arena = Dex_congest.Arena
module Vertex = Dex_graph.Vertex
module Faults = Dex_congest.Faults
module Decomposition = Dex_decomp.Decomposition
module Las_vegas = Dex_decomp.Las_vegas
module Enum = Dex_triangle.Expander_enum
module Rng = Dex_util.Rng

(* ---------- JSON codec ---------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [ ("s", Json.String "a \"quoted\" line\nwith\tescapes \\ and unicode \x01");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]) ]
  in
  match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v ->
    Alcotest.(check string) "roundtrip" (Json.to_string doc) (Json.to_string v);
    Alcotest.(check (option int)) "member" (Some (-42))
      (Option.bind (Json.member "i" v) Json.to_int)

let test_json_errors () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted malformed input %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1,}";
  bad "nul";
  bad "\"unterminated";
  bad "1 2"

(* ---------- trace events: JSONL round-trip, one per variant ---------- *)

let test_event_roundtrip () =
  let events =
    [ Trace.Span_open { id = 3; parent = -1; name = "decompose"; rounds_before = 0 };
      Trace.Span_close { id = 3; name = "decompose"; rounds = 17; wall_ns = 12345 };
      Trace.Round_tick { round = 4; messages = 10; words = 12; max_edge_load = 2; active = 7 };
      Trace.Fault { kind = "drop"; round = 2; src = 1; dst = 5 };
      Trace.Fault { kind = "crash"; round = 9; src = 3; dst = -1 };
      Trace.Retry { label = "sparse-cut"; attempt = 2; certified = false };
      Trace.Note { key = "phase"; value = "phase1" } ]
  in
  List.iter
    (fun ev ->
      let line = Trace.to_jsonl_line ev in
      match Json.parse line with
      | Error e -> Alcotest.failf "parse %S: %s" line e
      | Ok v -> (
        match Trace.event_of_json v with
        | Error e -> Alcotest.failf "decode %S: %s" line e
        | Ok ev' ->
          Alcotest.(check string) "event roundtrip" line (Trace.to_jsonl_line ev')))
    events;
  (match Json.parse "{\"ev\":\"no-such-event\"}" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v -> (
    match Trace.event_of_json v with
    | Ok _ -> Alcotest.fail "decoded an unknown event kind"
    | Error _ -> ()))

let test_ring_eviction () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.note tr ~key:"k" ~value:(string_of_int i)
  done;
  Alcotest.(check int) "emitted" 10 (Trace.emitted tr);
  Alcotest.(check int) "dropped" 6 (Trace.dropped tr);
  let retained =
    List.map
      (function Trace.Note { value; _ } -> value | _ -> Alcotest.fail "unexpected event")
      (Trace.events tr)
  in
  Alcotest.(check (list string)) "oldest first" [ "7"; "8"; "9"; "10" ] retained

(* ---------- span tree over a real decomposition run ---------- *)

let strip_wall tree =
  (* the span structure must be deterministic; wall-clock is not *)
  let rec go (t : Rounds.tree) =
    Printf.sprintf "%s:%d:%d(%s)" t.Rounds.span t.Rounds.rounds t.Rounds.self
      (String.concat "," (List.map go t.Rounds.children))
  in
  go tree

let traced_decompose ~seed =
  let g = Gen.gnp (Rng.create 7) ~n:100 ~p:0.08 in
  let ledger = Rounds.create () in
  let tr = Trace.create () in
  Rounds.attach_trace ledger (Some tr);
  let r = Decomposition.run ~ledger ~epsilon:(1.0 /. 6.0) ~k:2 g (Rng.create seed) in
  (r, ledger, tr)

let test_span_tree_deterministic () =
  let _, l1, _ = traced_decompose ~seed:11 in
  let _, l2, _ = traced_decompose ~seed:11 in
  Alcotest.(check bool) "same structure" true
    (strip_wall (Rounds.tree l1) = strip_wall (Rounds.tree l2));
  Alcotest.(check int) "same total" (Rounds.total l1) (Rounds.total l2)

let test_tree_consistency () =
  let r, ledger, tr = traced_decompose ~seed:11 in
  let tree = Rounds.tree ledger in
  let rec leaf_sum (t : Rounds.tree) =
    t.Rounds.self + List.fold_left (fun acc c -> acc + leaf_sum c) 0 t.Rounds.children
  in
  let rec node_sum_ok (t : Rounds.tree) =
    t.Rounds.rounds
    = t.Rounds.self + List.fold_left (fun acc c -> acc + c.Rounds.rounds) 0 t.Rounds.children
    && List.for_all node_sum_ok t.Rounds.children
  in
  Alcotest.(check bool) "rounds = self + children everywhere" true (node_sum_ok tree);
  Alcotest.(check int) "leaf sum = total" (Rounds.total ledger) (leaf_sum tree);
  Alcotest.(check int) "by_phase sum = total" (Rounds.total ledger)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 (Rounds.by_phase ledger));
  Alcotest.(check string) "root" "total" tree.Rounds.span;
  Alcotest.(check int) "root rounds" (Rounds.total ledger) tree.Rounds.rounds;
  (* the decomposition wraps its work in named spans, and the executed
     clustering phase leaves a charge leaf somewhere under them *)
  let rec find name (t : Rounds.tree) =
    t.Rounds.span = name || List.exists (find name) t.Rounds.children
  in
  Alcotest.(check bool) "decompose span" true (find "decompose" tree);
  Alcotest.(check bool) "phase1 span" true (find "phase1" tree);
  Alcotest.(check bool) "mpx-clustering leaf" true (find "mpx-clustering" tree);
  (* executed message traffic was accounted both in stats and the trace *)
  Alcotest.(check bool) "stats.messages > 0" true
    (r.Decomposition.stats.Decomposition.messages > 0);
  Alcotest.(check int) "trace messages = stats.messages"
    r.Decomposition.stats.Decomposition.messages (Trace.messages tr);
  Alcotest.(check int) "trace words = stats.words"
    r.Decomposition.stats.Decomposition.words (Trace.words tr)

(* ---------- the ledger's makespan is each algorithm's round count ---------- *)

let test_makespan_matches_reported () =
  let r, ledger, _ = traced_decompose ~seed:11 in
  Alcotest.(check int) "decompose: makespan = stats.rounds"
    r.Decomposition.stats.Decomposition.rounds (Rounds.makespan ledger);
  let g = Gen.gnp (Rng.create 5) ~n:60 ~p:0.1 in
  let ledger = Rounds.create () in
  let total_rounds =
    match Las_vegas.decompose ~ledger ~epsilon:(1.0 /. 6.0) ~k:2 g (Rng.create 1) with
    | Ok o -> o.Las_vegas.total_rounds
    | Error f -> f.Las_vegas.total_rounds
  in
  Alcotest.(check int) "las vegas: makespan = total_rounds" total_rounds
    (Rounds.makespan ledger);
  let g = Gen.connectivize (Rng.create 3) (Gen.gnp (Rng.create 3) ~n:40 ~p:0.25) in
  let ledger = Rounds.create () in
  let a =
    match Enum.run_verified ~ledger ~attempts:2 g (Rng.create 4) with Ok a | Error a -> a
  in
  Alcotest.(check int) "triangles: makespan = rounds_total" a.Enum.rounds_total
    (Rounds.makespan ledger);
  let ledger = Rounds.create () in
  let r = Enum.run ~ledger g (Rng.create 4) in
  Alcotest.(check int) "triangles: makespan = total_rounds" r.Enum.total_rounds
    (Rounds.makespan ledger)

(* ---------- per-edge congestion histogram ---------- *)

(* On a star, make each leaf v send v mod 3 + 1 rounds' worth of pings
   to the hub: spoke loads differ, so top-K ordering is observable. *)
let test_hot_edges_star () =
  let n = 8 in
  let g = Gen.star n in
  let ledger = Rounds.create () in
  let tr = Trace.create () in
  Rounds.attach_trace ledger (Some tr);
  let net = Network.create g ledger in
  ignore
    (Network.run_for net ~label:Walk_protocol
       ~init:(fun v -> if v = 0 then 0 else (v mod 3) + 1)
       ~step:(fun ~round:_ ~vertex:v budget _ib ob ->
         let v = Vertex.local_int v in
         if v = 0 || budget = 0 then budget
         else begin
           Arena.Outbox.send1 ob ~dst:(Vertex.local 0) v;
           if budget > 1 then Arena.Outbox.wake ob;
           budget - 1
         end)
       4);
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "load of spoke %d" v)
        ((v mod 3) + 1)
        (Trace.edge_load tr (0, v)))
    [ 1; 2; 3; 4; 5; 6; 7 ];
  (* descending by load, ties broken by edge — fully deterministic *)
  Alcotest.(check (list (pair (pair int int) int)))
    "top-4"
    [ ((0, 2), 3); ((0, 5), 3); ((0, 1), 2); ((0, 4), 2) ]
    (Trace.top_edges tr 4);
  Alcotest.(check int) "histogram is symmetric" (Trace.edge_load tr (0, 2))
    (Trace.edge_load tr (2, 0))

(* ---------- round ticks and word accounting ---------- *)

let flood net g rounds =
  ignore
    (Network.run_for net ~label:Bfs
       ~init:(fun v -> v land 1)
       ~step:(fun ~round:_ ~vertex:v st ib ob ->
         let v = Vertex.local_int v in
         let st = ref st in
         Arena.Inbox.iter1 ib (fun _ w -> st := !st lxor w);
         Graph.iter_neighbors g v (fun u -> Arena.Outbox.send1 ob ~dst:(Vertex.local u) !st);
         (* flood every round, even after an all-dropped inbox *)
         Arena.Outbox.wake ob;
         !st)
       rounds)

let test_round_ticks () =
  let g = Gen.cycle 16 in
  let ledger = Rounds.create () in
  let tr = Trace.create () in
  Rounds.attach_trace ledger (Some tr);
  let net = Network.create g ledger in
  flood net g 5;
  let ticks =
    List.filter_map
      (function
        | Trace.Round_tick { messages; words; max_edge_load; active; _ } ->
          Some (messages, words, max_edge_load, active)
        | _ -> None)
      (Trace.events tr)
  in
  Alcotest.(check int) "one tick per round" 5 (List.length ticks);
  Alcotest.(check int) "tick messages sum = messages_sent" (Network.messages_sent net)
    (List.fold_left (fun acc (m, _, _, _) -> acc + m) 0 ticks);
  Alcotest.(check int) "tick words sum = words_sent" (Network.words_sent net)
    (List.fold_left (fun acc (_, w, _, _) -> acc + w) 0 ticks);
  (* every vertex of the cycle sends both ways, every round *)
  List.iter
    (fun (_, _, load, active) ->
      Alcotest.(check int) "all vertices active" 16 active;
      Alcotest.(check int) "undirected edges carry both directions" 2 load)
    ticks

let test_words_sent_fault_aware () =
  let g = Gen.cycle 12 in
  let run spec =
    let ledger = Rounds.create () in
    let faults = Option.map Faults.create spec in
    let net = Network.create ?faults g ledger in
    flood net g 4;
    (net, faults)
  in
  let clean, _ = run None in
  Alcotest.(check int) "clean: words = messages (word_size 1)"
    (Network.messages_sent clean) (Network.words_sent clean);
  (* duplicate everything: twice the deliveries, twice the words *)
  let doubled, _ = run (Some (Faults.lossy ~duplicate:1.0 ~drop:0.0 ())) in
  Alcotest.(check int) "duplicate=1: words doubled"
    (2 * Network.words_sent clean)
    (Network.words_sent doubled);
  (* drop everything: nothing delivered, nothing charged *)
  let silenced, faults = run (Some (Faults.lossy ~drop:1.0 ())) in
  Alcotest.(check int) "drop=1: no words" 0 (Network.words_sent silenced);
  Alcotest.(check bool) "drops recorded" true
    (match faults with Some f -> Faults.drops f > 0 | None -> false)

let test_fault_events_bridged () =
  let g = Gen.cycle 10 in
  let ledger = Rounds.create () in
  let tr = Trace.create () in
  Rounds.attach_trace ledger (Some tr);
  let faults = Faults.create (Faults.lossy ~drop:0.5 ~seed:3 ()) in
  let net = Network.create ~faults g ledger in
  flood net g 4;
  Alcotest.(check bool) "schedule dropped something" true (Faults.drops faults > 0);
  Alcotest.(check int) "every fault reached the trace" (Faults.drops faults)
    (Trace.faults tr);
  let kinds =
    List.filter_map
      (function Trace.Fault { kind; _ } -> Some kind | _ -> None)
      (Trace.events tr)
  in
  Alcotest.(check bool) "drop events present" true (List.mem "drop" kinds)

(* ---------- retries ---------- *)

let test_retry_events () =
  let g = Gen.gnp (Rng.create 5) ~n:60 ~p:0.1 in
  let ledger = Rounds.create () in
  let tr = Trace.create () in
  Rounds.attach_trace ledger (Some tr);
  let outcome = Las_vegas.decompose ~ledger ~epsilon:(1.0 /. 6.0) ~k:2 g (Rng.create 1) in
  Alcotest.(check bool) "certified" true (Result.is_ok outcome);
  let retries =
    List.filter_map
      (function Trace.Retry { label; certified; _ } -> Some (label, certified) | _ -> None)
      (Trace.events tr)
  in
  Alcotest.(check bool) "at least one retry event" true (List.length retries >= 1);
  Alcotest.(check int) "retry counter matches" (List.length retries) (Trace.retries tr);
  Alcotest.(check bool) "labelled decompose" true
    (List.for_all (fun (l, _) -> l = "decompose") retries);
  Alcotest.(check bool) "last attempt certified" true
    (snd (List.nth retries (List.length retries - 1)))

(* ---------- JSONL sink round-trip over a real run ---------- *)

let test_jsonl_sink_roundtrip () =
  let path = Filename.temp_file "dex_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let g = Gen.cycle 8 in
      let ledger = Rounds.create () in
      let sink = open_out path in
      let tr = Trace.create ~sink () in
      Rounds.attach_trace ledger (Some tr);
      let net = Network.create g ledger in
      Rounds.with_span ledger "outer" (fun () -> flood net g 3);
      close_out sink;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "every emitted event was sunk" (Trace.emitted tr)
        (List.length lines);
      let decoded =
        List.map
          (fun line ->
            match Json.parse line with
            | Error e -> Alcotest.failf "parse %S: %s" line e
            | Ok v -> (
              match Trace.event_of_json v with
              | Error e -> Alcotest.failf "decode %S: %s" line e
              | Ok ev -> ev))
          lines
      in
      Alcotest.(check bool) "sink and ring agree" true (decoded = Trace.events tr))

let test_clock_freeze () =
  Fun.protect ~finally:Dex_obs.Clock.unfreeze
    (fun () ->
      Dex_obs.Clock.freeze 42;
      Alcotest.(check int) "frozen" 42 (Dex_obs.Clock.now_ns ());
      Alcotest.(check int) "still frozen" 42 (Dex_obs.Clock.now_ns ()))

let test_json_buffer_and_float () =
  let v = Json.Obj [ ("a", Json.Int 3); ("b", Json.Float 0.5) ] in
  let buf = Buffer.create 16 in
  Json.to_buffer buf v;
  Alcotest.(check string) "to_buffer agrees with to_string"
    (Json.to_string v) (Buffer.contents buf);
  Alcotest.(check bool) "to_float on Float" true (Json.to_float (Json.Float 0.5) = Some 0.5);
  Alcotest.(check bool) "to_float widens Int" true (Json.to_float (Json.Int 3) = Some 3.0);
  Alcotest.(check bool) "to_float rejects strings" true
    (Json.to_float (Json.String "x") = None)

let test_set_sink_and_event_json () =
  let path = Filename.temp_file "dex_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let tr = Trace.create () in
      Trace.emit tr (Trace.Note { key = "before"; value = "unsunk" });
      let sink = open_out path in
      Trace.set_sink tr (Some sink);
      let ev = Trace.Note { key = "after"; value = "sunk" } in
      Trace.emit tr ev;
      Trace.set_sink tr None;
      Trace.emit tr (Trace.Note { key = "detached"; value = "unsunk" });
      close_out sink;
      let ic = open_in path in
      let line = input_line ic in
      let at_eof = try ignore (input_line ic); false with End_of_file -> true in
      close_in ic;
      Alcotest.(check bool) "exactly one line sunk" true at_eof;
      Alcotest.(check string) "the sunk event, via event_to_json"
        (Json.to_string (Trace.event_to_json ev)) line;
      Alcotest.(check int) "ring kept all three" 3 (Trace.emitted tr))

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "buffer & float accessors" `Quick test_json_buffer_and_float;
          Alcotest.test_case "malformed input" `Quick test_json_errors ] );
      ( "trace",
        [ Alcotest.test_case "event jsonl roundtrip" `Quick test_event_roundtrip;
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "jsonl sink roundtrip" `Quick test_jsonl_sink_roundtrip;
          Alcotest.test_case "set_sink attach/detach" `Quick test_set_sink_and_event_json ] );
      ( "clock",
        [ Alcotest.test_case "freeze/unfreeze" `Quick test_clock_freeze ] );
      ( "spans",
        [ Alcotest.test_case "deterministic under fixed seed" `Quick
            test_span_tree_deterministic;
          Alcotest.test_case "tree/by_phase/total consistency" `Quick
            test_tree_consistency ] );
      ( "makespan",
        [ Alcotest.test_case "equals the reported rounds" `Quick test_makespan_matches_reported ]
      );
      ( "congestion",
        [ Alcotest.test_case "hot edges on a star" `Quick test_hot_edges_star;
          Alcotest.test_case "round ticks" `Quick test_round_ticks ] );
      ( "faults",
        [ Alcotest.test_case "words_sent is fault-aware" `Quick
            test_words_sent_fault_aware;
          Alcotest.test_case "fault events bridged" `Quick test_fault_events_bridged ] );
      ( "retries",
        [ Alcotest.test_case "las vegas retry events" `Quick test_retry_events ] ) ]
