(* Tests for the CONGEST kernel: the rounds ledger, message delivery,
   the congestion discipline (failure injection), and the executed
   primitives (BFS tree, leader election, tree aggregation). *)

module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Gen = Dex_graph.Generators
module Vertex = Dex_graph.Vertex
module Rounds = Dex_congest.Rounds
module Network = Dex_congest.Network
module Primitives = Dex_congest.Primitives
module Arena = Dex_congest.Arena
module Clustering = Dex_ldd.Clustering
module Trace = Dex_obs.Trace
module Json = Dex_obs.Json
module Invariant = Dex_util.Invariant
module Rng = Dex_util.Rng

let fresh_net ?word_size g =
  let ledger = Rounds.create () in
  Network.create ?word_size g ledger

(* ---------- rounds ledger ---------- *)

let test_rounds_ledger () =
  let r = Rounds.create () in
  Alcotest.(check int) "empty" 0 (Rounds.total r);
  Rounds.charge r ~label:"a" 3;
  Rounds.charge r ~label:"b" 5;
  Rounds.charge r ~label:"a" 2;
  Alcotest.(check int) "total" 10 (Rounds.total r);
  (* equal costs are ordered by label — deterministic across runs *)
  Alcotest.(check (list (pair string int))) "by phase" [ ("a", 5); ("b", 5) ]
    (Rounds.by_phase r);
  Rounds.charge r ~label:"zz" 7;
  Alcotest.(check (list (pair string int))) "by phase sorted" [ ("zz", 7); ("a", 5); ("b", 5) ]
    (Rounds.by_phase r);
  Alcotest.check_raises "negative"
    (Dex_util.Invariant.Violation { where = "Rounds.charge"; what = "negative round count" })
    (fun () -> Rounds.charge r ~label:"x" (-1))

let test_makespan () =
  let r = Rounds.create () in
  Rounds.charge r ~label:"a" 3;
  Rounds.charge r ~label:"b" 4;
  Alcotest.(check int) "sequential charges add" 7 (Rounds.makespan r);
  Rounds.parallel r (fun k -> Rounds.charge r ~label:"p" k) [ 5; 9; 2 ];
  Alcotest.(check int) "branches join at their max" 16 (Rounds.makespan r);
  Alcotest.(check int) "total sums the branches" 23 (Rounds.total r);
  (* a branch that itself forks: 1 + max (2, 6) = 7 against a flat 4 *)
  Rounds.parallel r
    (function
      | `Fork ->
        Rounds.charge r ~label:"q" 1;
        Rounds.parallel r (fun k -> Rounds.charge r ~label:"q" k) [ 2; 6 ]
      | `Flat -> Rounds.charge r ~label:"q" 4)
    [ `Fork; `Flat ];
  Alcotest.(check int) "nested parallel" 23 (Rounds.makespan r);
  Alcotest.(check int) "nested total" 36 (Rounds.total r);
  Rounds.parallel r (fun k -> Rounds.charge r ~label:"z" k) [];
  Alcotest.(check int) "empty list adds 0" 23 (Rounds.makespan r);
  Rounds.charge r ~label:"a" 10;
  Alcotest.(check int) "later charge continues from the max" 33 (Rounds.makespan r);
  Alcotest.(check (list (pair string int))) "by phase ignores the clock"
    [ ("p", 16); ("a", 13); ("q", 13); ("b", 4) ]
    (Rounds.by_phase r)

let test_retry () =
  let run ~attempts ~certify_at =
    let r = Rounds.create () in
    let tr = Trace.create () in
    Rounds.attach_trace r (Some tr);
    Rounds.charge r ~label:"before" 100;
    let outcome, used, rounds =
      Rounds.retry r ~label:"probe" ~attempts (fun i ->
          Rounds.charge r ~label:"attempt" (10 * i);
          (i, i >= certify_at))
    in
    let events =
      List.filter_map
        (function
          | Trace.Retry { label; attempt; certified } -> Some (label, attempt, certified)
          | _ -> None)
        (Trace.events tr)
    in
    (outcome, used, rounds, events)
  in
  let outcome, used, rounds, events = run ~attempts:5 ~certify_at:2 in
  Alcotest.(check (result int int)) "stops at the first certified" (Ok 2) outcome;
  Alcotest.(check int) "attempts used" 2 used;
  Alcotest.(check int) "makespan added" 30 rounds;
  Alcotest.(check (list (triple string int bool))) "one event per attempt"
    [ ("probe", 1, false); ("probe", 2, true) ]
    events;
  let outcome, used, rounds, events = run ~attempts:3 ~certify_at:9 in
  Alcotest.(check (result int int)) "budget exhausted: last value" (Error 3) outcome;
  Alcotest.(check int) "whole budget used" 3 used;
  Alcotest.(check int) "every attempt counted" 60 rounds;
  Alcotest.(check int) "three events" 3 (List.length events);
  Alcotest.check_raises "attempts >= 1"
    (Invariant.Violation { where = "Rounds.retry"; what = "attempts must be >= 1" })
    (fun () -> ignore (Rounds.retry (Rounds.create ()) ~label:"x" ~attempts:0 (fun i -> (i, true))))

(* ---------- message passing ---------- *)

(* a 2-round protocol: round 1 everyone sends its id+100 to neighbors;
   round 2 everyone records the max received *)
let test_basic_exchange () =
  let g = Gen.cycle 5 in
  let net = fresh_net g in
  let step ~round ~vertex st ib ob =
    let vertex = Vertex.local_int vertex in
    if round = 1 then begin
      Graph.iter_neighbors g vertex (fun u ->
          Arena.Outbox.send1 ob ~dst:(Vertex.local u) (vertex + 100));
      st
    end
    else begin
      let best = ref st in
      Arena.Inbox.iter1 ib (fun _ w -> best := max !best w);
      !best
    end
  in
  let states = Network.run_for net ~label:"exchange" ~init:(fun _ -> -1) ~step 2 in
  Alcotest.(check int) "vertex 0 saw 104" 104 states.(0);
  Alcotest.(check int) "vertex 2 saw 103" 103 states.(2);
  Alcotest.(check int) "messages" 10 (Network.messages_sent net);
  Alcotest.(check int) "rounds charged" 2 (Rounds.total (Network.rounds net))

(* ---------- failure injection: the congestion discipline ---------- *)

let expect_congestion f =
  match f () with
  | exception Network.Congestion_violation _ -> ()
  | _ -> Alcotest.fail "expected Congestion_violation"

(* one round in which vertex 0 runs [send] on its outbox *)
let one_round_from_0 net send =
  Network.run_for net ~label:"bad"
    ~init:(fun _ -> ())
    ~step:(fun ~round:_ ~vertex st _ib ob ->
      if Vertex.local_int vertex = 0 then send ob;
      st)
    1

let test_rejects_non_neighbor () =
  let net = fresh_net (Gen.path 3) in
  expect_congestion (fun () ->
      one_round_from_0 net (fun ob -> Arena.Outbox.send1 ob ~dst:(Vertex.local 2) 1))

let test_rejects_double_send () =
  let net = fresh_net (Gen.path 3) in
  expect_congestion (fun () ->
      one_round_from_0 net (fun ob ->
          Arena.Outbox.send1 ob ~dst:(Vertex.local 1) 1;
          Arena.Outbox.send1 ob ~dst:(Vertex.local 1) 2))

let test_rejects_oversized_message () =
  let net = fresh_net ~word_size:2 (Gen.path 3) in
  expect_congestion (fun () ->
      one_round_from_0 net (fun ob -> Arena.Outbox.send ob ~dst:(Vertex.local 1) [| 1; 2; 3 |]))

let test_rejects_self_message () =
  let net = fresh_net (Graph.of_edges ~n:2 [ (0, 1); (0, 0) ]) in
  expect_congestion (fun () ->
      one_round_from_0 net (fun ob -> Arena.Outbox.send1 ob ~dst:(Vertex.local 0) 1))

let test_run_timeout () =
  let g = Gen.path 3 in
  let net = fresh_net g in
  match
    Network.run_active net ~label:"never"
      ~init:(fun _ -> ())
      ~step:(fun ~round:_ ~vertex:_ st _ib ob ->
        Arena.Outbox.wake ob;
        st)
      ~max_rounds:10 ()
  with
  | exception Network.Round_limit_exceeded { label; max_rounds; executed; states = _ } ->
    Alcotest.(check string) "label" "never" label;
    Alcotest.(check int) "max_rounds" 10 max_rounds;
    Alcotest.(check int) "executed" 10 executed;
    (* the partial rounds were really executed: the ledger must say so *)
    Alcotest.(check int) "partial rounds charged" 10 (Rounds.total (Network.rounds net))
  | _ -> Alcotest.fail "expected Round_limit_exceeded"

(* ---------- timers, fast-forward, fixed horizons ---------- *)

(* vertex 0 arms a timer for round 50 in round 1, wakes itself once
   more when it fires, and logs every round it is stepped in; nothing
   else ever happens *)
let sleeper_run () =
  let ledger = Rounds.create () in
  let tr = Trace.create () in
  Rounds.attach_trace ledger (Some tr);
  let net = Network.create (Gen.path 3) ledger in
  let step ~round ~vertex st _ib ob =
    if Vertex.local_int vertex = 0 then begin
      if round = 1 then Arena.Outbox.wake_at ob ~round:50;
      if round = 50 then Arena.Outbox.wake ob;
      round :: st
    end
    else st
  in
  let states, rounds = Network.run_active net ~label:"sleeper" ~init:(fun _ -> []) ~step () in
  (states, rounds, ledger, tr)

let test_wake_at_fires_on_time () =
  let states, rounds, _, _ = sleeper_run () in
  Alcotest.(check (list int)) "vertex 0 stepped in rounds 1, 50, 51" [ 51; 50; 1 ]
    states.(0);
  Alcotest.(check int) "the run ends a round after the timer's" 51 rounds

let test_fast_forward_charged_not_ticked () =
  let _, _, ledger, tr = sleeper_run () in
  Alcotest.(check int) "all 51 rounds charged" 51 (Rounds.total ledger);
  let ticks =
    List.filter_map
      (function Trace.Round_tick { round; _ } -> Some round | _ -> None)
      (Trace.events tr)
  in
  Alcotest.(check (list int)) "ticks only for executed rounds" [ 1; 50; 51 ] ticks

let test_wake_at_past_rejected () =
  let expect_violation target =
    let net = fresh_net (Gen.path 3) in
    let step ~round ~vertex:_ st _ib ob =
      if round = 1 then Arena.Outbox.wake ob else Arena.Outbox.wake_at ob ~round:target;
      st
    in
    match Network.run_active net ~label:"past" ~init:(fun _ -> ()) ~step () with
    | exception Invariant.Violation { where; _ } ->
      Alcotest.(check string) "raised by wake_at" "Arena.Outbox.wake_at" where
    | _ -> Alcotest.fail (Printf.sprintf "wake_at ~round:%d in round 2 accepted" target)
  in
  expect_violation 2;
  expect_violation 1

let test_horizon_counts_last_round () =
  let g = Gen.cycle 4 in
  let net = fresh_net g in
  (* every vertex sleeps through round 2 and floods in round 3, the
     last round of the horizon: nobody reads those messages, but they
     were sent and count *)
  let step ~round ~vertex st _ib ob =
    if round = 1 then Arena.Outbox.wake_at ob ~round:3
    else
      Graph.iter_neighbors g (Vertex.local_int vertex) (fun u ->
          Arena.Outbox.send1 ob ~dst:(Vertex.local u) round);
    st
  in
  let _ = Network.run_for net ~label:"last" ~init:(fun _ -> ()) ~step 3 in
  Alcotest.(check int) "messages of round 3" 8 (Network.messages_sent net);
  Alcotest.(check int) "rounds charged" 3 (Rounds.total (Network.rounds net))

(* cluster assignment, rounds and message count of Clustering(0.4),
   recorded in golden/clustering.json before the protocol moved onto
   timed wakes *)
let test_clustering_golden () =
  let ic = open_in_bin
      (Filename.concat (Filename.dirname Sys.executable_name) "golden/clustering.json") in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let records = match Json.parse text with Ok (Json.List l) -> l | _ -> assert false in
  let get key r = Option.get (Json.member key r) in
  let int key r = Option.get (Json.to_int (get key r)) in
  List.iter
    (fun r ->
      let family = Option.get (Json.to_str (get "family" r)) and seed = int "seed" r in
      let g =
        match family with
        | "cycle" -> Gen.cycle 48
        | _ ->
          Gen.planted_partition (Rng.create (100 + seed)) ~parts:3 ~size:16 ~p_in:0.5
            ~p_out:0.05
      in
      let net = fresh_net g in
      let c = Clustering.run net ~beta:0.4 (Rng.create seed) in
      let name what = Printf.sprintf "%s seed %d %s" family seed what in
      let cluster =
        Array.of_list
          (List.map (fun x -> Option.get (Json.to_int x)) (Option.get (Json.to_list (get "cluster" r))))
      in
      Alcotest.(check (array int)) (name "clusters") cluster c.Clustering.cluster;
      Alcotest.(check int) (name "rounds") (int "rounds" r) c.Clustering.rounds;
      Alcotest.(check int) (name "ledger") (int "ledger" r) (Rounds.total (Network.rounds net));
      Alcotest.(check int) (name "messages") (int "messages" r) (Network.messages_sent net))
    records

(* ---------- primitives ---------- *)

let test_bfs_tree_matches_metrics () =
  let rng = Rng.create 12 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:40 ~p:0.08) in
  let net = fresh_net g in
  let tree = Primitives.bfs_tree net ~root:(Vertex.local 0) in
  let reference = Metrics.bfs_distances g 0 in
  Alcotest.(check (array int)) "depths equal BFS distances" reference tree.Primitives.depth;
  Alcotest.(check int) "root parent" 0 tree.Primitives.parent.(0);
  (* parent is one step closer *)
  Array.iteri
    (fun v d ->
      if v <> 0 && d <> max_int then
        Alcotest.(check int) "parent depth" (d - 1) tree.Primitives.depth.(tree.Primitives.parent.(v)))
    tree.Primitives.depth;
  Alcotest.(check int) "members count" 40 (Array.length tree.Primitives.members);
  Alcotest.(check bool) "rounds ≈ height" true
    (Rounds.total (Network.rounds net) >= tree.Primitives.height)

let test_bfs_tree_partial_component () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2) ] in
  let net = fresh_net g in
  let tree = Primitives.bfs_tree net ~root:(Vertex.local 0) in
  Alcotest.(check int) "component size" 3 (Array.length tree.Primitives.members);
  Alcotest.(check int) "outside parent" (-1) tree.Primitives.parent.(4)

let test_leader_election () =
  let g = Graph.of_edges ~n:6 [ (3, 4); (4, 5); (1, 2) ] in
  let net = fresh_net g in
  let leaders = Primitives.elect_leader net in
  Alcotest.(check int) "comp {3,4,5}" 3 leaders.(5);
  Alcotest.(check int) "comp {1,2}" 1 leaders.(2);
  Alcotest.(check int) "isolated" 0 leaders.(0)

let test_convergecast () =
  let g = Gen.path 8 in
  let net = fresh_net g in
  let tree = Primitives.bfs_tree net ~root:(Vertex.local 0) in
  let values = Array.init 8 (fun i -> i) in
  Alcotest.(check int) "sum" 28 (Primitives.convergecast_sum net tree ~label:"sum" values);
  Alcotest.(check int) "min" 0 (Primitives.convergecast_min net tree ~label:"min" values);
  let before = Rounds.total (Network.rounds net) in
  Primitives.broadcast net tree ~label:"bcast";
  Alcotest.(check int) "broadcast cost" (before + tree.Primitives.height)
    (Rounds.total (Network.rounds net));
  let before = Rounds.total (Network.rounds net) in
  Primitives.pipelined_broadcast net tree ~label:"pipe" ~words:5;
  Alcotest.(check int) "pipelined cost" (before + tree.Primitives.height + 5)
    (Rounds.total (Network.rounds net))

let test_subnetwork () =
  let g = Gen.cycle 6 in
  let net = fresh_net g in
  let sub, mapping = Primitives.subnetwork net [| 0; 1; 2 |] in
  Alcotest.(check int) "sub size" 3 (Graph.num_vertices (Network.graph sub));
  Alcotest.(check (array int)) "mapping" [| 0; 1; 2 |] (Vertex.Map.to_array mapping);
  Alcotest.(check int) "apply translates one id" (Vertex.orig_int (Vertex.orig 2))
    (Vertex.orig_int (Vertex.Map.apply mapping (Vertex.local 2)));
  (* shared ledger *)
  Network.charge sub ~label:"x" 4;
  Alcotest.(check int) "ledger shared" 4 (Rounds.total (Network.rounds net))

let test_subnetwork_violation_reports_original_id () =
  (* an oversized message inside a subnetwork must be reported in the
     original graph's coordinates, not the subnetwork-local ones *)
  let g = Gen.cycle 6 in
  let net = fresh_net ~word_size:1 g in
  let sub, _mapping = Primitives.subnetwork net [| 3; 4; 5 |] in
  (match
     one_round_from_0 sub (fun ob -> Arena.Outbox.send ob ~dst:(Vertex.local 1) [| 1; 2 |])
   with
  | exception Network.Congestion_violation msg ->
    (* local vertex 0 is original vertex 3 *)
    Alcotest.(check bool)
      (Printf.sprintf "mentions original id 3: %S" msg)
      true
      (String.length msg >= 8 && String.sub msg 0 8 = "vertex 3")
  | _ -> Alcotest.fail "expected Congestion_violation")

let prop_bfs_depth_eq_distance =
  QCheck.Test.make ~name:"protocol BFS = centralized BFS" ~count:40
    QCheck.(pair (int_range 2 30) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.connectivize rng (Gen.gnp rng ~n ~p:0.15) in
      let net = fresh_net g in
      let tree = Primitives.bfs_tree net ~root:(Vertex.local (seed mod n)) in
      tree.Primitives.depth = Metrics.bfs_distances g (seed mod n))

let () =
  Alcotest.run "congest"
    [ ( "ledger",
        [ Alcotest.test_case "rounds ledger" `Quick test_rounds_ledger;
          Alcotest.test_case "makespan and parallel" `Quick test_makespan;
          Alcotest.test_case "retry" `Quick test_retry ] );
      ( "kernel",
        [ Alcotest.test_case "basic exchange" `Quick test_basic_exchange;
          Alcotest.test_case "rejects non-neighbor" `Quick test_rejects_non_neighbor;
          Alcotest.test_case "rejects double send" `Quick test_rejects_double_send;
          Alcotest.test_case "rejects oversized" `Quick test_rejects_oversized_message;
          Alcotest.test_case "rejects self message" `Quick test_rejects_self_message;
          Alcotest.test_case "run timeout" `Quick test_run_timeout ] );
      ( "timers",
        [ Alcotest.test_case "wake_at fires on time" `Quick test_wake_at_fires_on_time;
          Alcotest.test_case "fast-forward charged, not ticked" `Quick
            test_fast_forward_charged_not_ticked;
          Alcotest.test_case "wake_at in the past rejected" `Quick test_wake_at_past_rejected;
          Alcotest.test_case "horizon counts last round" `Quick test_horizon_counts_last_round;
          Alcotest.test_case "clustering golden" `Quick test_clustering_golden ] );
      ( "primitives",
        [ Alcotest.test_case "bfs tree" `Quick test_bfs_tree_matches_metrics;
          Alcotest.test_case "bfs partial component" `Quick test_bfs_tree_partial_component;
          Alcotest.test_case "leader election" `Quick test_leader_election;
          Alcotest.test_case "convergecast" `Quick test_convergecast;
          Alcotest.test_case "subnetwork" `Quick test_subnetwork;
          Alcotest.test_case "subnetwork violation original ids" `Quick
            test_subnetwork_violation_reports_original_id;
          QCheck_alcotest.to_alcotest prop_bfs_depth_eq_distance ] ) ]
