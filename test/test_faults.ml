(* Tests for the fault-injection layer and the reliable-delivery
   primitives: fault-schedule determinism (same seed => identical
   trace and identical algorithm output), drop/duplication semantics,
   permanent link failures, crash-stop faults, and the honest ledger
   accounting of lossy runs. *)

module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Gen = Dex_graph.Generators
module Vertex = Dex_graph.Vertex
module Rounds = Dex_congest.Rounds
module Network = Dex_congest.Network
module Faults = Dex_congest.Faults
module Reliable = Dex_congest.Reliable
module Primitives = Dex_congest.Primitives
module Arena = Dex_congest.Arena
module Rng = Dex_util.Rng

let lossy_net ?(spec = Faults.lossy ~drop:0.1 ~seed:42 ()) g =
  let faults = Faults.create spec in
  let net = Network.create ~faults g (Rounds.create ()) in
  (net, faults)

(* ---------- fault-schedule determinism ---------- *)

let run_lossy_bfs spec =
  let rng = Rng.create 5 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:30 ~p:0.12) in
  let net, faults = lossy_net ~spec g in
  let tree = Reliable.bfs_tree net ~root:(Vertex.local 0) in
  (tree.Primitives.depth, Faults.trace faults, Faults.drops faults,
   Rounds.total (Network.rounds net), Network.messages_sent net)

let test_fault_determinism () =
  let spec = Faults.lossy ~drop:0.15 ~duplicate:0.05 ~seed:1234 () in
  let d1, t1, n1, r1, m1 = run_lossy_bfs spec in
  let d2, t2, n2, r2, m2 = run_lossy_bfs spec in
  Alcotest.(check (array int)) "same output" d1 d2;
  Alcotest.(check bool) "same fault trace" true (t1 = t2);
  Alcotest.(check int) "same drop count" n1 n2;
  Alcotest.(check int) "same rounds" r1 r2;
  Alcotest.(check int) "same messages" m1 m2;
  (* a different seed gives a different adversary *)
  let _, t3, _, _, _ = run_lossy_bfs (Faults.lossy ~drop:0.15 ~duplicate:0.05 ~seed:99 ()) in
  Alcotest.(check bool) "different seed, different trace" false (t1 = t3)

let test_zero_probability_is_fault_free () =
  let rng = Rng.create 6 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:25 ~p:0.15) in
  let plain = Network.create g (Rounds.create ()) in
  let reference = Primitives.bfs_tree plain ~root:(Vertex.local 0) in
  let net, faults = lossy_net ~spec:(Faults.lossy ~drop:0.0 ~seed:7 ()) g in
  let tree = Reliable.bfs_tree net ~root:(Vertex.local 0) in
  Alcotest.(check (array int)) "depths" reference.Primitives.depth tree.Primitives.depth;
  Alcotest.(check int) "no drops" 0 (Faults.drops faults);
  Alcotest.(check bool) "empty trace" true (Faults.trace faults = [])

(* ---------- reliable primitives under message loss ---------- *)

let test_reliable_bfs_under_drops () =
  let rng = Rng.create 8 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:40 ~p:0.1) in
  let net, faults = lossy_net ~spec:(Faults.lossy ~drop:0.2 ~duplicate:0.1 ~seed:3 ()) g in
  let tree = Reliable.bfs_tree net ~root:(Vertex.local 0) in
  Alcotest.(check (array int)) "depths equal BFS distances"
    (Metrics.bfs_distances g 0) tree.Primitives.depth;
  Alcotest.(check bool) "faults actually fired" true (Faults.drops faults > 0)

let test_reliable_bfs_fault_free_matches () =
  let rng = Rng.create 9 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:30 ~p:0.12) in
  let net = Network.create g (Rounds.create ()) in
  let tree = Reliable.bfs_tree net ~root:(Vertex.local 3) in
  Alcotest.(check (array int)) "depths" (Metrics.bfs_distances g 3) tree.Primitives.depth;
  Alcotest.(check int) "root parent" 3 tree.Primitives.parent.(3);
  Array.iteri
    (fun v d ->
      if v <> 3 && d <> max_int then
        Alcotest.(check int) "parent one step closer" (d - 1)
          tree.Primitives.depth.(tree.Primitives.parent.(v)))
    tree.Primitives.depth

let test_reliable_leader_under_drops () =
  let rng = Rng.create 10 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:35 ~p:0.1) in
  let net, _ = lossy_net ~spec:(Faults.lossy ~drop:0.25 ~seed:11 ()) g in
  let leaders = Reliable.elect_leader net in
  Array.iteri (fun v l -> Alcotest.(check int) (Printf.sprintf "leader of %d" v) 0 l) leaders

let test_reliable_rounds_overhead_charged () =
  (* lossy runs must cost more rounds than fault-free ones, and the
     ledger must carry the difference under the protocol label *)
  let rng = Rng.create 12 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:40 ~p:0.1) in
  let base = Network.create g (Rounds.create ()) in
  let _ = Reliable.bfs_tree base ~root:(Vertex.local 0) in
  let base_rounds = List.assoc "bfs-reliable" (Rounds.by_phase (Network.rounds base)) in
  let net, _ = lossy_net ~spec:(Faults.lossy ~drop:0.3 ~seed:13 ()) g in
  let _ = Reliable.bfs_tree net ~root:(Vertex.local 0) in
  let lossy_rounds = List.assoc "bfs-reliable" (Rounds.by_phase (Network.rounds net)) in
  Alcotest.(check bool)
    (Printf.sprintf "lossy %d >= fault-free %d" lossy_rounds base_rounds)
    true (lossy_rounds >= base_rounds)

let test_value_limit_packs_two_per_word () =
  (* the packing contract behind reliable delivery: two payload values
     plus an ack bit per machine word *)
  Alcotest.(check bool) "positive" true (Reliable.value_limit > 0);
  Alcotest.(check bool) "two values + ack fit one word" true
    (Reliable.value_limit <= 1 lsl 30)

(* ---------- permanent link failures ---------- *)

let test_link_failure_fails_delivery () =
  let g = Gen.path 3 in
  let spec = { Faults.none with Faults.link_failures = [ ((1, 2), 1) ]; Faults.seed = 1 } in
  let faults = Faults.create spec in
  let net = Network.create ~faults g (Rounds.create ()) in
  let config = { Reliable.max_retries = 5; Reliable.give_up = false } in
  (match Reliable.bfs_tree ~config net ~root:(Vertex.local 0) with
  | exception Reliable.Delivery_failed { vertex; neighbor; attempts; _ } ->
    Alcotest.(check int) "failing vertex" 1 vertex;
    Alcotest.(check int) "unreachable neighbor" 2 neighbor;
    Alcotest.(check int) "attempts = budget" 5 attempts
  | _ -> Alcotest.fail "expected Delivery_failed");
  (* the failed run still charged its rounds *)
  Alcotest.(check bool) "rounds charged" true (Rounds.total (Network.rounds net) > 0);
  (* the trace shows the dead link *)
  Alcotest.(check bool) "link-down event recorded" true
    (List.exists
       (function Faults.Link_down { u = 1; v = 2; _ } -> true | _ -> false)
       (Faults.trace faults))

let test_link_failure_give_up_partitions () =
  let g = Gen.path 3 in
  let spec = { Faults.none with Faults.link_failures = [ ((1, 2), 1) ]; Faults.seed = 1 } in
  let net = Network.create ~faults:(Faults.create spec) g (Rounds.create ()) in
  let config = { Reliable.max_retries = 4; Reliable.give_up = true } in
  let tree = Reliable.bfs_tree ~config net ~root:(Vertex.local 0) in
  Alcotest.(check (array int)) "vertex 2 unreachable" [| 0; 1; max_int |] tree.Primitives.depth;
  Alcotest.(check (array int)) "members" [| 0; 1 |] tree.Primitives.members

(* ---------- crash-stop faults ---------- *)

let test_crash_stop () =
  let g = Gen.path 4 in
  let spec = { Faults.none with Faults.crashes = [ (3, 1) ]; Faults.seed = 1 } in
  let faults = Faults.create spec in
  let net = Network.create ~faults g (Rounds.create ()) in
  let config = { Reliable.max_retries = 4; Reliable.give_up = true } in
  let tree = Reliable.bfs_tree ~config net ~root:(Vertex.local 0) in
  Alcotest.(check (array int)) "crashed vertex outside tree"
    [| 0; 1; 2; max_int |] tree.Primitives.depth;
  Alcotest.(check bool) "crash event recorded" true
    (List.exists
       (function Faults.Crash { vertex = 3; _ } -> true | _ -> false)
       (Faults.trace faults))

let show_fault = function
  | Faults.Drop { round; src; dst } -> Printf.sprintf "drop r%d %d->%d" round src dst
  | Faults.Duplicate { round; src; dst } -> Printf.sprintf "dup r%d %d->%d" round src dst
  | Faults.Link_down { round; u; v } -> Printf.sprintf "link-down r%d %d-%d" round u v
  | Faults.Crash { round; vertex } -> Printf.sprintf "crash r%d %d" round vertex

let test_crash_event_order () =
  (* pins where a crash lands in the fault trace of a reliable flood:
     the kernel records vertex 4's round-2 crash when vertex 3 first
     sends to it, in round 8 (DESIGN.md §11.4) *)
  let g = Gen.path 5 in
  let spec = { (Faults.lossy ~drop:0.3 ~seed:11 ()) with Faults.crashes = [ (4, 2) ] } in
  let faults = Faults.create spec in
  let net = Network.create ~faults g (Rounds.create ()) in
  let config = { Reliable.max_retries = 6; Reliable.give_up = true } in
  let tree = Reliable.bfs_tree ~config net ~root:(Vertex.local 0) in
  Alcotest.(check (array int)) "depths" [| 0; 1; 2; 3; max_int |] tree.Primitives.depth;
  Alcotest.(check (list string)) "fault trace"
    [ "drop r1 0->1"; "drop r2 0->1"; "drop r3 0->1"; "drop r5 0->1";
      "drop r5 1->2"; "drop r5 1->0"; "drop r6 0->1"; "drop r7 2->1";
      "crash r2 4"; "drop r8 3->4"; "drop r9 2->3"; "drop r9 3->4";
      "drop r9 3->2"; "drop r10 3->4"; "drop r11 3->4"; "drop r11 3->2";
      "drop r12 3->4"; "drop r13 3->4" ]
    (List.map show_fault (Faults.trace faults));
  Alcotest.(check int) "rounds" 14 (Rounds.total (Network.rounds net))

let test_quiet_flood_takes_one_round () =
  (* an isolated root has nobody to announce to: the flood still runs
     its first round, so one round is charged *)
  let g = Graph.of_edges ~n:3 [ (1, 2) ] in
  let net = Network.create g (Rounds.create ()) in
  let tree = Reliable.bfs_tree net ~root:(Vertex.local 0) in
  Alcotest.(check (array int)) "only the root reached" [| 0; max_int; max_int |]
    tree.Primitives.depth;
  Alcotest.(check int) "one round charged" 1 (Rounds.total (Network.rounds net));
  Alcotest.(check int) "no messages" 0 (Network.messages_sent net)

(* ---------- congestion discipline still enforced under faults ---------- *)

let test_validation_precedes_faults () =
  (* even an adversary that drops everything does not excuse a
     congestion violation: validation happens before fault application *)
  let g = Gen.path 3 in
  let spec = Faults.lossy ~drop:1.0 ~seed:2 () in
  let net = Network.create ~faults:(Faults.create spec) g (Rounds.create ()) in
  (match
     Network.run_for net ~label:Bfs
       ~init:(fun _ -> ())
       ~step:(fun ~round:_ ~vertex st _ib ob ->
         if Vertex.local_int vertex = 0 then begin
           Arena.Outbox.send1 ob ~dst:(Vertex.local 1) 1;
           Arena.Outbox.send1 ob ~dst:(Vertex.local 1) 2
         end;
         st)
       1
   with
  | exception Network.Congestion_violation _ -> ()
  | _ -> Alcotest.fail "expected Congestion_violation")

let test_drop_everything_counts () =
  let g = Gen.cycle 5 in
  let faults = Faults.create (Faults.lossy ~drop:1.0 ~seed:3 ()) in
  let net = Network.create ~faults g (Rounds.create ()) in
  let step ~round ~vertex st _ib ob =
    let vertex = Vertex.local_int vertex in
    if round = 1 then
      Graph.iter_neighbors g vertex (fun u ->
          Arena.Outbox.send1 ob ~dst:(Vertex.local u) vertex);
    st
  in
  let _ = Network.run_for net ~label:Bfs ~init:(fun _ -> 0) ~step 2 in
  Alcotest.(check int) "all 10 sends dropped" 10 (Faults.drops faults);
  Alcotest.(check int) "nothing delivered" 0 (Network.messages_sent net)

let test_duplicates_counted () =
  let g = Gen.path 2 in
  let faults = Faults.create (Faults.lossy ~drop:0.0 ~duplicate:1.0 ~seed:4 ()) in
  let net = Network.create ~faults g (Rounds.create ()) in
  let step ~round ~vertex st _ib ob =
    if round = 1 && Vertex.local_int vertex = 0 then
      Arena.Outbox.send1 ob ~dst:(Vertex.local 1) 7;
    st
  in
  let _ = Network.run_for net ~label:Bfs ~init:(fun _ -> 0) ~step 2 in
  Alcotest.(check int) "one duplicate" 1 (Faults.duplicates faults);
  Alcotest.(check int) "delivered twice" 2 (Network.messages_sent net)

(* ---------- property: reliable BFS = centralized BFS under loss ---------- *)

let prop_reliable_bfs_under_loss =
  QCheck.Test.make ~name:"reliable BFS = centralized BFS under 15% loss" ~count:25
    QCheck.(pair (int_range 2 25) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.connectivize rng (Gen.gnp rng ~n ~p:0.15) in
      let faults = Faults.create (Faults.lossy ~drop:0.15 ~duplicate:0.05 ~seed ()) in
      let net = Network.create ~faults g (Rounds.create ()) in
      let tree = Reliable.bfs_tree net ~root:(Vertex.local (seed mod n)) in
      tree.Primitives.depth = Metrics.bfs_distances g (seed mod n))

let () =
  Alcotest.run "faults"
    [ ( "schedule",
        [ Alcotest.test_case "deterministic from seed" `Quick test_fault_determinism;
          Alcotest.test_case "p=0 is fault-free" `Quick test_zero_probability_is_fault_free;
          Alcotest.test_case "drop everything" `Quick test_drop_everything_counts;
          Alcotest.test_case "duplicates counted" `Quick test_duplicates_counted ] );
      ( "reliable",
        [ Alcotest.test_case "bfs under drops" `Quick test_reliable_bfs_under_drops;
          Alcotest.test_case "bfs fault-free" `Quick test_reliable_bfs_fault_free_matches;
          Alcotest.test_case "leader under drops" `Quick test_reliable_leader_under_drops;
          Alcotest.test_case "overhead charged" `Quick test_reliable_rounds_overhead_charged;
          Alcotest.test_case "value_limit packing" `Quick test_value_limit_packs_two_per_word;
          QCheck_alcotest.to_alcotest prop_reliable_bfs_under_loss ] );
      ( "failures",
        [ Alcotest.test_case "link failure raises" `Quick test_link_failure_fails_delivery;
          Alcotest.test_case "link failure give-up" `Quick test_link_failure_give_up_partitions;
          Alcotest.test_case "crash stop" `Quick test_crash_stop;
          Alcotest.test_case "crash event order" `Quick test_crash_event_order;
          Alcotest.test_case "quiet flood takes one round" `Quick test_quiet_flood_takes_one_round;
          Alcotest.test_case "validation precedes faults" `Quick test_validation_precedes_faults ] ) ]
