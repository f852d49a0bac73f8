module Graph = Dex_graph.Graph
module Invariant = Dex_util.Invariant

type config = { max_retries : int; give_up : bool }

let default_config = { max_retries = 64; give_up = false }

exception
  Delivery_failed of {
    label : Rounds.executed;
    vertex : int;
    neighbor : int;
    value : int;
    attempts : int;
  }

(* single-word codec: | has_data:1 | data:30 | has_ack:1 | ack:30 |.
   A word stands for O(log n) bits, so packing two O(log n)-bit values
   plus presence flags stays within the model's word budget. *)
let value_bits = 30
let value_limit = 1 lsl value_bits

let pack = function
  | None -> 0
  | Some v ->
    Invariant.require (v >= 0 && v < value_limit) ~where:"Reliable" "value out of range";
    (v lsl 1) lor 1

let unpack f = if f land 1 = 1 then Some (f lsr 1) else None

let encode ~data ~ack = (pack data lsl (value_bits + 1)) lor pack ack

let decode w = (unpack (w lsr (value_bits + 1)), unpack (w land ((value_limit lsl 1) - 1)))

let infinity_value = value_limit - 1

(* per-neighbor delivery state: [outstanding] is the value still to be
   acknowledged (-1 = none), [ack_due] the just-received value to ack
   next round (-1 = none) *)
type peer = {
  nbr : int;
  mutable outstanding : int;
  mutable attempts : int;
  mutable ack_due : int;
  mutable abandoned : bool;
}

type vstate = { mutable value : int; mutable parent : int; peers : peer array }

let peer_of st sender =
  let rec go i =
    if i >= Array.length st.peers then
      Invariant.fail ~where:"Reliable" "message from non-peer"
    else if st.peers.(i).nbr = sender then st.peers.(i)
    else go (i + 1)
  in
  go 0

(* Reliable monotone flooding: each vertex holds a value improving via
   min; adopting a better candidate (received value + delta) re-arms
   delivery of the new value to every neighbor. A vertex with a value
   still to deliver wakes itself to retransmit next round, unless it
   crashes then, so quiescence = every live vertex has no outstanding
   value. *)
let flood net ~label ~config ~delta ~init_value ~init_parent ~announce ?max_rounds () =
  Invariant.require (config.max_retries >= 1) ~where:"Reliable" "max_retries must be >= 1";
  let g = Network.graph net in
  let failure = ref None in
  let init v =
    let value = init_value v in
    let peers =
      Array.map
        (fun u ->
          { nbr = u;
            outstanding = (if announce v then value else -1);
            attempts = 0;
            ack_due = -1;
            abandoned = false })
        (Graph.neighbors g v)
    in
    { value; parent = init_parent v; peers }
  in
  let crashes_next_round ~round v =
    match Network.faults net with
    | None -> false
    | Some f -> Faults.is_crashed f ~round:(round + 1) ~vertex:v
  in
  let step ~round ~vertex st ib ob =
    let v = Dex_graph.Vertex.local_int vertex in
    (* descending sender order: the first of several equal candidates
       to arrive becomes the parent *)
    let inbox = ref [] in
    Arena.Inbox.iter1 ib (fun sender w -> inbox := (sender, w) :: !inbox);
    List.iter
      (fun (sender, w) ->
        let data, ack = decode w in
        let peer = peer_of st sender in
        (match data with
        | Some x ->
          peer.ack_due <- x;
          let candidate = x + delta in
          if candidate < st.value then begin
            st.value <- candidate;
            st.parent <- sender;
            Array.iter
              (fun p ->
                p.outstanding <- st.value;
                p.attempts <- 0;
                p.abandoned <- false)
              st.peers
          end
        | None -> ());
        match ack with
        | Some y ->
          if peer.outstanding = y then begin
            peer.outstanding <- -1;
            peer.attempts <- 0
          end
        | None -> ())
      !inbox;
    let pending = ref false in
    Array.iter
      (fun p ->
        let data =
          if p.outstanding >= 0 && not p.abandoned then
            if p.attempts >= config.max_retries then begin
              (* retry budget exhausted: stop retransmitting so the
                 protocol can quiesce; the failure (if fatal) is
                 raised after the run, once rounds are charged *)
              if (not config.give_up) && !failure = None then
                failure := Some (v, p.nbr, p.outstanding, p.attempts);
              p.abandoned <- true;
              None
            end
            else begin
              p.attempts <- p.attempts + 1;
              pending := true;
              Some p.outstanding
            end
          else None
        in
        let ack = if p.ack_due >= 0 then Some p.ack_due else None in
        p.ack_due <- -1;
        if data <> None || ack <> None then
          Arena.Outbox.send1 ob ~dst:(Dex_graph.Vertex.local p.nbr) (encode ~data ~ack))
      st.peers;
    if !pending && not (crashes_next_round ~round vertex) then Arena.Outbox.wake ob;
    st
  in
  let states, rounds = Network.run_active net ~label ~init ~step ?max_rounds () in
  (match !failure with
  | Some (vertex, neighbor, value, attempts) ->
    raise (Delivery_failed { label; vertex; neighbor; value; attempts })
  | None -> ());
  (states, rounds)

let bfs_tree ?(config = default_config) ?max_rounds net ~root =
  let root = Dex_graph.Vertex.local_int root in
  let g = Network.graph net in
  let n = Graph.num_vertices g in
  Invariant.require (root >= 0 && root < n) ~where:"Reliable.bfs_tree" "root out of range";
  let states, _rounds =
    flood net ~label:Bfs_reliable ~config ~delta:1
      ~init_value:(fun v -> if v = root then 0 else infinity_value)
      ~init_parent:(fun v -> if v = root then root else -1)
      ~announce:(fun v -> v = root)
      ?max_rounds ()
  in
  let depth =
    Array.map (fun st -> if st.value >= infinity_value then max_int else st.value) states
  in
  let parent = Array.mapi (fun v st -> if depth.(v) = max_int then -1 else st.parent) states in
  let height = Array.fold_left (fun acc d -> if d = max_int then acc else max acc d) 0 depth in
  let members =
    let acc = ref [] in
    for v = n - 1 downto 0 do
      if depth.(v) <> max_int then acc := v :: !acc
    done;
    Array.of_list !acc
  in
  { Primitives.root; parent; depth; height; members }

let elect_leader ?(config = default_config) ?max_rounds net =
  let states, _rounds =
    flood net ~label:Leader_reliable ~config ~delta:0
      ~init_value:(fun v -> v)
      ~init_parent:(fun v -> v)
      ~announce:(fun _ -> true)
      ?max_rounds ()
  in
  Array.map (fun st -> st.value) states
