module Graph = Dex_graph.Graph

type result = {
  detected : int;
  complete : bool;
  rounds : int;
  groups : int;
  triples : int;
  max_receive_words : int;
  max_send_words : int;
}

let group_of ~n ~groups v =
  if n = 0 then 0 else min (groups - 1) (v * groups / n)

(* index of the unordered triple (a ≤ b ≤ c) in the enumeration order
   used to assign triples to vertices round-robin *)
let triple_list groups =
  let acc = ref [] in
  for a = 0 to groups - 1 do
    for b = a to groups - 1 do
      for c = b to groups - 1 do
        acc := (a, b, c) :: !acc
      done
    done
  done;
  Array.of_list (List.rev !acc)

let run g =
  let n = Graph.num_vertices g in
  if n = 0 then
    { detected = 0;
      complete = true;
      rounds = 0;
      groups = 0;
      triples = 0;
      max_receive_words = 0;
      max_send_words = 0 }
  else begin
    let groups = max 1 (int_of_float (Float.ceil (float_of_int n ** (1.0 /. 3.0)))) in
    let grp = group_of ~n ~groups in
    let triples = triple_list groups in
    let owner i = i mod n in
    (* group pairs a ≤ b and triples a ≤ b ≤ c as array indices *)
    let pair a b = (a * groups) + b in
    let cube a b c = (pair a b * groups) + c in
    let edge_pair u v =
      let a = grp u and b = grp v in
      pair (Int.min a b) (Int.max a b)
    in
    (* per group-pair edge counts from the real graph *)
    let pair_edges = Array.make (groups * groups) 0 in
    Graph.iter_edges g (fun u v ->
        if u <> v then begin
          let p = edge_pair u v in
          pair_edges.(p) <- pair_edges.(p) + 1
        end);
    (* an owner of (A,B,C) is sent pairs AB, BC, AC — deduplicated when
       groups repeat; [pair_interest] counts the owners of each pair,
       and bit k of [known.(cube a b c)] is set once the owner of
       (A,B,C) holds its k-th pair *)
    let pair_interest = Array.make (groups * groups) 0 in
    let known = Array.make (groups * groups * groups) 0 in
    let receive = Array.make n 0 in
    Array.iteri
      (fun i (a, b, c) ->
        let v = owner i and t = cube a b c in
        let needs = [| pair a b; pair b c; pair a c |] in
        List.iter
          (fun p ->
            receive.(v) <- receive.(v) + pair_edges.(p);
            pair_interest.(p) <- pair_interest.(p) + 1;
            Array.iteri (fun k q -> if q = p then known.(t) <- known.(t) lor (1 lsl k)) needs)
          (List.sort_uniq Int.compare (Array.to_list needs)))
      triples;
    (* sending load: the lower endpoint of each edge ships it to every
       interested owner *)
    let send = Array.make n 0 in
    Graph.iter_edges g (fun u v ->
        if u <> v then begin
          let s = Int.min u v in
          send.(s) <- send.(s) + pair_interest.(edge_pair u v)
        end);
    let max_receive = Array.fold_left max 0 receive in
    let max_send = Array.fold_left max 0 send in
    let per_round = max 1 (n - 1) in
    let rounds =
      ((max_receive + per_round - 1) / per_round)
      + ((max_send + per_round - 1) / per_round)
      + 2 (* Lenzen routing setup + result announcement *)
    in
    (* detection: the owner of a triangle's group signature reports it
       only when it holds all three pair edge sets; groups are
       contiguous blocks, so u < v < w gives the signature sorted *)
    let detected = ref 0 in
    Exact.iter g (fun u v w ->
        if known.(cube (grp u) (grp v) (grp w)) = 0b111 then incr detected);
    { detected = !detected;
      complete = !detected = Exact.count g;
      rounds;
      groups;
      triples = Array.length triples;
      max_receive_words = max_receive;
      max_send_words = max_send }
  end
