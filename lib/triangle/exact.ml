module Graph = Dex_graph.Graph

(* 20 bits per vertex, highest first: integer order on packed
   triangles is lexicographic order on (a, b, c) *)
let max_vertices = 1 lsl 20
let pack a b c = (a lsl 40) lor (b lsl 20) lor c
let unpack t = (t lsr 40, (t lsr 20) land 0xFFFFF, t land 0xFFFFF)

(* the neighbors of [u] ranked above it by (degree, id), sorted by id
   (as [Graph.neighbors] is) and without the repeats of parallel edges *)
let forward g u =
  let nb = Graph.neighbors g u and du = Graph.plain_degree g u in
  let above i v =
    let dv = Graph.plain_degree g v in
    (i = 0 || nb.(i - 1) <> v) && (du < dv || (du = dv && u < v))
  in
  let out = Array.make (Array.length nb) 0 and k = ref 0 in
  Array.iteri
    (fun i v ->
      if above i v then begin
        out.(!k) <- v;
        incr k
      end)
    nb;
  Array.sub out 0 !k

let iter g f =
  let n = Graph.num_vertices g in
  let out = Array.init n (forward g) in
  let mark = Array.make n false in
  for u = 0 to n - 1 do
    let ou = out.(u) in
    Array.iter (fun v -> mark.(v) <- true) ou;
    Array.iter
      (fun v ->
        Array.iter
          (fun w ->
            if mark.(w) then begin
              let a = Int.min u (Int.min v w) and c = Int.max u (Int.max v w) in
              f a (u + v + w - a - c) c
            end)
          out.(v))
      ou;
    Array.iter (fun v -> mark.(v) <- false) ou
  done

let count g =
  let c = ref 0 in
  iter g (fun _ _ _ -> incr c);
  !c

let enumerate g =
  Dex_util.Invariant.require
    (Graph.num_vertices g <= max_vertices)
    ~where:"Exact.enumerate" "n <= 2^20 (packed triangles)";
  let all = Array.make (count g) 0 and k = ref 0 in
  iter g (fun a b c ->
      all.(!k) <- pack a b c;
      incr k);
  Array.stable_sort Int.compare all;
  all
