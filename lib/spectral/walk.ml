module Graph = Dex_graph.Graph
module Invariant = Dex_util.Invariant

type sparse = { ids : int array; mass : float array }

let indicator v = { ids = [| v |]; mass = [| 1.0 |] }

let of_sorted ~ids ~mass =
  let ascending i = i = 0 || ids.(i - 1) < ids.(i) in
  Invariant.require
    (Array.length ids = Array.length mass
    && List.for_all ascending (List.init (Array.length ids) Fun.id))
    ~where:"Walk.of_sorted" "ids strictly ascending, one mass per id";
  { ids; mass }

let degree_distribution g =
  let total = float_of_int (Graph.total_volume g) in
  Array.init (Graph.num_vertices g) (fun v -> float_of_int (Graph.degree g v) /. total)

let step_dense g p =
  let n = Graph.num_vertices g in
  let q = Array.make n 0.0 in
  for v = 0 to n - 1 do
    let mass = p.(v) in
    if mass <> 0.0 then begin
      let deg = float_of_int (Graph.degree g v) in
      if deg = 0.0 then q.(v) <- q.(v) +. mass
      else begin
        let share = mass /. (2.0 *. deg) in
        (* lazy half plus the self-loop share that walks back home,
           summed before they land as in [step], so both agree bit for bit *)
        q.(v) <- q.(v) +. ((mass /. 2.0) +. (share *. float_of_int (Graph.self_loops g v)));
        Graph.iter_neighbors g v (fun u -> q.(u) <- q.(u) +. share)
      end
    end
  done;
  q

let step g =
  let n = Graph.num_vertices g in
  let acc = Array.make n 0.0 in
  let marked = Array.make n false in
  let touched = Array.make n 0 in
  let kept_mass = Array.make n 0.0 in
  fun ~eps p ->
    let count = ref 0 in
    (* ascending sources: every target sums its shares in source order *)
    for i = 0 to Array.length p.ids - 1 do
      let v = p.ids.(i) and mass = p.mass.(i) in
      let deg = float_of_int (Graph.degree g v) and adj = Graph.neighbors g v in
      let share = mass /. (2.0 *. deg) in
      if not marked.(v) then begin
        marked.(v) <- true;
        touched.(!count) <- v;
        incr count
      end;
      acc.(v) <-
        (acc.(v)
        +. if deg = 0.0 then mass
           else (mass /. 2.0) +. (share *. float_of_int (Graph.self_loops g v)));
      for k = 0 to Array.length adj - 1 do
        let u = adj.(k) in
        if not marked.(u) then begin
          marked.(u) <- true;
          touched.(!count) <- u;
          incr count
        end;
        acc.(u) <- acc.(u) +. share
      done
    done;
    let count = !count in
    (* the support ascending: read off the marks in O(n) unless it is
       below n/64, where sorting its ids is cheaper (measured crossover
       n/50 to n/80 for n = 1024 to 16384); both yield the same ids *)
    let ids =
      if count * 64 >= n then begin
        let j = ref 0 in
        for v = 0 to n - 1 do
          if marked.(v) then begin
            touched.(!j) <- v;
            incr j
          end
        done;
        touched
      end
      else begin
        let ids = Array.sub touched 0 count in
        Array.sort Int.compare ids;
        ids
      end
    in
    let kept = ref 0 in
    for i = 0 to count - 1 do
      let v = ids.(i) in
      let x = acc.(v) in
      acc.(v) <- 0.0;
      marked.(v) <- false;
      (* the paper's [·]_ε: drop p(v) < 2·eps·deg(v); [kept <= i], so
         writing [touched] never overtakes the read of [ids] *)
      if x >= 2.0 *. eps *. float_of_int (Graph.degree g v) then begin
        touched.(!kept) <- v;
        kept_mass.(!kept) <- x;
        incr kept
      end
    done;
    { ids = Array.sub touched 0 !kept; mass = Array.sub kept_mass 0 !kept }

let walk_from g ~src ~steps =
  let n = Graph.num_vertices g in
  let p = Array.make n 0.0 in
  p.(src) <- 1.0;
  let cur = ref p in
  for _ = 1 to steps do
    cur := step_dense g !cur
  done;
  !cur

let truncated_walk g ~src ~eps ~steps =
  let step = step g ~eps in
  let out = Array.make (steps + 1) (indicator src) in
  for t = 1 to steps do
    out.(t) <- step out.(t - 1)
  done;
  out

let rho g p v =
  let deg = Graph.degree g v in
  let lo = ref 0 and hi = ref (Array.length p.ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p.ids.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if deg = 0 || !lo = Array.length p.ids || p.ids.(!lo) <> v then 0.0
  else p.mass.(!lo) /. float_of_int deg

let mass p = Array.fold_left ( +. ) 0.0 p.mass
