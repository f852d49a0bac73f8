type t = {
  g : Graph.t;
  stamp : int array; (* epoch of the last run that reached v *)
  dist : int array;
  origin : int array;
  order : int array; (* FIFO queue, kept as the visit order *)
  mutable epoch : int;
  mutable reached : int;
}

let create g =
  let n = Graph.num_vertices g in
  { g;
    stamp = Array.make n (-1);
    dist = Array.make n 0;
    origin = Array.make n 0;
    order = Array.make n 0;
    epoch = 0;
    reached = 0 }

let run ?within ?(limit = max_int) t sources =
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch and stamp = t.stamp and dist = t.dist and origin = t.origin
  and order = t.order in
  let tail = ref 0 in
  Array.iteri
    (fun i s ->
      if stamp.(s) <> epoch then begin
        stamp.(s) <- epoch;
        dist.(s) <- 0;
        origin.(s) <- i;
        order.(!tail) <- s;
        incr tail
      end)
    sources;
  let head = ref 0 in
  while !head < !tail do
    let v = order.(!head) in
    incr head;
    let dv = dist.(v) in
    if dv < limit then begin
      let adj = Graph.neighbors t.g v in
      for i = 0 to Array.length adj - 1 do
        let u = adj.(i) in
        if stamp.(u) <> epoch && (match within with None -> true | Some m -> m.(u)) then begin
          stamp.(u) <- epoch;
          dist.(u) <- dv + 1;
          origin.(u) <- origin.(v);
          order.(!tail) <- u;
          incr tail
        end
      done
    end
  done;
  t.reached <- !tail

let reached t = t.reached

let nth t i =
  if i < 0 || i >= t.reached then invalid_arg "Bfs.nth: index out of range";
  t.order.(i)

let mem t v = t.stamp.(v) = t.epoch
let dist t v = if mem t v then t.dist.(v) else max_int
let origin t v = if mem t v then t.origin.(v) else -1
