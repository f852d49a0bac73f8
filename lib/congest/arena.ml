(* CSR slot-addressed message arena: the zero-allocation data plane of
   the CONGEST kernel (DESIGN.md §11).

   Every directed edge (v, adj(v).(i)) owns one preallocated message
   slot at the dense CSR index off(v) + i, on two flat planes:

   - the staging plane (src-side slots): a vertex's sends land in its
     own slots during the parallelizable step phase, so concurrent
     writers touch disjoint indices by construction;
   - the inbox plane (dst-side slots): the sequential delivery phase
     copies each staged message through the [mirror] table into the
     receiver's slot for the next round.

   Occupancy is stamp-based rather than bitmap-cleared: each slot
   carries the tick at which it was last filled, the tick is a
   per-arena monotonic counter that never resets, and a slot is live
   exactly when its stamp matches the current tick — so rounds (and
   whole protocol runs reusing one network) never pay an O(m) clear.
   Together the two planes are the double buffer: steady-state
   execution allocates nothing. *)

module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex

exception Congestion_violation of string

type t = {
  n : int;
  word_size : int;
  off : int array; (* n+1 CSR offsets *)
  nbr : int array; (* slot -> other endpoint of its directed edge *)
  mirror : int array; (* src-side slot -> matching dst-side slot *)
  to_orig : int -> int; (* violation messages in caller coordinates *)
  (* inbox plane (dst-side slots) *)
  data : int array; (* 2m * word_size message words *)
  len : int array;
  cnt : Bytes.t; (* deliveries into the slot this round: 0/1/2 *)
  stamp : int array; (* tick at which the slot was filled *)
  (* staging plane (src-side slots) *)
  out_data : int array;
  out_len : int array;
  enq : int array; (* tick at which the slot was staged; doubles as
                      the duplicate-send detector *)
  (* active set *)
  wake : int array; (* per-vertex self-wake stamp *)
  listed : int array; (* per-vertex already-on-next-worklist stamp *)
  mutable work : int array; (* this round's active vertices, sorted *)
  mutable work_n : int;
  mutable next : int array; (* next round's worklist, being built *)
  mutable next_n : int;
  mutable tick : int; (* monotonic round counter; never reset *)
  mutable round : int; (* the run's current round, from 1 *)
  mutable timers : int Dex_util.Heap.t; (* pending timed wakes: (round, vertex) *)
}

let create ?(word_size = 1) ?(to_orig = fun v -> v) g =
  Dex_util.Invariant.require (word_size >= 1) ~where:"Arena.create"
    "word_size must be >= 1";
  let n = Graph.num_vertices g in
  let off = Graph.csr_offsets g in
  let m2 = off.(n) in
  let nbr = Array.make m2 0 in
  for v = 0 to n - 1 do
    let a = Graph.neighbors g v in
    Array.blit a 0 nbr off.(v) (Array.length a)
  done;
  let mirror = Array.make m2 0 in
  for v = 0 to n - 1 do
    for s = off.(v) to off.(v + 1) - 1 do
      mirror.(s) <- off.(nbr.(s)) + Graph.neighbor_rank g nbr.(s) v
    done
  done;
  { n;
    word_size;
    off;
    nbr;
    mirror;
    to_orig;
    data = Array.make (m2 * word_size) 0;
    len = Array.make m2 0;
    cnt = Bytes.make m2 '\000';
    stamp = Array.make m2 0;
    out_data = Array.make (m2 * word_size) 0;
    out_len = Array.make m2 0;
    enq = Array.make m2 0;
    wake = Array.make n 0;
    listed = Array.make n 0;
    work = Array.make n 0;
    work_n = 0;
    next = Array.make n 0;
    next_n = 0;
    tick = 1;
    round = 0;
    timers = Dex_util.Heap.create () }

let word_size a = a.word_size
let slot_count a = Array.length a.nbr

(* leftmost slot of the directed edge (v, u), or -1 *)
let rank_slot a v u =
  let lo = ref a.off.(v) and hi = ref a.off.(v + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.nbr.(mid) < u then lo := mid + 1 else hi := mid
  done;
  if !lo < a.off.(v + 1) && a.nbr.(!lo) = u then !lo else -1

let next_timer a =
  match Dex_util.Heap.peek a.timers with Some (r, _) -> int_of_float r | None -> max_int

(* ---------------- cursors ---------------- *)

type inbox = { ia : t; mutable iv : int }
type outbox = { oa : t; mutable ov : int }

let make_inbox a = { ia = a; iv = 0 }
let make_outbox a = { oa = a; ov = 0 }
let set_inbox ib v = ib.iv <- v
let set_outbox ob v = ob.ov <- v

module Inbox = struct
  let is_empty ib =
    let a = ib.ia in
    let t = a.tick in
    let empty = ref true in
    let s = ref a.off.(ib.iv) and hi = a.off.(ib.iv + 1) in
    while !empty && !s < hi do
      if a.stamp.(!s) = t then empty := false;
      incr s
    done;
    !empty

  let count ib =
    let a = ib.ia in
    let t = a.tick in
    let c = ref 0 in
    for s = a.off.(ib.iv) to a.off.(ib.iv + 1) - 1 do
      if a.stamp.(s) = t then c := !c + Char.code (Bytes.unsafe_get a.cnt s)
    done;
    !c

  let iter1 ib f =
    let a = ib.ia in
    let t = a.tick in
    for s = a.off.(ib.iv) to a.off.(ib.iv + 1) - 1 do
      if a.stamp.(s) = t then begin
        let src = a.nbr.(s) in
        let w = a.data.(s * a.word_size) in
        f src w;
        if Char.code (Bytes.unsafe_get a.cnt s) > 1 then f src w
      end
    done

  let iter ib f =
    let a = ib.ia in
    let t = a.tick in
    for s = a.off.(ib.iv) to a.off.(ib.iv + 1) - 1 do
      if a.stamp.(s) = t then begin
        let src = a.nbr.(s) in
        let msg = Array.sub a.data (s * a.word_size) a.len.(s) in
        f src msg;
        if Char.code (Bytes.unsafe_get a.cnt s) > 1 then f src msg
      end
    done
end

module Outbox = struct
  let not_a_neighbor a v u =
    let u_disp = if u >= 0 && u < a.n then a.to_orig u else u in
    raise
      (Congestion_violation
         (Printf.sprintf "vertex %d: %d is not a neighbor" (a.to_orig v) u_disp))

  (* validate and claim the slot for a [words]-word message to [u];
     returns where its payload goes in [out_data] *)
  let stage ob u words =
    let a = ob.oa in
    let v = ob.ov in
    if words > a.word_size then
      raise
        (Congestion_violation
           (Printf.sprintf "vertex %d: message of %d words exceeds budget %d"
              (a.to_orig v) words a.word_size));
    let s = if u = v then -1 else rank_slot a v u in
    if s < 0 then not_a_neighbor a v u;
    if a.enq.(s) = a.tick then
      raise
        (Congestion_violation
           (Printf.sprintf "vertex %d: two messages on edge to %d in one round"
              (a.to_orig v) (a.to_orig u)));
    a.enq.(s) <- a.tick;
    a.out_len.(s) <- words;
    s * a.word_size

  let send1 ob ~dst w = ob.oa.out_data.(stage ob (Vertex.local_int dst) 1) <- w

  let send ob ~dst msg =
    let len = Array.length msg in
    Array.blit msg 0 ob.oa.out_data (stage ob (Vertex.local_int dst) len) len

  let wake ob =
    let a = ob.oa in
    a.wake.(ob.ov) <- a.tick

  let wake_at ob ~round =
    let a = ob.oa in
    if round <= a.round then
      Dex_util.Invariant.failf ~where:"Arena.Outbox.wake_at"
        "round %d is not after the current round %d" round a.round;
    if round = a.round + 1 then wake ob
    else Dex_util.Heap.push a.timers (float_of_int round) ob.ov
end

(* ---------------- active set ---------------- *)

(* in-place heapsort of arr[0..k): no allocation, deterministic *)
let sort_prefix arr k =
  let swap i j =
    let x = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- x
  in
  let rec sift_down root last =
    let child = (2 * root) + 1 in
    if child <= last then begin
      let child =
        if child + 1 <= last && arr.(child) < arr.(child + 1) then child + 1
        else child
      in
      if arr.(root) < arr.(child) then begin
        swap root child;
        sift_down child last
      end
    end
  in
  for i = (k - 2) / 2 downto 0 do
    sift_down i (k - 1)
  done;
  for last = k - 1 downto 1 do
    swap 0 last;
    sift_down 0 (last - 1)
  done

let begin_run a =
  (* a fresh tick retires whatever a previous (possibly aborted) run
     left stamped: staleness is impossible because ticks are monotone *)
  a.tick <- a.tick + 1;
  a.round <- 1;
  a.timers <- Dex_util.Heap.create ();
  for v = 0 to a.n - 1 do
    a.work.(v) <- v
  done;
  a.work_n <- a.n;
  a.next_n <- 0

let round a = a.round
let active_count a = a.work_n
let active_get a i = a.work.(i)
let woke a v = a.wake.(v) = a.tick

let push_active a v =
  if a.listed.(v) <> a.tick then begin
    a.listed.(v) <- a.tick;
    a.next.(a.next_n) <- v;
    a.next_n <- a.next_n + 1
  end

let deliver_staged a src verdict =
  let t = a.tick in
  (* descending destination order: the fault traces recorded in the
     kernel goldens (test/golden/kernel_legacy.json) list each
     source's events in this order *)
  for s = a.off.(src + 1) - 1 downto a.off.(src) do
    if a.enq.(s) = t then begin
      let dst = a.nbr.(s) in
      let len = a.out_len.(s) in
      match verdict dst len with
      | `Drop -> ()
      | (`Deliver | `Duplicate) as v ->
        let d = a.mirror.(s) in
        Array.blit a.out_data (s * a.word_size) a.data (d * a.word_size) len;
        a.len.(d) <- len;
        a.stamp.(d) <- t + 1;
        Bytes.unsafe_set a.cnt d
          (match v with `Duplicate -> '\002' | `Deliver -> '\001');
        push_active a dst
    end
  done

(* timers due at [round] join the worklist being built *)
let fire_timers a ~round =
  while next_timer a = round do
    Option.iter (fun (_, v) -> push_active a v) (Dex_util.Heap.pop a.timers)
  done

(* make the worklist being built current, sorted ascending *)
let swap_worklists a =
  let w = a.work in
  a.work <- a.next;
  a.next <- w;
  a.work_n <- a.next_n;
  a.next_n <- 0;
  (* deliveries appended the next worklist in (src, slot) order, not
     vertex order; canonical ascending order keeps every run's
     activation sequence identical *)
  sort_prefix a.work a.work_n

(* move on to [round]: its timers join the worklist being built, which
   becomes current; the fresh tick retires this round's slots and
   stamps, [listed] included, so the new round can push anyone *)
let advance a ~round =
  fire_timers a ~round;
  swap_worklists a;
  a.tick <- a.tick + 1;
  a.round <- round

let finish_round a = advance a ~round:(a.round + 1)

let skip_idle a =
  Dex_util.Invariant.require (a.work_n = 0) ~where:"Arena.skip_idle"
    "the worklist must be empty";
  let r = next_timer a in
  if r < max_int then advance a ~round:r
