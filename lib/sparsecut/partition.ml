module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Rounds = Dex_congest.Rounds

type t = {
  cut : int array;
  conductance : float;
  balance : float;
  rounds : int;
  iterations : int;
  aborted_copies : int;
}

let empty =
  { cut = [||];
    conductance = Float.infinity;
    balance = 0.0;
    rounds = 0;
    iterations = 0;
    aborted_copies = 0 }

let peel params ~max_iterations g next =
  let n = Graph.num_vertices g in
  let total_volume = Graph.total_volume g in
  if total_volume = 0 then empty
  else begin
    let threshold = 47 * total_volume / 48 in
    let in_w = Array.make n true in
    let w_volume = ref total_volume in
    let removed = ref [] in
    let iterations = ref 0 in
    let idle = ref 0 in
    let continue = ref true in
    while !continue && !iterations < max_iterations do
      incr iterations;
      let w = Metrics.vertices_of_mask in_w in
      if Array.length w = 0 then continue := false
      else begin
        let gw, mapping = Graph.saturated_subgraph g w in
        let cut = next gw in
        (* the cut may be the large side (a C.3-star prefix holds up
           to 11/12 of the volume, a ParallelNibble union up to 23/24,
           so the complement is never empty); peel the smaller side so
           the running union stays a clean sparse cut *)
        let cut =
          if 2 * Graph.volume gw cut > Graph.total_volume gw then Metrics.complement gw cut
          else cut
        in
        if Array.length cut = 0 then begin
          incr idle;
          if !idle >= params.Params.idle_limit then continue := false
        end
        else begin
          idle := 0;
          Array.iter
            (fun sub_v ->
              let v = mapping.(sub_v) in
              if in_w.(v) then begin
                in_w.(v) <- false;
                w_volume := !w_volume - Graph.degree g v;
                removed := v :: !removed
              end)
            cut;
          if !w_volume <= threshold then continue := false
        end
      end
    done;
    let cut = Array.of_list !removed in
    Array.sort Int.compare cut;
    if Array.length cut = 0 then { empty with iterations = !iterations }
    else
      { empty with
        cut;
        conductance = Metrics.conductance g cut;
        balance = Metrics.balance g cut;
        iterations = !iterations }
  end

let run ?p ?ledger params g rng =
  let ledger = match ledger with Some l -> l | None -> Rounds.create () in
  let total_volume = Graph.total_volume g in
  let p =
    match p with
    | Some p -> p
    | None -> 1.0 /. Float.max 4.0 (float_of_int (Graph.num_vertices g) ** 2.0)
  in
  if total_volume = 0 then empty
  else
    Rounds.with_span ledger "partition" @@ fun () ->
    let start = Rounds.makespan ledger in
    let aborted = ref 0 in
    let r =
      peel params ~max_iterations:(Params.partition_iterations params ~volume:total_volume ~p) g
        (fun gw ->
          let pn = Parallel_nibble.run ~ledger params gw rng in
          if pn.Parallel_nibble.aborted then incr aborted;
          pn.Parallel_nibble.cut)
    in
    { r with rounds = Rounds.makespan ledger - start; aborted_copies = !aborted }

let certified_no_sparse_cut t = Array.length t.cut = 0

type attempt_outcome = { value : t; attempts : int; rounds_total : int }

let acceptable ~bound t =
  certified_no_sparse_cut t || t.conductance <= bound

let run_verified ?(attempts = 3) ?p ?ledger ~bound params g rng =
  Dex_util.Invariant.require (attempts >= 1) ~where:"Partition.run_verified" "attempts >= 1";
  let ledger = match ledger with Some l -> l | None -> Rounds.create () in
  let best = ref None in
  let outcome, attempts, rounds_total =
    Rounds.retry ledger ~label:"sparse-cut" ~attempts (fun i ->
        let r =
          Rounds.with_span ledger (Printf.sprintf "attempt-%d" i) @@ fun () ->
          run ?p ~ledger params g (Dex_util.Rng.split rng i)
        in
        (match !best with
        | Some b when b.conductance <= r.conductance -> ()
        | _ -> best := Some r);
        (r, acceptable ~bound r))
  in
  match outcome with
  | Ok value -> Ok { value; attempts; rounds_total }
  | Error last ->
    let value = Option.value !best ~default:last in
    Error { value; attempts; rounds_total }
