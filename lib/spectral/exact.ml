module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics

let enumerate g f =
  let n = Graph.num_vertices g in
  Dex_util.Invariant.require (n <= 24) ~where:"Exact.enumerate"
    "graph too large for subset enumeration";
  if n >= 2 then begin
    (* fix vertex n-1 outside S: each cut {S, S̄} visited once *)
    let limit = 1 lsl (n - 1) in
    let members = Array.make n 0 in
    for mask = 1 to limit - 1 do
      let k = ref 0 in
      for v = 0 to n - 2 do
        if mask land (1 lsl v) <> 0 then begin
          members.(!k) <- v;
          incr k
        end
      done;
      f (Array.sub members 0 !k)
    done
  end

let min_conductance g =
  let best = ref None in
  enumerate g (fun s ->
      let c = Metrics.conductance g s in
      if Float.is_finite c then
        match !best with
        | Some (bc, _) when bc <= c -> ()
        | _ -> best := Some (c, Array.copy s));
  match !best with
  | Some (c, s) -> (c, s)
  | None -> Dex_util.Invariant.fail ~where:"Exact.min_conductance" "no non-degenerate cut"

let most_balanced_sparse_cut g ~phi =
  let best = ref None in
  enumerate g (fun s ->
      let c = Metrics.conductance g s in
      if Float.is_finite c && c <= phi then begin
        let b = Metrics.balance g s in
        match !best with
        | Some (bb, _) when bb >= b -> ()
        | _ -> best := Some (b, Array.copy s)
      end);
  !best
