module Graph = Dex_graph.Graph

let trivial_rounds g =
  let n = Graph.num_vertices g in
  let worst = ref 0 in
  for v = 0 to n - 1 do
    let deg = Graph.plain_degree g v in
    if deg > 0 then begin
      let incoming = ref 0 in
      Graph.iter_neighbors g v (fun u -> incoming := !incoming + Graph.plain_degree g u);
      worst := max !worst ((!incoming + deg - 1) / deg)
    end
  done;
  !worst

let izumi_le_gall_rounds ~n =
  let nf = float_of_int n in
  max 1 (int_of_float (Float.ceil ((nf ** 0.75) *. (log nf /. log 2.0))))

let lower_bound_rounds ~n =
  let nf = float_of_int n in
  max 1 (int_of_float (Float.ceil ((nf ** (1.0 /. 3.0)) /. (log nf /. log 2.0))))
