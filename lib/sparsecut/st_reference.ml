type t = {
  cut : int array;
  conductance : float;
  balance : float;
  rounds : int;
  nibbles : int;
}

let run ?(max_nibbles = 64) params g rng =
  let rounds = ref 0 in
  let r =
    Partition.peel params ~max_iterations:max_nibbles g (fun gw ->
        let outcome = Parallel_nibble.random_nibble params gw rng in
        (* serialized: every nibble's rounds accumulate *)
        rounds := !rounds + outcome.Nibble.rounds;
        match outcome.Nibble.result with
        | None -> [||]
        | Some found -> found.Nibble.vertices)
  in
  { cut = r.Partition.cut;
    conductance = r.Partition.conductance;
    balance = r.Partition.balance;
    rounds = !rounds;
    nibbles = r.Partition.iterations }
