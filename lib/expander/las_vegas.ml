module Rng = Dex_util.Rng
module Rounds = Dex_congest.Rounds

type failure = {
  attempts : int;
  last_result : Decomposition.result;
  last_report : Verify.report;
  total_rounds : int;
}

type outcome = {
  result : Decomposition.result;
  report : Verify.report;
  attempts : int;
  total_rounds : int;
}

let report_ok (r : Verify.report) =
  r.Verify.is_partition && r.Verify.epsilon_ok && r.Verify.phi_ok

let decompose ?preset ?ledger ?(attempts = 5) ~epsilon ~k g rng =
  Dex_util.Invariant.require (attempts >= 1) ~where:"Las_vegas.decompose"
    "attempts must be >= 1";
  let ledger = match ledger with Some l -> l | None -> Rounds.create () in
  let outcome, used, total_rounds =
    Rounds.with_span ledger "las-vegas" @@ fun () ->
    Rounds.retry ledger ~label:"decompose" ~attempts (fun i ->
        (* fresh randomness per attempt: split both the algorithm's
           stream and the verifier's, so a failed attempt never replays *)
        let attempt_rng = Rng.split rng i in
        let verify_rng = Rng.split rng (attempts + i) in
        let result =
          Rounds.with_span ledger (Printf.sprintf "attempt-%d" i) @@ fun () ->
          Decomposition.run ?preset ~ledger ~epsilon ~k g attempt_rng
        in
        let report = Verify.check g result verify_rng in
        ((result, report), report_ok report))
  in
  match outcome with
  | Ok (result, report) -> Ok { result; report; attempts = used; total_rounds }
  | Error (last_result, last_report) ->
    Error { attempts = used; last_result; last_report; total_rounds }
