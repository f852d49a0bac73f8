(* Tests for the dex_lint engine: every rule fires on a violating
   fixture, path scoping exempts the sanctioned locations, and the
   suppression pragma behaves as documented. Fixtures are linted
   in-memory with fake paths, so the path-scoping logic itself is
   under test. *)

module Lint = Dex_lint_core.Lint
module Json = Dex_obs.Json

let lint ?(path = "lib/congest/fixture.ml") ?all_rules src =
  match Lint.lint_source ?all_rules ~path src with
  | Ok findings -> findings
  | Error msg -> Alcotest.failf "unexpected parse error: %s" msg

let rules_of findings = List.map (fun f -> f.Lint.rule) findings

let check_rules msg expected findings =
  Alcotest.(check (list string)) msg expected (rules_of findings)

(* ---------- each rule fires ---------- *)

let test_d001_hashtbl () =
  let fs = lint "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl" in
  check_rules "iter" [ "D001" ] fs;
  check_rules "fold" [ "D001" ]
    (lint "let f tbl = Hashtbl.fold (fun _ _ acc -> acc) tbl 0");
  check_rules "to_seq_keys" [ "D001" ]
    (lint "let f tbl = List.of_seq (Hashtbl.to_seq_keys tbl)");
  check_rules "qualified Stdlib" [ "D001" ]
    (lint "let f tbl = Stdlib.Hashtbl.iter (fun _ _ -> ()) tbl")

let test_d001_allows_ordered_ops () =
  check_rules "mem/replace/find fine" []
    (lint
       "let f tbl = Hashtbl.replace tbl 1 2; Hashtbl.mem tbl 1 && \
        Hashtbl.find tbl 1 = 2")

let test_d002_random () =
  check_rules "Random.int" [ "D002" ] (lint "let f () = Random.int 10");
  check_rules "Random.State" [ "D002" ]
    (lint "let f st = Random.State.int st 10");
  check_rules "self_init" [ "D002" ] (lint "let f () = Random.self_init ()")

let test_d003_aborts () =
  check_rules "failwith" [ "D003" ] (lint "let f () = failwith \"x\"");
  check_rules "invalid_arg" [ "D003" ] (lint "let f () = invalid_arg \"x\"");
  check_rules "assert false" [ "D003" ] (lint "let f () = assert false");
  check_rules "assert cond is fine" [] (lint "let f x = assert (x > 0)")

let test_d004_wall_clock () =
  check_rules "Sys.time" [ "D004" ] (lint "let f () = Sys.time ()");
  check_rules "gettimeofday" [ "D004" ] (lint "let f () = Unix.gettimeofday ()");
  check_rules "Unix.time" [ "D004" ] (lint "let f () = Unix.time ()")

let test_d005_poly_compare () =
  check_rules "g = g'" [ "D005" ] (lint "let f g g2 = g = g2");
  check_rules "field" [ "D005" ] (lint "let f a b = a.graph = b.other");
  check_rules "compare network" [ "D005" ] (lint "let f net x = compare net x");
  check_rules "suffix _graph" [ "D005" ]
    (lint "let f sub_graph x = min sub_graph x");
  check_rules "type constraint" [ "D005" ]
    (lint "let f a b = (a : Dex_graph.Graph.t) = b");
  check_rules "ints fine" [] (lint "let f a b = a = b && compare a b = 0")

let test_d006_poly_sort () =
  (* the exact defect class Graph.build shipped with: adjacency sorted
     with a bare polymorphic compare *)
  check_rules "Array.sort compare" [ "D006" ]
    (lint ~path:"lib/graph/graph.ml" "let f a = Array.sort compare a");
  check_rules "List.sort_uniq compare" [ "D006" ]
    (lint ~path:"lib/graph/graph.ml" "let f l = List.sort_uniq compare l");
  check_rules "qualified Stdlib.compare" [ "D006" ]
    (lint ~path:"lib/congest/x.ml" "let f l = List.stable_sort Stdlib.compare l");
  check_rules "monomorphic Int.compare fine" []
    (lint ~path:"lib/graph/graph.ml" "let f a = Array.sort Int.compare a");
  check_rules "explicit comparator fine" []
    (lint ~path:"lib/graph/graph.ml"
       "let f l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l")

let test_d006_scoped_to_kernel () =
  let src = "let f a = Array.sort compare a" in
  check_rules "lib/graph fires" [ "D006" ] (lint ~path:"lib/graph/x.ml" src);
  check_rules "lib/congest fires" [ "D006" ] (lint ~path:"lib/congest/x.ml" src);
  check_rules "lib/spectral fires" [ "D006" ] (lint ~path:"lib/spectral/x.ml" src);
  check_rules "lib/sparsecut fires" [ "D006" ] (lint ~path:"lib/sparsecut/x.ml" src);
  check_rules "lib/triangle fires" [ "D006" ] (lint ~path:"lib/triangle/x.ml" src);
  check_rules "lib/expander fires" [ "D006" ] (lint ~path:"lib/expander/x.ml" src);
  check_rules "lib/ldd exempt" [] (lint ~path:"lib/ldd/x.ml" src);
  check_rules "bench exempt" [] (lint ~path:"bench/main.ml" src)

(* ---------- path scoping ---------- *)

let test_scope_d003_only_protocol_layers () =
  let src = "let f () = failwith \"x\"" in
  check_rules "congest" [ "D003" ] (lint ~path:"lib/congest/x.ml" src);
  check_rules "ldd" [ "D003" ] (lint ~path:"lib/ldd/x.ml" src);
  check_rules "routing" [ "D003" ] (lint ~path:"lib/routing/x.ml" src);
  check_rules "expander" [ "D003" ] (lint ~path:"lib/expander/x.ml" src);
  check_rules "sparsecut" [ "D003" ] (lint ~path:"lib/sparsecut/x.ml" src);
  check_rules "spectral" [ "D003" ] (lint ~path:"lib/spectral/x.ml" src);
  check_rules "triangle" [ "D003" ] (lint ~path:"lib/triangle/x.ml" src);
  check_rules "util exempt" [] (lint ~path:"lib/util/x.ml" src);
  check_rules "graph exempt" [] (lint ~path:"lib/graph/x.ml" src)

let test_scope_d002_rng_exempt () =
  let src = "let f () = Random.int 3" in
  check_rules "rng.ml exempt" [] (lint ~path:"lib/util/rng.ml" src);
  check_rules "elsewhere fires" [ "D002" ] (lint ~path:"lib/util/other.ml" src)

let test_scope_d004_obs_and_bench_exempt () =
  let src = "let f () = Unix.gettimeofday ()" in
  check_rules "lib/obs exempt" [] (lint ~path:"lib/obs/clock.ml" src);
  check_rules "bench exempt" [] (lint ~path:"bench/main.ml" src);
  check_rules "congest fires" [ "D004" ] (lint ~path:"lib/congest/x.ml" src)

let test_scope_absolute_paths () =
  let src = "let f () = failwith \"x\"" in
  check_rules "absolute path anchors at lib/" [ "D003" ]
    (lint ~path:"/root/repo/lib/congest/x.ml" src)

let test_all_rules_overrides_scope () =
  let src = "let f () = failwith \"x\"" in
  check_rules "scoped off" [] (lint ~path:"whatever.ml" src);
  check_rules "--all-rules on" [ "D003" ]
    (lint ~all_rules:true ~path:"whatever.ml" src)

(* ---------- suppression pragmas ---------- *)

let test_suppression_same_and_next_line () =
  check_rules "next line" []
    (lint
       "(* dex-lint: allow D002 test needs ambient randomness *)\n\
        let f () = Random.int 3");
  check_rules "same line" []
    (lint
       "let f () = Random.int 3 (* dex-lint: allow D002 inline reason *)")

let test_suppression_is_rule_specific () =
  check_rules "other rule still fires" [ "D003" ]
    (lint
       "(* dex-lint: allow D002 wrong rule *)\n\
        let f () = failwith \"x\"")

let test_suppression_requires_reason () =
  (* the reasonless pragma is spliced so linting this file does not
     trip over the literal *)
  let fs =
    lint ("(* dex-lint: " ^ "allow D002 *)\nlet f () = Random.int 3")
  in
  check_rules "inert pragma: D000 + the finding" [ "D000"; "D002" ] fs

let test_suppression_does_not_leak () =
  check_rules "two lines below: fires" [ "D002" ]
    (lint
       "(* dex-lint: allow D002 reason *)\nlet a = 1\nlet f () = Random.int 3")

(* ---------- driver behavior ---------- *)

let test_parse_error () =
  match Lint.lint_source ~path:"lib/x.ml" "let let let" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

let test_findings_sorted_and_positioned () =
  let fs =
    lint "let a () = Random.int 1\nlet b () = failwith \"x\"\nlet c tbl = Hashtbl.iter ignore tbl"
  in
  check_rules "ordered by line" [ "D002"; "D003"; "D001" ] fs;
  Alcotest.(check (list int)) "line numbers" [ 1; 2; 3 ]
    (List.map (fun f -> f.Lint.line) fs)

(* ---------- typed engine: C003 on interfaces ---------- *)

module Typed = Dex_lint_core.Typed_lint

let mli ?(path = "lib/congest/fixture.mli") ?all_rules src =
  match Typed.lint_mli_source ?all_rules ~path src with
  | Ok findings -> findings
  | Error msg -> Alcotest.failf "unexpected parse error: %s" msg

let test_c003_vertex_params () =
  check_rules "raw root" [ "C003" ] (mli "val bfs : root:int -> unit");
  check_rules "raw vertex map" [ "C003" ]
    (mli "val relabel : vertex_map:int array -> unit");
  check_rules "phantom-typed root is fine" []
    (mli "val bfs : root:Dex_graph.Vertex.local -> unit");
  check_rules "unlabelled ints untouched" [] (mli "val degree : int -> int")

let test_c003_scoping_and_pragma () =
  check_rules "outside the protocol layers" []
    (mli ~path:"lib/graph/fixture.mli" "val bfs : root:int -> unit");
  check_rules "--all-rules overrides the scope" [ "C003" ]
    (mli ~path:"lib/graph/fixture.mli" ~all_rules:true "val bfs : root:int -> unit");
  check_rules "pragma suppresses" []
    (mli "(* dex-lint: allow C003 staged migration *)\nval bfs : root:int -> unit")

let test_c_rule_pragma_scan () =
  let p =
    Lint.scan_pragmas ~path:"x.ml"
      "(* dex-lint: allow C002 guarded upstream *)\nlet x = 1"
  in
  Alcotest.(check bool) "C-rule pragma covers its line and the next" true
    (Hashtbl.mem p.Lint.allowed (1, "C002") && Hashtbl.mem p.Lint.allowed (2, "C002"));
  Alcotest.(check int) "well-formed" 0 (List.length p.Lint.malformed)

(* ---------- typed engine: W-rules on real .cmts ---------- *)

let have_ocamlc =
  lazy (Sys.command "ocamlc -version > /dev/null 2> /dev/null" = 0)

(* compile [src] with -bin-annot and run the W-rules on its .cmt;
   ocamlc writes outputs next to the source *)
let w_findings src =
  let dir = Filename.temp_file "dex_lint_w" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let ml = Filename.concat dir "probe.ml" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let oc = open_out ml in
      output_string oc src;
      close_out oc;
      let rc =
        Sys.command
          (Printf.sprintf "ocamlc -bin-annot -c %s 2> /dev/null"
             (Filename.quote ml))
      in
      if rc <> 0 then Alcotest.failf "probe did not compile:\n%s" src;
      match
        (Cmt_format.read_cmt (Filename.concat dir "probe.cmt")).cmt_annots
      with
      | Cmt_format.Implementation str -> Typed.w_rules ~file:"probe.ml" str
      | _ -> Alcotest.fail "expected an implementation cmt")

let test_w_rules_certify () =
  if Lazy.force have_ocamlc then begin
    check_rules "C001: static length over a literal budget" [ "C001" ]
      (w_findings
         "let create ~word_size () = word_size\n\
          let _b = create ~word_size:2 ()\n\
          let site () : int * int array = (1, [| 1; 2; 3 |])");
    check_rules "static length within the default budget" []
      (w_findings "let site () : int * int array = (1, [| 7 |])");
    check_rules "length decided through a local helper" []
      (w_findings
         "let encode x = [| x |]\n\
          let site x : int * int array = (1, encode x)");
    check_rules "C002: unguarded dynamic length" [ "C002" ]
      (w_findings "let site n : int * int array = (1, Array.make n 0)");
    check_rules "Invariant.words guard recognized" []
      (w_findings
         "module Invariant = struct let words ~budget:_ ~where:_ a = a end\n\
          let site n : int * int array =\n\
         \  (1, Invariant.words ~budget:1 ~where:\"t\" (Array.make n 0))");
    check_rules "non-literal budget disables C001, never C002"
      [ "C002" ]
      (w_findings
         "let create ~word_size () = word_size\n\
          let _b w = create ~word_size:w ()\n\
          let wide () : int * int array = (1, [| 1; 2; 3 |])\n\
          let dyn n : int * int array = (1, Array.make n 0)")
  end

(* ---------- typed engine: unit naming, dune parsing, the ladder ---------- *)

let test_unit_name_splitting () =
  Alcotest.(check (list string)) "wrapped" [ "Dex_congest"; "Network" ]
    (Typed.split_wrapped "Dex_congest__Network");
  Alcotest.(check (list string)) "plain" [ "Dexpander" ]
    (Typed.split_wrapped "Dexpander");
  Alcotest.(check string) "exe unit" "Dune.exe.Test_lint"
    (Typed.canon_of_unit_name "Dune__exe__Test_lint")

let test_declared_libraries () =
  Alcotest.(check (list string)) "parsed across lines"
    [ "dex_util"; "dex_graph"; "dex_obs" ]
    (Typed.declared_libraries
       "(library\n (name x)\n (libraries dex_util dex_graph\n   dex_obs))");
  Alcotest.(check (list string)) "no stanza" []
    (Typed.declared_libraries "(executable (name y))")

let test_layer_ranks_ladder () =
  let r l =
    match Typed.rank l with
    | Some r -> r
    | None -> Alcotest.failf "no rank for %s" l
  in
  Alcotest.(check bool) "util below congest" true (r "dex_util" < r "dex_congest");
  Alcotest.(check bool) "congest below ldd" true (r "dex_congest" < r "dex_ldd");
  Alcotest.(check bool) "ldd below decomp" true (r "dex_ldd" < r "dex_decomp");
  Alcotest.(check bool) "decomp below triangle" true (r "dex_decomp" < r "dex_triangle");
  Alcotest.(check bool) "umbrella on top" true (r "dex_triangle" < r "dexpander")

let test_json_report_round_trips () =
  let fs = lint "let f () = failwith \"x\"" in
  let doc = Lint.report_to_json ~files:1 ~errors:[ ("bad.ml", "boom") ] fs in
  match Json.parse (Json.to_string doc) with
  | Error msg -> Alcotest.failf "report not valid JSON: %s" msg
  | Ok v ->
    Alcotest.(check (option string)) "tool" (Some "dex_lint")
      (Option.bind (Json.member "tool" v) Json.to_str);
    let findings = Option.bind (Json.member "findings" v) Json.to_list in
    Alcotest.(check (option int)) "one finding" (Some 1)
      (Option.map List.length findings)

let test_rule_table_complete () =
  Alcotest.(check (list string)) "ids"
    [ "D001"; "D002"; "D003"; "D004"; "D005"; "D006" ]
    (List.map fst Lint.rules)

let () =
  Alcotest.run "lint"
    [ ( "rules",
        [ Alcotest.test_case "D001 hashtbl order" `Quick test_d001_hashtbl;
          Alcotest.test_case "D001 ordered ops ok" `Quick test_d001_allows_ordered_ops;
          Alcotest.test_case "D002 ambient random" `Quick test_d002_random;
          Alcotest.test_case "D003 untyped aborts" `Quick test_d003_aborts;
          Alcotest.test_case "D004 wall clock" `Quick test_d004_wall_clock;
          Alcotest.test_case "D005 poly compare" `Quick test_d005_poly_compare;
          Alcotest.test_case "D006 poly sort" `Quick test_d006_poly_sort;
          Alcotest.test_case "D006 kernel scoped" `Quick test_d006_scoped_to_kernel ] );
      ( "scoping",
        [ Alcotest.test_case "D003 protocol layers" `Quick
            test_scope_d003_only_protocol_layers;
          Alcotest.test_case "D002 rng exempt" `Quick test_scope_d002_rng_exempt;
          Alcotest.test_case "D004 obs/bench exempt" `Quick
            test_scope_d004_obs_and_bench_exempt;
          Alcotest.test_case "absolute paths" `Quick test_scope_absolute_paths;
          Alcotest.test_case "--all-rules" `Quick test_all_rules_overrides_scope ] );
      ( "suppressions",
        [ Alcotest.test_case "same and next line" `Quick
            test_suppression_same_and_next_line;
          Alcotest.test_case "rule specific" `Quick test_suppression_is_rule_specific;
          Alcotest.test_case "reason required" `Quick test_suppression_requires_reason;
          Alcotest.test_case "no leak" `Quick test_suppression_does_not_leak ] );
      ( "driver",
        [ Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "sorted findings" `Quick
            test_findings_sorted_and_positioned;
          Alcotest.test_case "json round trip" `Quick test_json_report_round_trips;
          Alcotest.test_case "rule table" `Quick test_rule_table_complete ] );
      ( "typed",
        [ Alcotest.test_case "C003 vertex params" `Quick test_c003_vertex_params;
          Alcotest.test_case "C003 scoping & pragma" `Quick
            test_c003_scoping_and_pragma;
          Alcotest.test_case "C-rule pragmas scan" `Quick test_c_rule_pragma_scan;
          Alcotest.test_case "W-rules certify budgets" `Quick test_w_rules_certify;
          Alcotest.test_case "unit name splitting" `Quick test_unit_name_splitting;
          Alcotest.test_case "dune (libraries ...) parsing" `Quick
            test_declared_libraries;
          Alcotest.test_case "layer ladder" `Quick test_layer_ranks_ladder ] ) ]
