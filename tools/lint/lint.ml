(* dex_lint engine: determinism & CONGEST-conformance rules, checked
   on the untyped parsetree (compiler-libs), path-scoped, with
   per-line suppression pragmas.

   The rules target the failure modes that break schedule-permutation
   reproducibility (see Dex_congest.Conformance and DESIGN.md §9):
   hash-order iteration, ambient randomness, untyped aborts in the
   protocol layers, wall-clock reads outside the sanctioned points,
   and polymorphic comparison of graph/network values. *)

module Json = Dex_obs.Json

type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let rules =
  [ ( "D001",
      "no Hashtbl.iter/fold/to_seq* (hash-order nondeterminism); use \
       Dex_util.Table.iter_sorted / fold_sorted" );
    ( "D002",
      "no Random.* outside lib/util/rng.ml; thread a Dex_util.Rng.t \
       explicitly" );
    ( "D003",
      "no failwith/invalid_arg/assert false in lib/congest, lib/ldd, \
       lib/routing, lib/expander, lib/sparsecut, lib/spectral, \
       lib/triangle; raise a typed exception \
       (Dex_util.Invariant.Violation or a module-specific one)" );
    ( "D004",
      "no wall-clock (Sys.time, Unix.gettimeofday, Unix.time) outside \
       bench/ and lib/obs; use Dex_obs.Clock" );
    ( "D005",
      "no polymorphic compare/=/min/max on graph or network values; \
       compare explicit fields" );
    ( "D006",
      "no bare polymorphic [compare] passed to Array.sort / List.sort \
       family in lib/graph, lib/congest, lib/spectral, lib/sparsecut, \
       lib/triangle or lib/expander; use a monomorphic comparator (Int.compare, \
       String.compare, an explicit field comparator)" ) ]

(* ---------------- path scoping ---------------- *)

(* Paths are scoped on their segments, anchored at the last segment
   named like a top-level source directory, so "lib/congest/x.ml",
   "./lib/congest/x.ml" and "/root/repo/lib/congest/x.ml" scope
   identically. *)
let rel_segments path =
  let segs =
    List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' path)
  in
  let roots = [ "lib"; "bench"; "bin"; "test"; "tools" ] in
  let rec last_root i best = function
    | [] -> best
    | s :: rest -> last_root (i + 1) (if List.mem s roots then Some i else best) rest
  in
  match last_root 0 None segs with
  | None -> segs
  | Some i -> List.filteri (fun j _ -> j >= i) segs

let under prefix segs =
  let rec go p s =
    match (p, s) with
    | [], _ -> true
    | _, [] -> false
    | ph :: pt, sh :: st -> ph = sh && go pt st
  in
  go prefix segs

(* bench/, bin/ and tools/ are gated alongside lib/: the harness and
   the CLI feed the paper's tables, so hash-order iteration or ambient
   randomness there corrupts results just as silently *)
let gated segs =
  under [ "lib" ] segs || under [ "bench" ] segs || under [ "bin" ] segs
  || under [ "tools" ] segs

let rule_applies ~all_rules segs rule =
  all_rules
  ||
  match rule with
  | "D001" -> gated segs
  | "D002" -> gated segs && segs <> [ "lib"; "util"; "rng.ml" ]
  | "D003" ->
    under [ "lib"; "congest" ] segs
    || under [ "lib"; "ldd" ] segs
    || under [ "lib"; "routing" ] segs
    || under [ "lib"; "expander" ] segs
    || under [ "lib"; "sparsecut" ] segs
    || under [ "lib"; "spectral" ] segs
    || under [ "lib"; "triangle" ] segs
  | "D004" ->
    (* bench/ stays sanctioned: wall-clock timing is its whole job *)
    gated segs && not (under [ "lib"; "obs" ] segs) && not (under [ "bench" ] segs)
  | "D005" -> true
  | "D006" ->
    (* the kernel's, the walks', the triangle sets' and the
       decomposition's vertex sets: a polymorphic-compare sort here
       costs a generic-compare dispatch per element pair *)
    under [ "lib"; "graph" ] segs
    || under [ "lib"; "congest" ] segs
    || under [ "lib"; "spectral" ] segs
    || under [ "lib"; "sparsecut" ] segs
    || under [ "lib"; "triangle" ] segs
    || under [ "lib"; "expander" ] segs
  | _ -> false

(* ---------------- suppression pragmas ---------------- *)

(* An allow pragma — the marker below followed by a rule id and a
   reason, inside a comment — suppresses that rule on its own line and
   the next one. The reason is mandatory: a pragma without one is
   inert and reported as a malformed-pragma finding, so suppressions
   stay auditable. The marker is spliced from two literals so the
   scanner does not match its own definition. *)
let pragma_marker = "dex-lint: " ^ "allow"

let find_sub hay needle from =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  if nn = 0 then None else go from

type pragmas = {
  allowed : (int * string, unit) Hashtbl.t; (* (line, rule) *)
  malformed : finding list;
}

let scan_pragmas ~path src =
  let allowed = Hashtbl.create 8 in
  let malformed = ref [] in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i line ->
      let lnum = i + 1 in
      match find_sub line pragma_marker 0 with
      | None -> ()
      | Some j ->
        let rest = String.sub line (j + String.length pragma_marker)
            (String.length line - j - String.length pragma_marker) in
        let rest = String.trim rest in
        let rule, reason =
          match String.index_opt rest ' ' with
          | Some k ->
            (String.sub rest 0 k,
             String.sub rest (k + 1) (String.length rest - k - 1))
          | None -> (rest, "")
        in
        let reason =
          (* the pragma sits inside a comment; drop the closer *)
          match find_sub reason "*)" 0 with
          | Some k -> String.trim (String.sub reason 0 k)
          | None -> String.trim reason
        in
        let rule = match find_sub rule "*)" 0 with
          | Some k -> String.sub rule 0 k
          | None -> rule
        in
        let well_formed_rule =
          (* any engine's rules: D0xx parsetree, C0xx typed-AST *)
          String.length rule = 4
          && rule.[0] >= 'A' && rule.[0] <= 'Z'
          && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub rule 1 3)
        in
        if well_formed_rule && reason <> "" then begin
          Hashtbl.replace allowed (lnum, rule) ();
          Hashtbl.replace allowed (lnum + 1, rule) ()
        end
        else
          malformed :=
            { rule = "D000";
              file = path;
              line = lnum;
              col = j;
              message =
                Printf.sprintf
                  "malformed suppression pragma: expected (* %s <rule> \
                   <reason> *) with a non-empty reason"
                  pragma_marker }
            :: !malformed)
    lines;
  { allowed; malformed = List.rev !malformed }

(* ---------------- AST rules ---------------- *)

open Parsetree

let lident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> ( try Some (Longident.flatten txt) with _ -> None)
  | _ -> None

let strip_stdlib = function "Stdlib" :: rest -> rest | l -> l

let hashtbl_unordered = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let graph_like_name n =
  List.mem n [ "g"; "graph"; "network"; "net"; "nw" ]
  || suffix n "_graph" || suffix n "_network" || suffix n "_net"

let graph_like_type ty =
  match ty.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) ->
    let l = try Longident.flatten txt with _ -> [] in
    List.mem "Graph" l || List.mem "Network" l
  | _ -> false

let graph_like_operand e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } -> graph_like_name n
  | Pexp_field (_, { txt; _ }) -> graph_like_name (Longident.last txt)
  | Pexp_constraint (_, ty) -> graph_like_type ty
  | _ -> false

let compare_like = [ "="; "<>"; "=="; "!="; "compare"; "min"; "max" ]

(* D006: the sort entry points whose comparator argument matters *)
let sort_family = function
  | "Array", ("sort" | "stable_sort" | "fast_sort") -> true
  | "List", ("sort" | "stable_sort" | "sort_uniq") -> true
  | _ -> false

let bare_compare arg =
  match Option.map strip_stdlib (lident_path arg) with
  | Some [ "compare" ] -> true
  | _ -> false

let collect ~path ~active src_ast =
  let findings = ref [] in
  let add loc rule message =
    let p = loc.Location.loc_start in
    findings :=
      { rule; file = path; line = p.Lexing.pos_lnum;
        col = p.Lexing.pos_cnum - p.Lexing.pos_bol; message }
      :: !findings
  in
  let on rule = List.mem rule active in
  let expr (self : Ast_iterator.iterator) e =
    (match lident_path e with
     | Some p -> (
       match strip_stdlib p with
       | [ "Hashtbl"; fn ] when on "D001" && List.mem fn hashtbl_unordered ->
         add e.pexp_loc "D001"
           (Printf.sprintf
              "Hashtbl.%s iterates in hash order; use Dex_util.Table.%s" fn
              (match fn with
               | "iter" -> "iter_sorted"
               | _ -> "fold_sorted"))
       | "Random" :: _ when on "D002" ->
         add e.pexp_loc "D002"
           "ambient Random.* breaks replayability; thread a Dex_util.Rng.t"
       | [ "failwith" ] when on "D003" ->
         add e.pexp_loc "D003"
           "failwith in a protocol layer; raise a typed exception \
            (Dex_util.Invariant.fail)"
       | [ "invalid_arg" ] when on "D003" ->
         add e.pexp_loc "D003"
           "invalid_arg in a protocol layer; raise a typed exception \
            (Dex_util.Invariant.require)"
       | [ "Sys"; "time" ] when on "D004" ->
         add e.pexp_loc "D004" "wall-clock read; use Dex_obs.Clock.now_ns"
       | [ "Unix"; ("gettimeofday" | "time") ] when on "D004" ->
         add e.pexp_loc "D004" "wall-clock read; use Dex_obs.Clock.now_ns"
       | _ -> ())
     | None -> ());
    (match e.pexp_desc with
     | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
       when on "D003" ->
       add e.pexp_loc "D003"
         "assert false in a protocol layer; raise a typed exception \
          (Dex_util.Invariant.fail)"
     | Pexp_apply (fn, args) -> (
       match Option.map strip_stdlib (lident_path fn) with
       | Some [ op ] when on "D005" && List.mem op compare_like ->
         if List.exists (fun (_, a) -> graph_like_operand a) args then
           add e.pexp_loc "D005"
             (Printf.sprintf
                "polymorphic %s on a graph/network value; compare explicit \
                 fields instead" op)
       | Some [ m; sfn ] when on "D006" && sort_family (m, sfn) -> (
         match
           List.find_opt (fun (lbl, _) -> lbl = Asttypes.Nolabel) args
         with
         | Some (_, cmp) when bare_compare cmp ->
           add e.pexp_loc "D006"
             (Printf.sprintf
                "polymorphic compare passed to %s.%s on a kernel hot path; \
                 use a monomorphic comparator (e.g. Int.compare)" m sfn)
         | _ -> ())
       | _ -> ())
     | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let iterator = { Ast_iterator.default_iterator with expr } in
  iterator.structure iterator src_ast;
  List.rev !findings

(* ---------------- driver ---------------- *)

let parse_error_message exn =
  match Location.error_of_exn exn with
  | Some (`Ok report) ->
    Location.print_report Format.str_formatter report;
    Format.flush_str_formatter ()
  | _ -> Printexc.to_string exn

(* [lint_source ~path src] lints [src] as if it lived at [path] (the
   path decides which rules are in scope). Returns the surviving
   findings, sorted by position. *)
let lint_source ?(all_rules = false) ~path src =
  let segs = rel_segments path in
  let active =
    List.filter (fun (r, _) -> rule_applies ~all_rules segs r) rules
    |> List.map fst
  in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | exception exn -> Error (parse_error_message exn)
  | ast ->
    let pragmas = scan_pragmas ~path src in
    let raw = collect ~path ~active ast in
    let kept =
      List.filter
        (fun f -> not (Hashtbl.mem pragmas.allowed (f.line, f.rule)))
        raw
    in
    let all = pragmas.malformed @ kept in
    Ok
      (List.sort
         (fun a b ->
           compare (a.line, a.col, a.rule) (b.line, b.col, b.rule))
         all)

let lint_file ?all_rules path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | src -> lint_source ?all_rules ~path src

(* ---------------- output ---------------- *)

let finding_to_string f =
  Printf.sprintf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message

let finding_to_json f =
  Json.Obj
    [ ("rule", Json.String f.rule);
      ("file", Json.String f.file);
      ("line", Json.Int f.line);
      ("col", Json.Int f.col);
      ("message", Json.String f.message) ]

let report_to_json ~files ~errors findings =
  Json.Obj
    [ ("tool", Json.String "dex_lint");
      ("files", Json.Int files);
      ("findings", Json.List (List.map finding_to_json findings));
      ( "errors",
        Json.List
          (List.map
             (fun (path, msg) ->
               Json.Obj
                 [ ("file", Json.String path); ("error", Json.String msg) ])
             errors) ) ]
