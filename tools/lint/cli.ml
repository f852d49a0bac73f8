(* Driver for both lint engines behind the one lint front end,
   tools/lint/dex_lint.exe (dex_lint.ml parses its options).

   Exit status: 0 clean, 1 unsuppressed findings, 2 parse/IO errors. *)

type opts = {
  json : bool;
  all_rules : bool;
  typed_only : bool;
  no_typed : bool;
  cmt_root : string;
  source_root : string;
  graph_json : string option;
  dead_scope : string list;
  include_fixtures : bool;
  targets : string list;
}

let default_opts =
  { json = false;
    all_rules = false;
    typed_only = false;
    no_typed = false;
    cmt_root = "_build/default";
    source_root = ".";
    graph_json = None;
    dead_scope = [ "lib" ];
    include_fixtures = false;
    targets = [] }

let rec collect_sources ~include_fixtures path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if entry = "_build" || entry = ".git"
           || ((not include_fixtures) && entry = "fixtures")
        then acc
        else collect_sources ~include_fixtures (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort compare entries;
       entries)
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

(* does [path] live under one of the targets? compares repo-relative
   segment lists so "./lib" and "lib/congest/x.ml" agree *)
let under_targets targets path =
  let segs = Lint.rel_segments path in
  let known_roots = [ "lib"; "bench"; "bin"; "test"; "tools" ] in
  List.exists
    (fun t ->
      match Lint.rel_segments t with
      | [] -> true
      (* a target outside the recognized roots (".", the repo root, a
         checkout path) scopes everything *)
      | s :: _ when not (List.mem s known_roots) -> true
      | tsegs -> Lint.under tsegs segs)
    targets

let run opts =
  if opts.targets = [] then begin
    prerr_endline "dex_lint: no targets given";
    2
  end
  else begin
    let findings = ref [] in
    let errors = ref [] in
    let add_findings fs = findings := !findings @ fs in
    let add_error path msg = errors := !errors @ [ (path, msg) ] in
    let files =
      List.concat_map
        (fun t ->
          if not (Sys.file_exists t) then begin
            Printf.eprintf "dex_lint: no such file or directory: %s\n" t;
            exit 2
          end;
          List.rev
            (collect_sources ~include_fixtures:opts.include_fixtures t []))
        opts.targets
    in
    let ml_files = List.filter (fun f -> Filename.check_suffix f ".ml") files in
    let mli_files =
      List.filter (fun f -> Filename.check_suffix f ".mli") files
    in
    (* engine 1: parsetree D-rules *)
    if not opts.typed_only then
      List.iter
        (fun path ->
          match Lint.lint_file ~all_rules:opts.all_rules path with
          | Ok fs -> add_findings fs
          | Error msg -> add_error path msg)
        ml_files;
    (* engine 2a: C003 on interfaces (parsed, path-scoped) *)
    if not opts.no_typed then
      List.iter
        (fun path ->
          match Typed_lint.lint_mli_file ~all_rules:opts.all_rules path with
          | Ok fs -> add_findings fs
          | Error msg -> add_error path msg)
        mli_files;
    (* engine 2b: W- and X-rules over the .cmt forest *)
    if not opts.no_typed then begin
      if not (Sys.file_exists opts.cmt_root) then begin
        if opts.typed_only then begin
          Printf.eprintf
            "dex_lint: cmt root %s does not exist; run `dune build` first\n"
            opts.cmt_root;
          exit 2
        end
        else
          Printf.eprintf
            "dex_lint: note: cmt root %s not found, typed engine skipped \
             (run `dune build` to enable it)\n"
            opts.cmt_root
      end
      else begin
        let impls, intfs, load_errors =
          Typed_lint.load_units ~cmt_root:opts.cmt_root
        in
        List.iter (fun (p, m) -> add_error p m) load_errors;
        (* W-rules on units whose source is in scope *)
        List.iter
          (fun (u : Typed_lint.unit_info) ->
            match (u.source, u.annots) with
            | Some src, Cmt_format.Implementation str
              when under_targets opts.targets src
                   && (opts.include_fixtures
                      || not (Typed_lint.is_fixture_path src)) ->
              let fs = Typed_lint.w_rules ~file:src str in
              let abs = Filename.concat opts.source_root src in
              if fs <> [] && Sys.file_exists abs then
                add_findings
                  (Typed_lint.suppress ~path:src
                     ~src:(Typed_lint.read_file abs) fs)
              else add_findings fs
            | _ -> ())
          impls;
        (* X-rules: reference graph, dead exports, layering *)
        let db = Typed_lint.build_ref_db impls in
        let dead =
          Typed_lint.dead_exports ~scope:opts.dead_scope
            ~include_fixtures:opts.include_fixtures db impls intfs
          |> List.filter (fun (f : Lint.finding) ->
                 under_targets opts.targets f.Lint.file)
        in
        let dead =
          List.concat_map
            (fun (f : Lint.finding) ->
              let abs = Filename.concat opts.source_root f.Lint.file in
              if Sys.file_exists abs then
                Typed_lint.suppress ~path:f.Lint.file
                  ~src:(Typed_lint.read_file abs) [ f ]
              else [ f ])
            dead
        in
        add_findings dead;
        let lay =
          Typed_lint.layering ~source_root:opts.source_root db impls
          |> List.concat_map (fun (f : Lint.finding) ->
                 let abs = Filename.concat opts.source_root f.Lint.file in
                 if Sys.file_exists abs then
                   Typed_lint.suppress ~path:f.Lint.file
                     ~src:(Typed_lint.read_file abs) [ f ]
                 else [ f ])
        in
        add_findings lay;
        match opts.graph_json with
        | Some path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              output_string oc
                (Dex_obs.Json.to_string (Typed_lint.graph_to_json db impls));
              output_char oc '\n')
        | None -> ()
      end
    end;
    let findings =
      List.sort
        (fun (a : Lint.finding) (b : Lint.finding) ->
          compare (a.file, a.line, a.col, a.rule) (b.file, b.line, b.col, b.rule))
        !findings
    in
    if opts.json then
      print_endline
        (Dex_obs.Json.to_string
           (Lint.report_to_json ~files:(List.length files) ~errors:!errors
              findings))
    else begin
      List.iter (fun f -> print_endline (Lint.finding_to_string f)) findings;
      List.iter
        (fun (path, msg) -> Printf.eprintf "%s: error:\n%s\n" path msg)
        !errors;
      Printf.printf "dex_lint: %d file%s, %d finding%s, %d error%s\n"
        (List.length files)
        (if List.length files = 1 then "" else "s")
        (List.length findings)
        (if List.length findings = 1 then "" else "s")
        (List.length !errors)
        (if List.length !errors = 1 then "" else "s")
    end;
    if !errors <> [] then 2 else if findings <> [] then 1 else 0
  end

let all_rules_table = Lint.rules @ Typed_lint.rules
