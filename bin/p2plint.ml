(* p2plint — determinism & hygiene static analysis for this repository.

   Parses every .ml under lib/, bin/, bench/ and test/ with the compiler
   frontend and runs the pluggable rule set of Lint.Rules over each file.
   With --typed it additionally loads the .cmt files dune emits under
   _build (run `dune build @check` first) and runs the P-series
   hot-path rules of Lint.Typed_rules over every [@hot] call-graph scope,
   plus the whole-program dead-export rule of Lint.Dead_exports.
   Exit status: 0 clean, 1 violations found, 2 usage or I/O error. *)

let usage =
  "p2plint [options] [ROOT]\n\n\
   Static analysis enforcing the repo's determinism contract (see\n\
   DESIGN.md, \"Enforced invariants\" and \"Typed hot-path invariants\").\n\
   ROOT defaults to the current directory; the scan covers lib/, bin/,\n\
   bench/ and test/ beneath it.\n\n\
   Options:"

let die fmt =
  Printf.ksprintf
    (fun message ->
      prerr_endline ("p2plint: " ^ message);
      exit 2)
    fmt

(* Output paths are validated before any work happens, matching the
   bench CLI convention: a bad extension is a usage error, not a
   surprise after a long run. *)
let check_extension ~flag ~ext path =
  if not (String.equal path "-" || Filename.check_suffix path ext) then
    die "%s %s: use a %s path (or '-' for stdout)" flag path ext

let write_output path contents =
  if String.equal path "-" then print_string contents
  else begin
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc
  end

let () =
  let root = ref "." in
  let json_out = ref "" in
  let text_out = ref "" in
  let only = ref "" in
  let disabled = ref [] in
  let dirs = ref Lint.Engine.default_dirs in
  let quiet = ref false in
  let list_rules = ref false in
  let typed = ref false in
  let cmt_dirs = ref [] in
  let spec =
    [
      ( "--json-out",
        Arg.Set_string json_out,
        "FILE  write the JSON report to FILE.json ('-' for stdout)" );
      ( "--json",
        Arg.Set_string json_out,
        "FILE  alias for --json-out" );
      ( "--text-out",
        Arg.Set_string text_out,
        "FILE  also write the text report to FILE.txt ('-' for stdout)" );
      ( "--typed",
        Arg.Set typed,
        "  also run the typed P-series over .cmt files (default dir: \
         _build/default under ROOT)" );
      ( "--cmt-dir",
        Arg.String (fun s -> cmt_dirs := s :: !cmt_dirs),
        "DIR  scan DIR recursively for .cmt files (repeatable; implies \
         --typed)" );
      ( "--only",
        Arg.Set_string only,
        "RULES  comma-separated rule codes/ids to run (default: all)" );
      ( "--disable",
        Arg.String (fun s -> disabled := s :: !disabled),
        "RULE  disable one rule by code or id (repeatable)" );
      ( "--dirs",
        Arg.String (fun s -> dirs := String.split_on_char ',' s),
        "DIRS  comma-separated sub-directories to scan (default: lib,bin,bench,test)"
      );
      ("--quiet", Arg.Set quiet, " print only the summary line");
      ("--list-rules", Arg.Set list_rules, " list the rule set and exit");
    ]
  in
  let positional = ref [] in
  Arg.parse spec (fun a -> positional := a :: !positional) usage;
  (match !positional with
  | [] -> ()
  | [ r ] -> root := r
  | _ -> die "at most one ROOT argument");
  if !list_rules then begin
    List.iter
      (fun (r : Lint.Rule.t) -> Printf.printf "%s %s: %s\n" r.code r.id r.summary)
      Lint.Rules.everything;
    exit 0
  end;
  if not (String.equal !json_out "") then
    check_extension ~flag:"--json-out" ~ext:".json" !json_out;
  if not (String.equal !text_out "") then
    check_extension ~flag:"--text-out" ~ext:".txt" !text_out;
  let typed = !typed || !cmt_dirs <> [] in
  let resolve name =
    match Lint.Rules.find name with
    | Some r -> r
    | None -> die "unknown rule %S (try --list-rules)" name
  in
  let rules =
    match !only with
    | "" -> Lint.Rules.everything
    | names -> List.map resolve (String.split_on_char ',' names)
  in
  let rules =
    List.filter
      (fun (r : Lint.Rule.t) ->
        not
          (List.exists
             (fun name -> Lint.Rule.matches (resolve name) r.code)
             !disabled))
      rules
  in
  if not (Sys.file_exists !root && Sys.is_directory !root) then
    die "root %S is not a directory" !root;
  let cmt_dirs =
    if not typed then []
    else begin
      let chosen =
        match !cmt_dirs with
        | [] -> [ Filename.concat !root Lint.Typed_engine.default_cmt_dir ]
        | dirs -> List.rev dirs
      in
      List.iter
        (fun dir ->
          if not (Sys.file_exists dir && Sys.is_directory dir) then
            die "cmt dir %S is not a directory (run `dune build @check`?)" dir)
        chosen;
      chosen
    end
  in
  let known = Lint.Rules.everything in
  let files, violations =
    Lint.Engine.lint_tree ~rules ~known ~root:!root ~dirs:!dirs ()
  in
  let cmts_loaded, violations =
    if not typed then (None, violations)
    else begin
      (* The fixture corpus seeds deliberate violations for the lint's
         own tests; like the syntactic scan, repo runs skip it. *)
      let exclude rel =
        List.exists
          (fun part -> String.equal part "lint_fixtures")
          (String.split_on_char '/' rel)
      in
      let typed_files, typed_violations =
        Lint.Typed_engine.run ~rules ~known ~root:!root ~exclude ~cmt_dirs ()
      in
      let dead_exports =
        if List.memq Lint.Dead_exports.rule rules then
          Lint.Dead_exports.run ~known ~root:!root ~exclude ~cmt_dirs ()
        else []
      in
      ( Some (List.length typed_files),
        List.sort Lint.Rule.compare_violation
          (violations @ typed_violations @ dead_exports) )
    end
  in
  let files_scanned = List.length files in
  let text = Lint.Report.render_text ~files_scanned ?cmts_loaded violations in
  if !quiet then
    (* The summary is the last line of the text report. *)
    let lines = String.split_on_char '\n' (String.trim text) in
    print_endline (List.nth lines (List.length lines - 1))
  else print_string text;
  if not (String.equal !text_out "") then write_output !text_out text;
  if not (String.equal !json_out "") then
    write_output !json_out
      (Lint.Report.render_json ~files_scanned ?cmts_loaded violations);
  exit (if violations = [] then 0 else 1)
