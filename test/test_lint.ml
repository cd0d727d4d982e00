(* The p2plint analyzer: fixture corpus with seeded violations, report
   determinism, and the repo's own self-lint invariant.

   The fixture corpus lives in test/lint_fixtures (declared as a source_tree
   dependency of this test, so it is present next to the executable); the
   self-lint test walks upward from the working directory to the nearest
   tree that looks like the repo root (dune-project + lib/), which inside
   _build is the sandboxed copy of the sources. *)

let contains_substring haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec scan i = i + ln <= lh && (String.equal (String.sub haystack i ln) needle || scan (i + 1)) in
  scan 0

let fixture_root () =
  let candidate = Filename.concat (Sys.getcwd ()) "lint_fixtures" in
  if Sys.file_exists candidate && Sys.is_directory candidate then Some candidate
  else None

let repo_root () =
  let rec search dir =
    if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "lib")
      && Sys.is_directory (Filename.concat dir "lib")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else search parent
  in
  search (Sys.getcwd ())

let lint root dirs =
  Lint.Engine.lint_tree ~rules:Lint.Rules.everything ~known:Lint.Rules.everything ~root
    ~dirs ()

(* ------------------------------------------------------------------ *)
(* Fixture corpus: exact report over the seeded positives, silence over
   the negatives. *)

let expected_fixture_report =
  "bin/d1_bad.ml:2:14: D1 ambient-nondeterminism: `Random.int` is ambient \
   nondeterminism; thread a seeded Stdx.Prng (or a virtual clock) instead\n\
   bin/d1_bad.ml:4:13: D1 ambient-nondeterminism: `Unix.gettimeofday` is ambient \
   nondeterminism; thread a seeded Stdx.Prng (or a virtual clock) instead\n\
   bin/d1_bad.ml:6:14: D1 ambient-nondeterminism: `Random.self_init` is ambient \
   nondeterminism; thread a seeded Stdx.Prng (or a virtual clock) instead\n\
   bin/d2_bad.ml:2:15: D2 unordered-iteration: Hashtbl.fold visits bindings in \
   nondeterministic bucket order and this accumulator is order-sensitive; use \
   Stdx.Det_tbl.fold_sorted (or sorted_bindings)\n\
   bin/d2_bad.ml:4:15: D2 unordered-iteration: Hashtbl.iter visits bindings in \
   nondeterministic bucket order; use Stdx.Det_tbl.iter_sorted\n\
   bin/d3_bad.ml:2:17: D3 phys-equal: physical equality (==) depends on value \
   representation; use structural (dis)equality or suppress with the identity \
   argument spelled out\n\
   bin/d3_bad.ml:4:13: D3 phys-equal: `Obj.magic` defeats the type system\n\
   bin/e1_bad.ml:2:39: E1 catch-all-handler: `with _ ->` swallows unexpected \
   exceptions; match the specific exceptions the expression can raise\n\
   bin/e1_bad.ml:4:32: E1 catch-all-handler: `with Failure _ ->` swallows \
   unexpected exceptions; match the specific exceptions the expression can raise\n\
   bin/o1_bad.ml:2:52: O1 metric-naming: metric name \"lookup_count\": must be \
   p2pindex_<subsystem>_<name> in lower_snake_case\n\
   bin/o1_bad.ml:4:54: O1 metric-naming: metric name \
   \"p2pindex_queue_depth_seconds\": gauges take no _total/_seconds unit suffix\n\
   bin/s1_bad.ml:2:0: S1 bad-suppression: suppression of \"phys-equal\" lacks a \
   justification (write \"phys-equal — why it is safe\")\n\
   bin/s1_bad.ml:3:22: D3 phys-equal: physical equality (==) depends on value \
   representation; use structural (dis)equality or suppress with the identity \
   argument spelled out\n\
   lib/h1_bad.ml:1:0: H1 missing-mli: module has no interface; add h1_bad.mli\n\
   p2plint: 14 violations in 7 files (14 files scanned)\n"

let fixtures_exact_report () =
  match fixture_root () with
  | None -> Alcotest.skip ()
  | Some root ->
      let files, violations = lint root [ "lib"; "bin" ] in
      let rendered =
        Lint.Report.render_text ~files_scanned:(List.length files) violations
      in
      Alcotest.(check string) "exact text report" expected_fixture_report rendered

let fixtures_negatives_are_clean () =
  match fixture_root () with
  | None -> Alcotest.skip ()
  | Some root ->
      let _files, violations = lint root [ "lib"; "bin" ] in
      List.iter
        (fun (v : Lint.Rule.violation) ->
          Alcotest.(check bool)
            (Printf.sprintf "violation only in *_bad fixtures (%s)" v.file)
            false
            (contains_substring v.file "_ok"))
        violations

let fixtures_cover_every_rule () =
  match fixture_root () with
  | None -> Alcotest.skip ()
  | Some root ->
      let _files, violations = lint root [ "lib"; "bin" ] in
      let hit code = List.exists (fun (v : Lint.Rule.violation) -> String.equal v.code code) violations in
      List.iter
        (fun code -> Alcotest.(check bool) (code ^ " fires") true (hit code))
        [ "D1"; "D2"; "D3"; "E1"; "H1"; "O1"; "S1" ]

(* S1 is a registered rule: it resolves by code and id, a run selecting
   only S1 reports the corpus's malformed suppression and nothing else,
   and a run without it reports no S1 at all. *)
let s1_selected_by_name () =
  let s1 = Lint.Rules.find "S1" in
  Alcotest.(check (option string)) "S1 resolves" (Some "bad-suppression")
    (Option.map (fun (r : Lint.Rule.t) -> r.id) s1);
  Alcotest.(check (option string)) "bad-suppression resolves" (Some "S1")
    (Option.map (fun (r : Lint.Rule.t) -> r.code) (Lint.Rules.find "bad-suppression"));
  match (fixture_root (), s1) with
  | None, _ | _, None -> Alcotest.skip ()
  | Some root, Some s1 ->
      let run rules =
        snd
          (Lint.Engine.lint_tree ~rules ~known:Lint.Rules.everything ~root
             ~dirs:[ "lib"; "bin" ] ())
      in
      let located (v : Lint.Rule.violation) = Printf.sprintf "%s:%d %s" v.file v.line v.code in
      Alcotest.(check (list string)) "only S1 selected" [ "bin/s1_bad.ml:2 S1" ]
        (List.map located (run [ s1 ]));
      Alcotest.(check bool) "S1 disabled" false
        (List.exists
           (fun (v : Lint.Rule.violation) -> String.equal v.code "S1")
           (run
              (List.filter
                 (fun (r : Lint.Rule.t) -> not (String.equal r.code "S1"))
                 Lint.Rules.everything)))

(* ------------------------------------------------------------------ *)
(* Determinism: two full runs render byte-identical reports. *)

let reports_are_deterministic () =
  match fixture_root () with
  | None -> Alcotest.skip ()
  | Some root ->
      let render () =
        let files, violations = lint root [ "lib"; "bin" ] in
        let n = List.length files in
        (Lint.Report.render_text ~files_scanned:n violations,
         Lint.Report.render_json ~files_scanned:n violations)
      in
      let text_a, json_a = render () in
      let text_b, json_b = render () in
      Alcotest.(check string) "text byte-identical across runs" text_a text_b;
      Alcotest.(check string) "json byte-identical across runs" json_a json_b;
      Alcotest.(check bool) "json is one line plus newline" true
        (String.length json_a > 0
        && json_a.[String.length json_a - 1] = '\n'
        && not (String.contains (String.sub json_a 0 (String.length json_a - 1)) '\n'));
      Alcotest.(check bool) "json carries the version marker" true
        (contains_substring json_a "\"version\":1")

(* ------------------------------------------------------------------ *)
(* The enforced invariant: the repository lints clean. *)

let repo_self_lints_clean () =
  match repo_root () with
  | None -> Alcotest.skip ()
  | Some root ->
      let files, violations = lint root Lint.Engine.default_dirs in
      Alcotest.(check bool) "scanned a real tree" true (List.length files > 50);
      let rendered =
        Lint.Report.render_text ~files_scanned:(List.length files) violations
      in
      Alcotest.(check string)
        (Printf.sprintf "repo at %s lints clean" root)
        (Printf.sprintf "p2plint: clean (%d files scanned)\n" (List.length files))
        rendered

(* ------------------------------------------------------------------ *)
(* Typed pass: the P-series over the compiled fixture corpus.  The
   corpus is a dune library (all warnings off) linked into this test
   solely so its .cmt files exist under the build tree before we run. *)

(* Cmt files live in the build tree.  Under `dune runtest` the working
   directory already is the build tree (repo_root finds it); under
   `dune exec` from a source checkout it is the checkout, whose
   artifacts sit under _build/default. *)
let typed_root () =
  match repo_root () with
  | None -> None
  | Some root ->
      let built = Filename.concat root "_build/default" in
      if Sys.file_exists (Filename.concat built "lib") then Some built
      else Some root

let typed_cmt_dir root =
  Filename.concat root "test/lint_fixtures/typed/.lintfx_typed.objs/byte"

let typed_lint root ~cmt_dirs =
  Lint.Typed_engine.run ~rules:Lint.Rules.everything
    ~known:Lint.Rules.everything ~root ~cmt_dirs ()

let typed_fixture_run () =
  match typed_root () with
  | None -> None
  | Some root ->
      let dir = typed_cmt_dir root in
      if Sys.file_exists dir && Sys.is_directory dir then
        Some (typed_lint root ~cmt_dirs:[ dir ])
      else None

let expected_typed_report =
  "test/lint_fixtures/typed/p1_bad.ml:7:17: P1 hot-closure: closure capturing \
   `base` allocates on every call; hoist it to a static function or thread \
   the state through arguments\n\
   test/lint_fixtures/typed/p1_bad.ml:9:34: P1 hot-closure: application of \
   `add3` yields a function — a partial application allocates a closure per \
   call; apply it fully or eta-expand at definition site\n\
   test/lint_fixtures/typed/p2_bad.ml:6:53: P2 polymorphic-compare: `=` at \
   `pair` uses runtime polymorphic comparison; use a monomorphic equivalent \
   (Int.equal, String.compare, a keyed List.exists, ...)\n\
   test/lint_fixtures/typed/p2_bad.ml:8:40: P2 polymorphic-compare: \
   `Hashtbl.hash` at `pair` uses runtime polymorphic comparison; use a \
   monomorphic equivalent (Int.equal, String.compare, a keyed List.exists, \
   ...)\n\
   test/lint_fixtures/typed/p2_bad.ml:10:38: P2 polymorphic-compare: \
   `List.mem` at `pair` uses runtime polymorphic comparison; use a \
   monomorphic equivalent (Int.equal, String.compare, a keyed List.exists, \
   ...)\n\
   test/lint_fixtures/typed/p3_bad.ml:6:29: P3 boxed-allocation: tuple \
   allocated on every call; return components separately or reuse a mutable \
   record\n\
   test/lint_fixtures/typed/p3_bad.ml:8:43: P3 boxed-allocation: `Some` \
   boxes a float argument on every call; keep floats in unboxed positions \
   (float record fields, arrays) or split the value\n\
   test/lint_fixtures/typed/p3_bad.ml:10:36: P3 boxed-allocation: mixed \
   record boxes float field `weight` on every call; use a flat float record, \
   separate arrays, or an int representation\n\
   test/lint_fixtures/typed/p4_bad.ml:4:22: P4 list-per-event: `List.map` \
   builds a fresh list per event; precompute it, use an array, or fold \
   without materializing\n\
   test/lint_fixtures/typed/p4_bad.ml:6:24: P4 list-per-event: `List.filter` \
   builds a fresh list per event; precompute it, use an array, or fold \
   without materializing\n\
   p2plint: 10 violations in 4 files (10 files scanned, 10 cmts)\n"

let typed_render (files, violations) =
  let n = List.length files in
  Lint.Report.render_text ~files_scanned:n ~cmts_loaded:n violations

let typed_fixtures_exact_report () =
  match typed_fixture_run () with
  | None -> Alcotest.skip ()
  | Some run ->
      Alcotest.(check string) "exact typed report" expected_typed_report
        (typed_render run)

let typed_negatives_are_clean () =
  match typed_fixture_run () with
  | None -> Alcotest.skip ()
  | Some (_files, violations) ->
      List.iter
        (fun (v : Lint.Rule.violation) ->
          Alcotest.(check bool)
            (Printf.sprintf "typed violation only in *_bad fixtures (%s)" v.file)
            false
            (contains_substring v.file "_ok" || contains_substring v.file "propagate"))
        violations

let typed_fixtures_cover_every_rule () =
  match typed_fixture_run () with
  | None -> Alcotest.skip ()
  | Some (_files, violations) ->
      let hit code =
        List.exists
          (fun (v : Lint.Rule.violation) -> String.equal v.code code)
          violations
      in
      List.iter
        (fun code -> Alcotest.(check bool) (code ^ " fires") true (hit code))
        [ "P1"; "P2"; "P3"; "P4" ]

let typed_reports_are_deterministic () =
  match typed_root () with
  | None -> Alcotest.skip ()
  | Some root -> (
      match typed_fixture_run () with
      | None -> Alcotest.skip ()
      | Some _ ->
          let render () =
            let files, violations =
              typed_lint root ~cmt_dirs:[ typed_cmt_dir root ]
            in
            let n = List.length files in
            ( Lint.Report.render_text ~files_scanned:n ~cmts_loaded:n violations,
              Lint.Report.render_json ~files_scanned:n ~cmts_loaded:n violations
            )
          in
          let text_a, json_a = render () in
          let text_b, json_b = render () in
          Alcotest.(check string) "typed text byte-identical" text_a text_b;
          Alcotest.(check string) "typed json byte-identical" json_a json_b;
          Alcotest.(check bool) "typed json carries cmts_loaded" true
            (contains_substring json_a "\"cmts_loaded\""))

(* The acceptance fixture for interprocedural [@hot]: one annotated
   driver makes every helper it reaches hot — through nested modules
   and functor bodies — and a local hot binding in a cold owner stands
   alone under its owner's name. *)
let typed_propagation_hot_names () =
  match typed_root () with
  | None -> Alcotest.skip ()
  | Some root ->
      let cmt =
        Filename.concat (typed_cmt_dir root) "lintfx_typed__Propagate.cmt"
      in
      if not (Sys.file_exists cmt) then Alcotest.skip ()
      else (
        match Lint.Typed_engine.hot_names_of_cmt cmt with
        | Error message -> Alcotest.fail message
        | Ok names ->
            Alcotest.(check (list string))
              "hot scopes after propagation"
              [
                "Make.Stack.push";
                "Make.Stack.total";
                "Make.cost";
                "Make.drive";
                "cold_owner.inner";
              ]
              names)

(* The typed self-lint invariant: every library cmt in the build tree
   passes the P-series (the CLI run over _build/default enforces the
   same for bin/ and bench/). *)
let typed_repo_self_lints_clean () =
  match typed_root () with
  | None -> Alcotest.skip ()
  | Some root ->
      let lib = Filename.concat root "lib" in
      if not (Sys.file_exists lib && Sys.is_directory lib) then
        Alcotest.skip ()
      else begin
        let files, violations = typed_lint root ~cmt_dirs:[ lib ] in
        let n = List.length files in
        Alcotest.(check bool) "loaded a real cmt set" true (n > 20);
        Alcotest.(check string)
          (Printf.sprintf "lib cmts at %s lint clean" root)
          (Printf.sprintf "p2plint: clean (%d files scanned, %d cmts)\n" n n)
          (Lint.Report.render_text ~files_scanned:n ~cmts_loaded:n violations)
      end

(* X1 over its own fixture libraries: interface values no other unit
   names are reported, nested signatures included; a value its own
   implementation uses still counts as dead, and the comment form
   suppresses.  A test unit keeps a test-side declaration alive but not a
   library-side one: [Api.test_view], which only the test-side [User]
   names, is reported.  A suppression over a value that has a user
   ([Exporter.stale]) is reported as stale. *)
let dead_exports_fixture () =
  match typed_root () with
  | None -> Alcotest.skip ()
  | Some root ->
      let fixture = Filename.concat root "test/lint_fixtures/dead" in
      let dirs =
        [
          Filename.concat fixture ".lintfx_dead.objs/byte";
          Filename.concat fixture "lib/.lintfx_dead_lib.objs/byte";
        ]
      in
      if not (List.for_all (fun dir -> Sys.file_exists dir && Sys.is_directory dir) dirs)
      then Alcotest.skip ()
      else
        let violations =
          Lint.Dead_exports.run ~known:Lint.Rules.everything ~root ~cmt_dirs:dirs ()
        in
        Alcotest.(check (list string))
          "exact X1 report"
          [
            "test/lint_fixtures/dead/exporter.mli:2 `Lintfx_dead.Exporter.only_here` \
             is exported but no other compilation unit uses it";
            "test/lint_fixtures/dead/exporter.mli:3 `Lintfx_dead.Exporter.unused` \
             is exported but no other compilation unit uses it";
            "test/lint_fixtures/dead/exporter.mli:9 `Lintfx_dead.Exporter.Inner.deep_unused` \
             is exported but no other compilation unit uses it";
            "test/lint_fixtures/dead/exporter.mli:12 this X1 suppression covers no finding";
            "test/lint_fixtures/dead/lib/api.mli:2 `Lintfx_dead_lib.Api.test_view` \
             is exported but only tests use it";
          ]
          (List.map
             (fun (v : Lint.Rule.violation) ->
               Printf.sprintf "%s:%d %s" v.file v.line
                 (List.hd (String.split_on_char ';' v.message)))
             violations)

(* The X1 invariant over the whole repository: every export of lib/,
   bin/, bench/, examples/ and test/ has a user outside its own unit — a
   user outside test/ unless it is declared there — or a justified
   suppression.  The fixture corpora are left out, as in the CLI run. *)
let repo_exports_all_used () =
  match typed_root () with
  | None -> Alcotest.skip ()
  | Some root ->
      let dirs =
        List.map (Filename.concat root) [ "lib"; "bin"; "bench"; "examples"; "test" ]
      in
      if not (List.for_all Sys.file_exists dirs) then Alcotest.skip ()
      else
        let exclude rel =
          List.mem "lint_fixtures" (String.split_on_char '/' rel)
        in
        let violations =
          Lint.Dead_exports.run ~known:Lint.Rules.everything ~root ~exclude ~cmt_dirs:dirs ()
        in
        Alcotest.(check string)
          (Printf.sprintf "X1 over the cmts at %s" root)
          "p2plint: clean (0 files scanned)\n"
          (Lint.Report.render_text ~files_scanned:0 violations)

(* ------------------------------------------------------------------ *)
(* The README's rule table stays in sync with the registered rule set,
   syntactic and typed alike. *)

let read_whole_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let readme_documents_every_rule () =
  match repo_root () with
  | None -> Alcotest.skip ()
  | Some root ->
      let readme = Filename.concat root "README.md" in
      if not (Sys.file_exists readme) then Alcotest.skip ()
      else
        let text = read_whole_file readme in
        List.iter
          (fun (r : Lint.Rule.t) ->
            Alcotest.(check bool)
              (Printf.sprintf "README documents %s `%s`" r.code r.id)
              true
              (contains_substring text
                 (Printf.sprintf "| %s | `%s` |" r.code r.id)))
          Lint.Rules.everything

let suite =
  [
    ( "lint:fixtures",
      [
        Alcotest.test_case "exact report over the corpus" `Quick fixtures_exact_report;
        Alcotest.test_case "negatives stay silent" `Quick fixtures_negatives_are_clean;
        Alcotest.test_case "every rule has a firing positive" `Quick fixtures_cover_every_rule;
        Alcotest.test_case "S1 selected by name" `Quick s1_selected_by_name;
      ] );
    ( "lint:determinism",
      [ Alcotest.test_case "byte-identical re-renders" `Quick reports_are_deterministic ] );
    ( "lint:self",
      [ Alcotest.test_case "repository lints clean" `Quick repo_self_lints_clean ] );
    ( "lint:typed",
      [
        Alcotest.test_case "exact report over the P corpus" `Quick typed_fixtures_exact_report;
        Alcotest.test_case "typed negatives stay silent" `Quick typed_negatives_are_clean;
        Alcotest.test_case "every P rule has a firing positive" `Quick typed_fixtures_cover_every_rule;
        Alcotest.test_case "typed reports byte-identical" `Quick typed_reports_are_deterministic;
        Alcotest.test_case "[@hot] propagates through the call graph" `Quick typed_propagation_hot_names;
        Alcotest.test_case "library cmts lint clean" `Quick typed_repo_self_lints_clean;
        Alcotest.test_case "dead exports over the X1 corpus" `Quick dead_exports_fixture;
        Alcotest.test_case "repository exports all have users" `Quick repo_exports_all_used;
      ] );
    ( "lint:docs",
      [ Alcotest.test_case "README rule table matches the rule set" `Quick readme_documents_every_rule ] );
  ]
