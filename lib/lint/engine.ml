let default_dirs = [ "lib"; "bin"; "bench"; "test" ]

let parse_error_code = "E0"
let parse_error_id = "parse-error"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One-line description of a frontend failure, without the file/line prefix
   [Location] would add (the violation carries those). *)
let exn_summary exn =
  match Location.error_of_exn exn with
  | Some (`Ok report) ->
      Format.asprintf "%a" Location.print_report report
      |> String.split_on_char '\n'
      |> List.map String.trim
      |> String.concat " "
  | Some `Already_displayed | None -> Printexc.to_string exn

let parse path =
  match Pparse.parse_implementation ~tool_name:"p2plint" path with
  | ast -> Ok ast
  | exception exn -> Error (exn_summary exn)

let lint_file ~rules ?known ~root ~rel () =
  let known = Option.value known ~default:rules in
  let path = Filename.concat root rel in
  let text = read_file path in
  let comment_sups, comment_errs = Suppress.of_comments ~known ~rel text in
  let ast, parse_violations =
    match parse path with
    | Ok ast -> (Some ast, [])
    | Error message ->
        ( None,
          [
            {
              Rule.code = parse_error_code;
              rule_id = parse_error_id;
              file = rel;
              line = 1;
              col = 0;
              message;
            };
          ] )
  in
  let attr_sups, attr_errs =
    match ast with
    | None -> ([], [])
    | Some ast -> Suppress.of_ast ~known ~rel ast
  in
  let sups = comment_sups @ attr_sups in
  let source = { Rule.path; rel; text; ast } in
  let raw =
    List.concat_map
      (fun (rule : Rule.t) -> if rule.applies rel then rule.check source else [])
      rules
  in
  let kept =
    List.filter (fun v -> not (Suppress.covers ~rules:known sups v)) raw
  in
  let bad_suppressions =
    if List.memq Suppress.rule rules then comment_errs @ attr_errs else []
  in
  List.sort Rule.compare_violation (parse_violations @ bad_suppressions @ kept)

(* ------------------------------------------------------------------ *)
(* Tree walking. *)

let is_ml name = Filename.check_suffix name ".ml"

let scan_files ~root ~dirs =
  let rec walk rel_dir acc =
    let dir = Filename.concat root rel_dir in
    if not (Sys.file_exists dir && Sys.is_directory dir) then acc
    else
      Array.fold_left
        (fun acc entry ->
          let rel = rel_dir ^ "/" ^ entry in
          let path = Filename.concat root rel in
          if Sys.is_directory path then
            (* [lint_fixtures] holds seeded-violation corpora for the lint
               tests themselves; it is a target only when passed as a root. *)
            if String.equal entry "_build" || String.equal entry "lint_fixtures"
            then acc
            else walk rel acc
          else if is_ml entry then rel :: acc
          else acc)
        acc
        (Sys.readdir dir)
  in
  List.sort String.compare (List.fold_left (fun acc d -> walk d acc) [] dirs)

let lint_tree ~rules ?known ~root ~dirs () =
  let files = scan_files ~root ~dirs in
  let violations =
    List.concat_map (fun rel -> lint_file ~rules ?known ~root ~rel ()) files
  in
  (files, List.sort Rule.compare_violation violations)
