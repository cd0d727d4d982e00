let default_cmt_dir = "_build/default"

(* ------------------------------------------------------------------ *)
(* Discovery.                                                          *)
(* ------------------------------------------------------------------ *)

let find_cmts ?(suffixes = [ ".cmt" ]) dirs =
  let rec walk dir acc =
    if not (Sys.file_exists dir && Sys.is_directory dir) then acc
    else
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then walk path acc
          else if List.exists (Filename.check_suffix entry) suffixes then path :: acc
          else acc)
        acc (Sys.readdir dir)
  in
  List.sort String.compare (List.fold_left (fun acc d -> walk d acc) [] dirs)

(* An unreadable or foreign-format cmt is skipped, not fatal: stale
   files from older compilers can coexist under _build. *)
let load_cmt path =
  match Cmt_format.read_cmt path with
  | info -> Some info
  | exception (Cmi_format.Error _ | Cmt_format.Error _ | Sys_error _ | End_of_file)
    ->
      None

let structure_of_cmt (info : Cmt_format.cmt_infos) =
  match (info.cmt_sourcefile, info.cmt_annots) with
  | Some src, Cmt_format.Implementation str
    when Filename.check_suffix src ".ml" ->
      Some (src, str)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-file check.                                                     *)
(* ------------------------------------------------------------------ *)

let selected_code (rules : Rule.t list) ~rel code =
  List.exists
    (fun (r : Rule.t) -> String.equal r.code code && r.applies rel)
    rules

(* Suppressions are computed lazily — only files with raw violations pay
   for a source reparse.  Malformed-suppression violations are dropped
   here: the syntactic pass already reports them as S1. *)
let surviving ~known ~root ~rel raw =
  match raw with
  | [] -> []
  | raw ->
      let path = Filename.concat root rel in
      let text = Engine.read_file path in
      let comment_sups, _ = Suppress.of_comments ~known ~rel text in
      let attr_sups =
        match Engine.parse path with
        | Ok ast -> fst (Suppress.of_ast ~known ~rel ast)
        | Error _ -> []
      in
      let sups = comment_sups @ attr_sups in
      List.filter (fun v -> not (Suppress.covers ~rules:known sups v)) raw

let check_file ~rules ~known ~root ~rel str =
  let graph = Callgraph.analyze str in
  let raw =
    List.concat_map
      (fun scope -> Typed_rules.check_scope ~rel ~graph scope)
      (Callgraph.hot_scopes graph)
  in
  let raw =
    List.filter
      (fun (v : Rule.violation) -> selected_code rules ~rel v.code)
      raw
  in
  surviving ~known ~root ~rel raw

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)
(* ------------------------------------------------------------------ *)

let run ~rules ~known ~root ?(exclude = fun _ -> false) ~cmt_dirs () =
  let seen = Hashtbl.create 64 in
  let files = ref [] and violations = ref [] in
  List.iter
    (fun cmt_path ->
      match Option.bind (load_cmt cmt_path) structure_of_cmt with
      | None -> ()
      | Some (rel, str) ->
          if
            (not (Hashtbl.mem seen rel))
            && (not (exclude rel))
            && Sys.file_exists (Filename.concat root rel)
          then begin
            Hashtbl.replace seen rel ();
            files := rel :: !files;
            violations := check_file ~rules ~known ~root ~rel str @ !violations
          end)
    (find_cmts cmt_dirs);
  ( List.sort String.compare !files,
    List.sort Rule.compare_violation !violations )

let hot_names_of_cmt path =
  match Option.bind (load_cmt path) structure_of_cmt with
  | Some (_, str) -> Ok (Callgraph.hot_names (Callgraph.analyze str))
  | None -> Error (Printf.sprintf "%s: not a readable implementation cmt" path)
