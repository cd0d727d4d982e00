let rule =
  Rule.v ~code:"X1" ~id:"dead-export"
    ~summary:"an .mli value no other unit references (a test counts only for test/ code)"
    (fun _ -> [])

let scanned_dirs = [ "lib"; "bin"; "bench"; "test"; "examples" ]

let in_scope rel =
  match String.split_on_char '/' rel with
  | top :: _ :: _ -> List.mem top scanned_dirs
  | [ _ ] | [] -> false

(* A source is on the test side when the scanned directory nearest to it
   on its path is [test/]: [test/test_bib.ml] and the fixture's
   [test/lint_fixtures/dead/user.ml] are, while the fixture's
   [test/lint_fixtures/dead/lib/api.mli] stands for library code. *)
let on_test_side rel =
  List.fold_left
    (fun side part -> if List.mem part scanned_dirs then String.equal part "test" else side)
    false (String.split_on_char '/' rel)

(* A declaration's identity: the unit and number of its uid. *)
let uid_key (uid : Shape.Uid.t) =
  match uid with
  | Item { comp_unit; id } -> Some (comp_unit, id)
  | Compilation_unit _ | Internal | Predef _ -> None

(* Every value a signature declares, nested signatures included, with its
   dotted name inside the unit. *)
let rec declared ~prefix acc (sg : Typedtree.signature) =
  List.fold_left
    (fun acc (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd ->
          (prefix ^ Ident.name vd.val_id, vd.val_loc, vd.val_val.val_uid) :: acc
      | Tsig_module { md_id = Some id; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          declared ~prefix:(prefix ^ Ident.name id ^ ".") acc sg
      | _ -> acc)
    acc sg.sig_items

(* The uids of every value an implementation names that another unit
   declared, each mapped to whether some user is off the test side. *)
let add_references used ~unit ~test (str : Typedtree.structure) =
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> (
        match uid_key vd.val_uid with
        | Some ((comp_unit, _) as key) when not (String.equal comp_unit unit) ->
            if not test then Hashtbl.replace used key true
            else if not (Hashtbl.mem used key) then Hashtbl.replace used key false
        | Some _ | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str

(* A wrapped unit's dotted name: [Sim__Runner] is [Sim.Runner]. *)
let rec unit_name modname =
  let n = String.length modname in
  let rec sep i =
    if i + 1 >= n then None
    else if modname.[i] = '_' && modname.[i + 1] = '_' then Some i
    else sep (i + 1)
  in
  match sep 0 with
  | None -> modname
  | Some i -> String.sub modname 0 i ^ "." ^ unit_name (String.sub modname (i + 2) (n - i - 2))

(* The findings of one interface that its X1 suppressions leave, plus one
   finding per X1 suppression that covers none: the value it excused has
   since gained a user, or it excuses nothing at all.  Interface
   suppressions take the comment form. *)
let surviving ~known ~root ~rel raw =
  let sups =
    fst (Suppress.of_comments ~known ~rel (Engine.read_file (Filename.concat root rel)))
    |> List.filter (fun (s : Suppress.t) -> Rule.matches rule s.rule_name)
  in
  let covers sups v = Suppress.covers ~rules:[ rule ] sups v in
  let stale =
    List.filter_map
      (fun (s : Suppress.t) ->
        if List.exists (covers [ s ]) raw then None
        else
          Some
            {
              Rule.code = rule.code;
              rule_id = rule.id;
              file = rel;
              line = s.from_line;
              col = 0;
              message = "this X1 suppression covers no finding; drop it";
            })
      sups
  in
  List.filter (fun v -> not (covers sups v)) raw @ stale

let run ~known ~root ?(exclude = fun _ -> false) ~cmt_dirs () =
  let used = Hashtbl.create 4096 and seen = Hashtbl.create 256 in
  let interfaces = ref [] in
  let wanted rel =
    in_scope rel && (not (exclude rel)) && Sys.file_exists (Filename.concat root rel)
  in
  List.iter
    (fun path ->
      match Typed_engine.load_cmt path with
      | None -> ()
      | Some info -> (
          match (info.cmt_sourcefile, info.cmt_annots) with
          | Some rel, Cmt_format.Implementation str when wanted rel ->
              add_references used ~unit:info.cmt_modname ~test:(on_test_side rel) str
          | Some rel, Cmt_format.Interface sg
            when Filename.check_suffix rel ".mli" && wanted rel && not (Hashtbl.mem seen rel) ->
              Hashtbl.replace seen rel ();
              interfaces := (rel, info.cmt_modname, sg) :: !interfaces
          | _ -> ()))
    (Typed_engine.find_cmts ~suffixes:[ ".cmt"; ".cmti" ] cmt_dirs);
  List.concat_map
    (fun (rel, modname, sg) ->
      let test_side = on_test_side rel in
      declared ~prefix:"" [] sg
      |> List.filter_map (fun (name, loc, uid) ->
             let dead why =
               Some
                 (Rule.violation ~rule ~file:rel ~loc
                    (Printf.sprintf "`%s.%s` is exported but %s; drop it from the interface"
                       (unit_name modname) name why))
             in
             match Option.map (Hashtbl.find_opt used) (uid_key uid) with
             | Some None -> dead "no other compilation unit uses it"
             (* Tests count as users only of what the test side declares. *)
             | Some (Some false) when not test_side -> dead "only tests use it"
             | Some (Some _) | None -> None)
      |> List.rev
      |> surviving ~known ~root ~rel)
    !interfaces
  |> List.sort Rule.compare_violation
