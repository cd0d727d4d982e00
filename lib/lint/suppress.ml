type t = { rule_name : string; from_line : int; to_line : int }

let bad_suppression_code = "S1"
let bad_suppression_id = "bad-suppression"

(* The engines report malformed suppressions while they collect them;
   the rule's own check is a no-op. *)
let rule =
  Rule.v ~code:bad_suppression_code ~id:bad_suppression_id
    ~summary:"suppressions naming unknown rules or lacking a justification" (fun _ -> [])

let bad ~rel ~line ~col message =
  {
    Rule.code = bad_suppression_code;
    rule_id = bad_suppression_id;
    file = rel;
    line;
    col;
    message;
  }

let known ~rules name = List.exists (fun r -> Rule.matches r name) rules

let is_separator c = c = ' ' || c = '\t' || c = '-' || c = ':'

(* Also strip the UTF-8 em dash used as a separator in prose comments. *)
let strip_leading_separators s =
  let n = String.length s in
  let rec go i =
    if i >= n then i
    else if is_separator s.[i] then go (i + 1)
    else if i + 2 < n && s.[i] = '\xe2' && s.[i + 1] = '\x80' && s.[i + 2] = '\x94'
    then go (i + 3)
    else i
  in
  let i = go 0 in
  String.trim (String.sub s i (n - i))

(* [validate] turns "<rule> <separator> <justification>" into a suppression
   covering [from_line..to_line], or a bad-suppression violation. *)
let validate ~known:rules ~rel ~line ~col ~from_line ~to_line body =
  let body = String.trim body in
  let rule_name, rest =
    match String.index_opt body ' ' with
    | None -> (body, "")
    | Some i ->
        (String.sub body 0 i, String.sub body (i + 1) (String.length body - i - 1))
  in
  let rule_name =
    (* Allow "rule:" and "rule —" spellings. *)
    match String.index_opt rule_name ':' with
    | Some i -> String.sub rule_name 0 i
    | None -> rule_name
  in
  let justification = strip_leading_separators rest in
  if String.length rule_name = 0 then
    Error (bad ~rel ~line ~col "suppression names no rule")
  else if not (known ~rules rule_name) then
    Error (bad ~rel ~line ~col (Printf.sprintf "suppression names unknown rule %S" rule_name))
  else if String.length justification = 0 then
    Error
      (bad ~rel ~line ~col
         (Printf.sprintf
            "suppression of %S lacks a justification (write \"%s — why it is safe\")"
            rule_name rule_name))
  else Ok { rule_name; from_line; to_line }

(* ------------------------------------------------------------------ *)
(* Comment form: a single-line comment carrying the marker below followed
   by a rule name and a justification. *)

let marker = "lint: allow"

let find_sub ~start hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.equal (String.sub hay i nn) needle then Some i
    else go (i + 1)
  in
  go start

let of_comments ~known:rules ~rel text =
  let lines = String.split_on_char '\n' text in
  let _, sups, errs =
    List.fold_left
      (fun (lineno, sups, errs) line ->
        match find_sub ~start:0 line "(*" with
        | None -> (lineno + 1, sups, errs)
        | Some copen -> (
            match find_sub ~start:copen line marker with
            | None -> (lineno + 1, sups, errs)
            | Some m -> (
                let after = m + String.length marker in
                match find_sub ~start:after line "*)" with
                | None ->
                    ( lineno + 1,
                      sups,
                      bad ~rel ~line:lineno ~col:copen
                        "lint suppression comments must be single-line"
                      :: errs )
                | Some cclose -> (
                    let body = String.sub line after (cclose - after) in
                    match
                      validate ~known:rules ~rel ~line:lineno ~col:copen
                        ~from_line:lineno ~to_line:(lineno + 1) body
                    with
                    | Ok s -> (lineno + 1, s :: sups, errs)
                    | Error e -> (lineno + 1, sups, e :: errs)))))
      (1, [], []) lines
  in
  (List.rev sups, List.rev errs)

(* ------------------------------------------------------------------ *)
(* Attribute form: [@lint.allow "rule: why"] on a node, [@@@...] floating. *)

let payload_string = function
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let of_ast ~known:rules ~rel structure =
  let sups = ref [] and errs = ref [] in
  let handle_attrs ~node_loc attrs =
    List.iter
      (fun (attr : Parsetree.attribute) ->
        if String.equal attr.attr_name.txt "lint.allow" then begin
          let line = attr.attr_loc.Location.loc_start.Lexing.pos_lnum in
          let col =
            attr.attr_loc.Location.loc_start.Lexing.pos_cnum
            - attr.attr_loc.Location.loc_start.Lexing.pos_bol
          in
          let from_line, to_line =
            match node_loc with
            | Some (loc : Location.t) ->
                (loc.loc_start.Lexing.pos_lnum, loc.loc_end.Lexing.pos_lnum)
            | None -> (1, max_int) (* floating: whole file *)
          in
          match payload_string attr.attr_payload with
          | None ->
              errs :=
                bad ~rel ~line ~col
                  "[@lint.allow] expects a string payload \"rule: justification\""
                :: !errs
          | Some body -> (
              let body =
                (* Normalize "rule: why" to the shared "<rule> <why>" shape. *)
                String.map (fun c -> if c = ':' then ' ' else c) body
              in
              match
                validate ~known:rules ~rel ~line ~col ~from_line ~to_line body
              with
              | Ok s -> sups := s :: !sups
              | Error e -> errs := e :: !errs)
        end)
      attrs
  in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          handle_attrs ~node_loc:(Some e.pexp_loc) e.pexp_attributes;
          default_iterator.expr it e);
      pat =
        (fun it p ->
          handle_attrs ~node_loc:(Some p.ppat_loc) p.ppat_attributes;
          default_iterator.pat it p);
      value_binding =
        (fun it vb ->
          handle_attrs ~node_loc:(Some vb.pvb_loc) vb.pvb_attributes;
          default_iterator.value_binding it vb);
      module_binding =
        (fun it mb ->
          handle_attrs ~node_loc:(Some mb.pmb_loc) mb.pmb_attributes;
          default_iterator.module_binding it mb);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_attribute attr -> handle_attrs ~node_loc:None [ attr ]
          | Pstr_eval (_, attrs) -> handle_attrs ~node_loc:(Some si.pstr_loc) attrs
          | _ -> ());
          default_iterator.structure_item it si);
    }
  in
  it.structure it structure;
  (List.rev !sups, List.rev !errs)

let covers ~rules sups (violation : Rule.violation) =
  match List.find_opt (fun r -> String.equal r.Rule.code violation.code) rules with
  | None -> false
  | Some rule ->
      List.exists
        (fun s ->
          Rule.matches rule s.rule_name
          && (String.equal violation.code "H1" (* file-scoped rule *)
             || (violation.line >= s.from_line && violation.line <= s.to_line)))
        sups
