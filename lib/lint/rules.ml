open Parsetree

(* Rules build violations directly (rather than through {!Rule.violation})
   so each check closes over its own code/id without tying the knot on the
   rule record. *)
let viol ~code ~id ~rel ~(loc : Location.t) message =
  let pos = loc.loc_start in
  {
    Rule.code;
    rule_id = id;
    file = rel;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    message;
  }

(* Run [f] over every expression of the file, collecting violations. *)
let expr_rule f (source : Rule.source) =
  match source.ast with
  | None -> []
  | Some ast ->
      let acc = ref [] in
      let open Ast_iterator in
      let it =
        {
          default_iterator with
          expr =
            (fun it e ->
              f ~rel:source.rel acc e;
              default_iterator.expr it e);
        }
      in
      it.structure it ast;
      List.rev !acc

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | _ -> None

let last_two path =
  match List.rev path with b :: a :: _ -> Some (a, b) | _ -> None

(* ------------------------------------------------------------------ *)
(* D1: ambient nondeterminism. *)

let d1_offender path =
  let joined = String.concat "." path in
  let last = List.nth path (List.length path - 1) in
  let non_last = List.filteri (fun i _ -> i < List.length path - 1) path in
  if List.mem "Random" non_last then Some joined
  else if String.equal joined "Sys.time" then Some joined
  else if String.equal joined "Unix.gettimeofday" || String.equal joined "Unix.time"
  then Some joined
  else if
    String.equal last "self_init"
    || (String.length last > 10 && Filename.check_suffix last "_self_init")
  then Some joined
  else None

let d1 =
  Rule.v ~code:"D1" ~id:"ambient-nondeterminism"
    ~summary:
      "Random.*, Sys.time, Unix.gettimeofday and *self_init outside lib/stdx/prng.ml"
    ~applies:(fun rel -> not (String.equal rel "lib/stdx/prng.ml"))
    (expr_rule (fun ~rel acc e ->
         match ident_path e with
         | None -> ()
         | Some path -> (
             match d1_offender path with
             | None -> ()
             | Some name ->
                 acc :=
                   viol ~code:"D1" ~id:"ambient-nondeterminism" ~rel ~loc:e.pexp_loc
                     (Printf.sprintf
                        "`%s` is ambient nondeterminism; thread a seeded Stdx.Prng \
                         (or a virtual clock) instead"
                        name)
                   :: !acc)))

(* ------------------------------------------------------------------ *)
(* D2: order-sensitive Hashtbl.fold / Hashtbl.iter. *)

(* Operators whose reductions are associative and commutative, so the
   bucket order cannot leak into the result.  Integer arithmetic only:
   float addition is not associative, so [+.] deliberately fails. *)
let commutative_op path =
  match path with
  | [ op ] -> List.mem op [ "+"; "*"; "land"; "lor"; "lxor"; "&&"; "||"; "max"; "min" ]
  | [ m; op ] ->
      List.mem m [ "Int"; "Int32"; "Int64"; "Nativeint"; "Bool"; "Stdlib" ]
      && List.mem op
           [ "add"; "mul"; "max"; "min"; "logand"; "logor"; "logxor"; "+"; "*"; "&&"; "||" ]
  | _ -> false

(* The conservative auto-pass: the body must combine the accumulator with a
   commutative-associative operator at every leaf (if/match branching
   allowed).  Anything else — consing, string building, I/O, calling an
   unknown function on the accumulator — fails and is flagged. *)
let rec commutative ~acc e =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident v; _ } -> String.equal v acc
  | Pexp_apply (fn, args) -> (
      match ident_path fn with
      | Some path when commutative_op path ->
          List.exists (fun (_, a) -> commutative ~acc a) args
      | Some _ | None -> false)
  | Pexp_ifthenelse (_, then_, Some else_) ->
      commutative ~acc then_ && commutative ~acc else_
  | Pexp_ifthenelse (_, then_, None) -> commutative ~acc then_
  | Pexp_match (_, cases) ->
      List.for_all (fun case -> commutative ~acc case.pc_rhs) cases
  | Pexp_constraint (e, _) -> commutative ~acc e
  | _ -> false

let rec fun_params e params =
  match e.pexp_desc with
  | Pexp_fun (Asttypes.Nolabel, None, p, body) -> fun_params body (p :: params)
  | _ -> (List.rev params, e)

let fold_auto_passes callback =
  match fun_params callback [] with
  | [ _key; _value; acc_pat ], body -> (
      match acc_pat.ppat_desc with
      | Ppat_var { txt; _ } -> commutative ~acc:txt body
      | _ -> false)
  | _ -> false

let d2 =
  Rule.v ~code:"D2" ~id:"unordered-iteration"
    ~summary:
      "Hashtbl.fold/iter whose callback is order-sensitive (use Stdx.Det_tbl)"
    (expr_rule (fun ~rel acc e ->
         match e.pexp_desc with
         | Pexp_apply (fn, args) -> (
             match ident_path fn with
             | None -> ()
             | Some path -> (
                 match last_two path with
                 | Some ("Hashtbl", "iter") ->
                     acc :=
                       viol ~code:"D2" ~id:"unordered-iteration" ~rel ~loc:e.pexp_loc
                         "Hashtbl.iter visits bindings in nondeterministic bucket \
                          order; use Stdx.Det_tbl.iter_sorted"
                       :: !acc
                 | Some ("Hashtbl", "fold") ->
                     let passes =
                       match
                         List.find_opt
                           (fun (label, _) -> label = Asttypes.Nolabel)
                           args
                       with
                       | Some (_, callback) -> fold_auto_passes callback
                       | None -> false
                     in
                     if not passes then
                       acc :=
                         viol ~code:"D2" ~id:"unordered-iteration" ~rel
                           ~loc:e.pexp_loc
                           "Hashtbl.fold visits bindings in nondeterministic \
                            bucket order and this accumulator is order-sensitive; \
                            use Stdx.Det_tbl.fold_sorted (or sorted_keys / \
                            sorted_bindings)"
                         :: !acc
                 | _ -> ()))
         | _ -> ()))

(* ------------------------------------------------------------------ *)
(* D3: physical equality and Obj.magic. *)

let d3 =
  Rule.v ~code:"D3" ~id:"phys-equal"
    ~summary:"physical equality (==/!=) and Obj.magic"
    (expr_rule (fun ~rel acc e ->
         match ident_path e with
         | Some [ ("==" | "!=") as op ] ->
             acc :=
               viol ~code:"D3" ~id:"phys-equal" ~rel ~loc:e.pexp_loc
                 (Printf.sprintf
                    "physical equality (%s) depends on value representation; use \
                     structural (dis)equality or suppress with the identity \
                     argument spelled out"
                    op)
               :: !acc
         | Some path when (match last_two path with
                          | Some ("Obj", ("magic" | "repr" | "obj")) -> true
                          | _ -> false) ->
             acc :=
               viol ~code:"D3" ~id:"phys-equal" ~rel ~loc:e.pexp_loc
                 (Printf.sprintf "`%s` defeats the type system"
                    (String.concat "." path))
               :: !acc
         | _ -> ()))

(* ------------------------------------------------------------------ *)
(* E1: catch-all exception handlers. *)

let rec catch_all_pattern p =
  match p.ppat_desc with
  | Ppat_any -> Some "_"
  | Ppat_construct ({ txt = Lident "Failure"; _ }, Some (_, arg))
    when (match arg.ppat_desc with Ppat_any -> true | _ -> false) ->
      Some "Failure _"
  | Ppat_or (a, b) -> (
      match catch_all_pattern a with
      | Some _ as found -> found
      | None -> catch_all_pattern b)
  | Ppat_alias (p, _) -> catch_all_pattern p
  | _ -> None

let e1 =
  Rule.v ~code:"E1" ~id:"catch-all-handler"
    ~summary:"try ... with _ -> and with Failure _ -> swallow errors"
    (expr_rule (fun ~rel acc e ->
         match e.pexp_desc with
         | Pexp_try (_, cases) ->
             List.iter
               (fun case ->
                 match catch_all_pattern case.pc_lhs with
                 | None -> ()
                 | Some shape ->
                     acc :=
                       viol ~code:"E1" ~id:"catch-all-handler" ~rel
                         ~loc:case.pc_lhs.ppat_loc
                         (Printf.sprintf
                            "`with %s ->` swallows unexpected exceptions; match \
                             the specific exceptions the expression can raise"
                            shape)
                       :: !acc)
               cases
         | _ -> ()))

(* ------------------------------------------------------------------ *)
(* H1: every module under lib/ carries an interface. *)

let h1 =
  Rule.v ~code:"H1" ~id:"missing-mli"
    ~summary:"every module under lib/ must have an .mli interface"
    ~applies:(fun rel -> String.starts_with ~prefix:"lib/" rel)
    (fun source ->
      if Sys.file_exists (source.path ^ "i") then []
      else
        [
          {
            Rule.code = "H1";
            rule_id = "missing-mli";
            file = source.rel;
            line = 1;
            col = 0;
            message =
              Printf.sprintf "module has no interface; add %si"
                (Filename.basename source.rel);
          };
        ])

(* ------------------------------------------------------------------ *)
(* O1: metric naming convention. *)

let name_shaped s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let lower_alnum s =
  String.length s > 0
  && String.for_all (function 'a' .. 'z' | '0' .. '9' -> true | _ -> false) s

let metric_name_error ~kind s =
  let segments = String.split_on_char '_' s in
  if List.length segments < 3 || not (List.for_all lower_alnum segments) then
    Some "must be p2pindex_<subsystem>_<name> in lower_snake_case"
  else if not (String.equal (List.hd segments) "p2pindex") then
    Some "must carry the p2pindex_ prefix"
  else
    let last = List.nth segments (List.length segments - 1) in
    match kind with
    | `Counter when not (String.equal last "total") ->
        Some "counters must end in _total"
    | `Gauge when String.equal last "total" || String.equal last "seconds" ->
        Some "gauges take no _total/_seconds unit suffix"
    | `Counter | `Gauge | `Histogram -> None

let o1 =
  Rule.v ~code:"O1" ~id:"metric-naming"
    ~summary:
      "metric registrations must match p2pindex_<subsystem>_<name>[_total|_seconds]"
    ~applies:(fun rel -> not (String.starts_with ~prefix:"test/" rel))
    (expr_rule (fun ~rel acc e ->
         match e.pexp_desc with
         | Pexp_apply (fn, args) -> (
             let kind =
               match ident_path fn with
               | None -> None
               | Some path -> (
                   match List.rev path with
                   | "counter" :: _ -> Some `Counter
                   | "gauge" :: _ -> Some `Gauge
                   | "histogram" :: _ -> Some `Histogram
                   | _ -> None)
             in
             match kind with
             | None -> ()
             | Some kind ->
                 List.iter
                   (fun (label, arg) ->
                     match (label, arg.pexp_desc) with
                     | ( Asttypes.(Nolabel | Optional _),
                         Pexp_constant (Pconst_string (s, _, _)) )
                       when name_shaped s -> (
                         match metric_name_error ~kind s with
                         | None -> ()
                         | Some why ->
                             acc :=
                               viol ~code:"O1" ~id:"metric-naming" ~rel
                                 ~loc:arg.pexp_loc
                                 (Printf.sprintf "metric name %S: %s" s why)
                               :: !acc)
                     | _ -> ())
                   args)
         | _ -> ()))

(* ------------------------------------------------------------------ *)

let all = [ d1; d2; d3; e1; h1; o1 ]
let typed = Typed_rules.stubs @ [ Dead_exports.rule ]
let everything = all @ typed

let find name = List.find_opt (fun r -> Rule.matches r name) everything
