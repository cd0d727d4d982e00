module Xml = Xmlkit.Xml

type axis = Child | Descendant

type test = Name of string | Prefix of string | Wildcard

type node = { axis : axis; test : test; children : node list }

type t = node list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Canonical rendering.  Normalization sorts children by this rendering,
   which makes [to_string] deterministic and injective, so the rendered
   string doubles as the DHT hashing key. *)

let axis_string = function Child -> "/" | Descendant -> "//"

let test_string = function Name n -> n | Prefix p -> p ^ "*" | Wildcard -> "*"

let rec render_node buffer n =
  Buffer.add_string buffer (test_string n.test);
  match n.children with
  | [] -> ()
  | [ only ] ->
      (* Single-child chains print inline: first/John. *)
      Buffer.add_string buffer (axis_string only.axis);
      render_node buffer only
  | many ->
      List.iter
        (fun child ->
          Buffer.add_char buffer '[';
          if child.axis = Descendant then Buffer.add_string buffer "//";
          render_node buffer child;
          Buffer.add_char buffer ']')
        many

let node_string n =
  let buffer = Buffer.create 64 in
  render_node buffer n;
  Buffer.contents buffer

let to_string q =
  let buffer = Buffer.create 64 in
  List.iter
    (fun top ->
      Buffer.add_string buffer (axis_string top.axis);
      render_node buffer top)
    q;
  Buffer.contents buffer

let pp ppf q = Format.pp_print_string ppf (to_string q)

(* ------------------------------------------------------------------ *)
(* Pattern homomorphism, used both for the covering relation and for
   normalization (a predicate subsumed by a sibling is redundant and gets
   minimized away, giving equivalent queries a unique normal form). *)

let is_prefix p s =
  String.length p <= String.length s && String.equal p (String.sub s 0 (String.length p))

let test_covers general specific =
  match (general, specific) with
  | Wildcard, (Name _ | Prefix _ | Wildcard) -> true
  | Name n, Name n' -> String.equal n n'
  | Name _, (Prefix _ | Wildcard) -> false
  | Prefix p, Name n -> is_prefix p n
  (* Prefix-vs-prefix subsumption is deliberately asymmetric: [Smi*] covers
     [Smith*] because every name starting with "Smith" also starts with
     "Smi" — the SHORTER pattern is the more general one, so the covering
     test asks whether [p] (general) is a prefix of [p'] (specific), never
     the reverse.  [Smith*] does not cover [Smi*]: "Smirnov" matches the
     latter only. *)
  | Prefix p, Prefix p' -> is_prefix p p'
  | Prefix p, Wildcard -> String.equal p ""

let rec pnode_maps_to general specific =
  test_covers general.test specific.test
  && List.for_all (fun gchild -> has_target specific gchild) general.children

and has_target specific gchild =
  match gchild.axis with
  | Child ->
      List.exists
        (fun schild -> schild.axis = Child && pnode_maps_to gchild schild)
        specific.children
  | Descendant ->
      List.exists
        (fun schild -> pnode_maps_to gchild schild || has_target schild gchild)
        specific.children

(* Does requiring sibling [keeper] (from the same parent) already imply
   sibling [candidate]?  True when [candidate] embeds into [keeper] and the
   root axes are compatible: a descendant-axis candidate is implied by any
   downward match, a child-axis one only by a child-axis keeper. *)
let sibling_subsumes ~keeper ~candidate =
  (match (candidate.axis, keeper.axis) with
  | Descendant, (Child | Descendant) -> pnode_maps_to candidate keeper || has_target keeper candidate
  | Child, Child -> pnode_maps_to candidate keeper
  | Child, Descendant -> false)

(* ------------------------------------------------------------------ *)
(* Construction and normalization. *)

let compare_nodes a b = String.compare (node_string a) (node_string b)

let minimize children =
  (* Drop any node subsumed by another remaining sibling; one at a time so
     that mutually-subsuming (equivalent) siblings leave one survivor. *)
  let rec drop_one kept = function
    | [] -> None
    | c :: rest ->
        let others = List.rev_append kept rest in
        if List.exists (fun keeper -> sibling_subsumes ~keeper ~candidate:c) others then
          Some others
        else drop_one (c :: kept) rest
  in
  let rec fixpoint children =
    match drop_one [] children with
    | Some smaller -> fixpoint smaller
    | None -> children
  in
  fixpoint children

let normalize_children children =
  let sorted = List.sort compare_nodes children in
  let rec dedup = function
    | a :: b :: rest when compare_nodes a b = 0 -> dedup (b :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  List.sort compare_nodes (minimize (dedup sorted))

let node ?(axis = Child) test children = { axis; test; children = normalize_children children }

let named ?axis n children = node ?axis (Name n) children

let value_leaf v = named v []

let query tops = normalize_children tops

let top_nodes q = q
let node_axis n = n.axis
let node_test n = n.test
let node_children n = n.children

let compare a b = String.compare (to_string a) (to_string b)
let equal a b = compare a b = 0

(* ------------------------------------------------------------------ *)
(* Parsing.  Grammar:
     query := (('/' | '//') step)+
     step  := test pred* ( ('/' | '//') step )?     -- inline chain
     pred  := '[' ('//')? step ']'
     test  := '*' | token
   Tokens may contain any characters except '/', '[', ']' and '*'. *)

type cursor = { input : string; mutable pos : int }

let peek c = if c.pos < String.length c.input then Some c.input.[c.pos] else None

let looking_at c prefix =
  let len = String.length prefix in
  c.pos + len <= String.length c.input && String.sub c.input c.pos len = prefix

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let parse_axis c =
  if looking_at c "//" then begin
    c.pos <- c.pos + 2;
    Descendant
  end
  else if looking_at c "/" then begin
    c.pos <- c.pos + 1;
    Child
  end
  else fail c "expected '/' or '//'"

let parse_test c =
  match peek c with
  | Some '*' ->
      c.pos <- c.pos + 1;
      Wildcard
  | Some _ ->
      let start = c.pos in
      let rec scan () =
        match peek c with
        | Some ('/' | '[' | ']' | '*') | None -> ()
        | Some _ ->
            c.pos <- c.pos + 1;
            scan ()
      in
      scan ();
      if c.pos = start then fail c "expected a name test";
      let name = String.trim (String.sub c.input start (c.pos - start)) in
      (* A trailing '*' turns the name into a prefix test: [Smi*]. *)
      if peek c = Some '*' then begin
        c.pos <- c.pos + 1;
        Prefix name
      end
      else Name name
  | None -> fail c "expected a name test"

let rec parse_step c =
  let test = parse_test c in
  let rec parse_preds acc =
    match peek c with
    | Some '[' ->
        c.pos <- c.pos + 1;
        let axis = if looking_at c "//" then (c.pos <- c.pos + 2; Descendant) else Child in
        let sub = parse_step c in
        let sub = { sub with axis } in
        (match peek c with
        | Some ']' -> c.pos <- c.pos + 1
        | Some _ | None -> fail c "expected ']'");
        parse_preds (sub :: acc)
    | Some _ | None -> List.rev acc
  in
  let preds = parse_preds [] in
  (* Inline chain: a '/' here continues below this step. *)
  match peek c with
  | Some '/' ->
      let axis = parse_axis c in
      let sub = parse_step c in
      node test (({ sub with axis } : node) :: preds)
  | Some _ | None -> node test preds

and parse_top c =
  let axis = parse_axis c in
  let step = parse_step c in
  { step with axis }

let of_string input =
  let trimmed = String.trim input in
  if String.equal trimmed "" then raise (Parse_error "empty query");
  let c = { input = trimmed; pos = 0 } in
  let rec loop acc =
    if c.pos >= String.length trimmed then List.rev acc
    else if looking_at c "/" then loop (parse_top c :: acc)
    else fail c "unexpected trailing content"
  in
  let tops = loop [] in
  match tops with
  | [] -> raise (Parse_error "empty query")
  | _ :: _ -> query tops

(* ------------------------------------------------------------------ *)
(* Matching: embed the pattern into a document tree. *)

let test_matches_doc test (dnode : Xml.t) =
  match (test, dnode) with
  | Wildcard, _ -> true
  | Name n, Xml.Element (n', _) -> String.equal n n'
  | Name n, Xml.Text s -> String.equal n s
  | Prefix p, Xml.Element (n', _) -> is_prefix p n'
  | Prefix p, Xml.Text s -> is_prefix p s

let rec doc_node_matches dnode pnode =
  test_matches_doc pnode.test dnode
  && List.for_all (fun child -> doc_has_embedding dnode child) pnode.children

and doc_has_embedding dnode child =
  match child.axis with
  | Child -> List.exists (fun c -> doc_node_matches c child) (Xml.children dnode)
  | Descendant ->
      List.exists
        (fun c -> doc_node_matches c child || doc_has_embedding c child)
        (Xml.children dnode)

let matches q doc =
  (* The document root is the single child of a virtual root context. *)
  let match_top top =
    match top.axis with
    | Child -> doc_node_matches doc top
    | Descendant -> doc_node_matches doc top || doc_has_embedding doc top
  in
  List.for_all match_top q

(* ------------------------------------------------------------------ *)
(* Most specific query of a descriptor: mirror the whole document. *)

let rec pattern_of_doc (dnode : Xml.t) =
  match dnode with
  | Xml.Text s -> value_leaf s
  | Xml.Element (n, children) -> named n (List.map pattern_of_doc children)

let of_document doc = query [ pattern_of_doc doc ]

(* ------------------------------------------------------------------ *)
(* Covering: homomorphism from the covering pattern into the covered one
   (pnode_maps_to / has_target above). *)

let covers general specific =
  let top_has_target gtop =
    match gtop.axis with
    | Child ->
        List.exists (fun stop -> stop.axis = Child && pnode_maps_to gtop stop) specific
    | Descendant ->
        List.exists
          (fun stop -> pnode_maps_to gtop stop || has_target stop gtop)
          specific
  in
  List.for_all top_has_target general

(* ------------------------------------------------------------------ *)
(* Generalization. *)

(* All ways of deleting exactly one leaf node from a node's subtree; each
   result is the subtree with that leaf removed, or None when the deleted
   leaf was the subtree itself. *)
let rec delete_one_leaf n =
  match n.children with
  | [] -> [ None ]
  | children ->
      let rec over_children before = function
        | [] -> []
        | child :: after ->
            let variants =
              List.map
                (fun deleted ->
                  let rebuilt =
                    match deleted with
                    | None -> List.rev_append before after
                    | Some child' -> List.rev_append before (child' :: after)
                  in
                  Some (node ~axis:n.axis n.test rebuilt))
                (delete_one_leaf child)
            in
            variants @ over_children (child :: before) after
      in
      over_children [] children

let generalizations q =
  let rec over_tops before = function
    | [] -> []
    | top :: after ->
        let variants =
          List.filter_map
            (fun deleted ->
              match deleted with
              | None ->
                  (* Deleting a whole top-level pattern: only allowed when
                     something remains. *)
                  let rest = List.rev_append before after in
                  if rest = [] then None else Some (query rest)
              | Some top' -> Some (query (List.rev_append before (top' :: after))))
            (delete_one_leaf top)
        in
        variants @ over_tops (top :: before) after
  in
  let results = over_tops [] q in
  (* Deduplicate: symmetric subtrees can yield the same generalization. *)
  List.sort_uniq compare results
