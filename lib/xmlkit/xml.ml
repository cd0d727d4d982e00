type t =
  | Element of string * (string * string) list * t list
  | Text of string

exception Parse_error of string

let element ?(attrs = []) name children = Element (name, attrs, children)
let leaf name value = Element (name, [], [ Text value ])

let name = function Element (n, _, _) -> Some n | Text _ -> None
let children = function Element (_, _, c) -> c | Text _ -> []

let child_elements node =
  List.filter (function Element _ -> true | Text _ -> false) (children node)

let rec text_content = function
  | Text s -> s
  | Element (_, _, c) -> String.concat "" (List.map text_content c)

let find_children node wanted =
  List.filter
    (function Element (n, _, _) -> String.equal n wanted | Text _ -> false)
    (children node)

let find_child node wanted =
  match find_children node wanted with [] -> None | first :: _ -> Some first

let sorted_attrs attrs = List.sort (fun (a, _) (b, _) -> String.compare a b) attrs

let rec equal a b =
  match (a, b) with
  | Text s, Text s' -> String.equal s s'
  | Element (n, attrs, c), Element (n', attrs', c') ->
      String.equal n n'
      && List.equal
           (fun (k, v) (k', v') -> String.equal k k' && String.equal v v')
           (sorted_attrs attrs) (sorted_attrs attrs')
      && List.equal equal c c'
  | Text _, Element _ | Element _, Text _ -> false

let rec canonical_compare a b =
  match (a, b) with
  | Text s, Text s' -> String.compare s s'
  | Text _, Element _ -> -1
  | Element _, Text _ -> 1
  | Element (n, attrs, c), Element (n', attrs', c') ->
      let by_name = String.compare n n' in
      if by_name <> 0 then by_name
      else
        let by_attrs = compare (sorted_attrs attrs) (sorted_attrs attrs') in
        if by_attrs <> 0 then by_attrs
        else
          (* Children as multisets: sort both sides by this same order. *)
          let sort l = List.sort canonical_compare_memo l in
          compare_lists (sort c) (sort c')

and canonical_compare_memo a b = canonical_compare a b

and compare_lists l l' =
  match (l, l') with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: rest, x' :: rest' ->
      let c = canonical_compare x x' in
      if c <> 0 then c else compare_lists rest rest'

let escape s =
  let buffer = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buffer "&lt;"
      | '>' -> Buffer.add_string buffer "&gt;"
      | '&' -> Buffer.add_string buffer "&amp;"
      | '"' -> Buffer.add_string buffer "&quot;"
      | '\'' -> Buffer.add_string buffer "&apos;"
      | _ -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let to_string ?(indent = false) node =
  let buffer = Buffer.create 256 in
  let add_attrs attrs =
    List.iter
      (fun (k, v) -> Buffer.add_string buffer (Printf.sprintf " %s=\"%s\"" k (escape v)))
      attrs
  in
  let rec render depth node =
    let pad () = if indent then Buffer.add_string buffer (String.make (2 * depth) ' ') in
    match node with
    | Text s ->
        pad ();
        Buffer.add_string buffer (escape s);
        if indent then Buffer.add_char buffer '\n'
    | Element (n, attrs, []) ->
        pad ();
        Buffer.add_char buffer '<';
        Buffer.add_string buffer n;
        add_attrs attrs;
        Buffer.add_string buffer "/>";
        if indent then Buffer.add_char buffer '\n'
    | Element (n, attrs, [ Text s ]) ->
        (* Compact form for leaves: <year>1989</year>. *)
        pad ();
        Buffer.add_char buffer '<';
        Buffer.add_string buffer n;
        add_attrs attrs;
        Buffer.add_char buffer '>';
        Buffer.add_string buffer (escape s);
        Buffer.add_string buffer "</";
        Buffer.add_string buffer n;
        Buffer.add_char buffer '>';
        if indent then Buffer.add_char buffer '\n'
    | Element (n, attrs, c) ->
        pad ();
        Buffer.add_char buffer '<';
        Buffer.add_string buffer n;
        add_attrs attrs;
        Buffer.add_char buffer '>';
        if indent then Buffer.add_char buffer '\n';
        List.iter (render (depth + 1)) c;
        pad ();
        Buffer.add_string buffer "</";
        Buffer.add_string buffer n;
        Buffer.add_char buffer '>';
        if indent then Buffer.add_char buffer '\n'
  in
  render 0 node;
  Buffer.contents buffer

let size_bytes node = String.length (to_string node)

(* ------------------------------------------------------------------ *)
(* Parser: plain recursive descent over a cursor into the input string. *)

type cursor = { input : string; mutable pos : int }

let peek c = if c.pos < String.length c.input then Some c.input.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let rec skip_whitespace c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_whitespace c
  | Some _ | None -> ()

let looking_at c prefix =
  let len = String.length prefix in
  c.pos + len <= String.length c.input && String.sub c.input c.pos len = prefix

let expect c prefix =
  if looking_at c prefix then c.pos <- c.pos + String.length prefix
  else fail c (Printf.sprintf "expected %S" prefix)

let is_name_char ch =
  match ch with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let parse_name c =
  let start = c.pos in
  let rec scan () =
    match peek c with
    | Some ch when is_name_char ch ->
        advance c;
        scan ()
    | Some _ | None -> ()
  in
  scan ();
  if c.pos = start then fail c "expected a name";
  String.sub c.input start (c.pos - start)

let parse_entity c =
  expect c "&";
  let start = c.pos in
  let rec scan () =
    match peek c with
    | Some ';' -> String.sub c.input start (c.pos - start)
    | Some _ ->
        advance c;
        scan ()
    | None -> fail c "unterminated entity"
  in
  let entity = scan () in
  advance c;
  match entity with
  | "lt" -> '<'
  | "gt" -> '>'
  | "amp" -> '&'
  | "quot" -> '"'
  | "apos" -> '\''
  | other -> raise (Parse_error (Printf.sprintf "unknown entity &%s;" other))

let parse_quoted c =
  let quote =
    match peek c with
    | Some ('"' as q) | Some ('\'' as q) ->
        advance c;
        q
    | Some _ | None -> fail c "expected a quoted value"
  in
  let buffer = Buffer.create 16 in
  let rec scan () =
    match peek c with
    | Some ch when ch = quote -> advance c
    | Some '&' -> (
        Buffer.add_char buffer (parse_entity c);
        scan ())
    | Some ch ->
        advance c;
        Buffer.add_char buffer ch;
        scan ()
    | None -> fail c "unterminated attribute value"
  in
  scan ();
  Buffer.contents buffer

let parse_attrs c =
  let rec loop acc =
    skip_whitespace c;
    match peek c with
    | Some ch when is_name_char ch ->
        let key = parse_name c in
        skip_whitespace c;
        expect c "=";
        skip_whitespace c;
        let value = parse_quoted c in
        loop ((key, value) :: acc)
    | Some _ | None -> List.rev acc
  in
  loop []

let skip_comment c =
  expect c "<!--";
  let rec scan () =
    if looking_at c "-->" then c.pos <- c.pos + 3
    else if c.pos >= String.length c.input then fail c "unterminated comment"
    else begin
      advance c;
      scan ()
    end
  in
  scan ()

let trim_text s =
  let trimmed = String.trim s in
  if String.equal trimmed "" then None else Some trimmed

let rec parse_element c =
  expect c "<";
  let tag = parse_name c in
  let attrs = parse_attrs c in
  skip_whitespace c;
  if looking_at c "/>" then begin
    c.pos <- c.pos + 2;
    Element (tag, attrs, [])
  end
  else begin
    expect c ">";
    let children = parse_content c tag in
    Element (tag, attrs, children)
  end

and parse_content c enclosing =
  let buffer = Buffer.create 16 in
  let flush acc =
    match trim_text (Buffer.contents buffer) with
    | None ->
        Buffer.clear buffer;
        acc
    | Some s ->
        Buffer.clear buffer;
        Text s :: acc
  in
  let rec loop acc =
    if looking_at c "</" then begin
      let acc = flush acc in
      c.pos <- c.pos + 2;
      let tag = parse_name c in
      skip_whitespace c;
      expect c ">";
      if not (String.equal tag enclosing) then
        fail c (Printf.sprintf "mismatched closing tag </%s>, expected </%s>" tag enclosing);
      List.rev acc
    end
    else if looking_at c "<!--" then begin
      skip_comment c;
      loop acc
    end
    else
      match peek c with
      | Some '<' -> loop (parse_element c :: flush acc)
      | Some '&' ->
          Buffer.add_char buffer (parse_entity c);
          loop acc
      | Some ch ->
          advance c;
          Buffer.add_char buffer ch;
          loop acc
      | None -> fail c (Printf.sprintf "unterminated element <%s>" enclosing)
  in
  loop []

let skip_prolog c =
  skip_whitespace c;
  if looking_at c "<?" then begin
    let rec scan () =
      if looking_at c "?>" then c.pos <- c.pos + 2
      else if c.pos >= String.length c.input then fail c "unterminated XML declaration"
      else begin
        advance c;
        scan ()
      end
    in
    scan ()
  end;
  skip_whitespace c;
  while looking_at c "<!--" do
    skip_comment c;
    skip_whitespace c
  done

let of_string input =
  let c = { input; pos = 0 } in
  skip_prolog c;
  let root = parse_element c in
  skip_whitespace c;
  if c.pos <> String.length input then fail c "trailing content after root element";
  root
