type t =
  | Element of string * t list
  | Text of string

let element name children = Element (name, children)
let leaf name value = Element (name, [ Text value ])

let children = function Element (_, c) -> c | Text _ -> []

let rec text_content = function
  | Text s -> s
  | Element (_, c) -> String.concat "" (List.map text_content c)

let find_children node wanted =
  List.filter
    (function Element (n, _) -> String.equal n wanted | Text _ -> false)
    (children node)

let find_child node wanted =
  match find_children node wanted with [] -> None | first :: _ -> Some first

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
  let rec render depth node =
    let pad () = if indent then Buffer.add_string buffer (String.make (2 * depth) ' ') in
    match node with
    | Text s ->
        pad ();
        Buffer.add_string buffer (escape s);
        if indent then Buffer.add_char buffer '\n'
    | Element (n, []) ->
        pad ();
        Buffer.add_char buffer '<';
        Buffer.add_string buffer n;
        Buffer.add_string buffer "/>";
        if indent then Buffer.add_char buffer '\n'
    | Element (n, [ Text s ]) ->
        (* Compact form for leaves: <year>1989</year>. *)
        pad ();
        Buffer.add_char buffer '<';
        Buffer.add_string buffer n;
        Buffer.add_char buffer '>';
        Buffer.add_string buffer (escape s);
        Buffer.add_string buffer "</";
        Buffer.add_string buffer n;
        Buffer.add_char buffer '>';
        if indent then Buffer.add_char buffer '\n'
    | Element (n, c) ->
        pad ();
        Buffer.add_char buffer '<';
        Buffer.add_string buffer n;
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
