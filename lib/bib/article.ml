module Xml = Xmlkit.Xml

type author = { first : string; last : string }

let author_equal a b = String.equal a.first b.first && String.equal a.last b.last

let compare_author a b =
  let c = String.compare a.last b.last in
  if c <> 0 then c else String.compare a.first b.first

let author_to_string a = a.first ^ " " ^ a.last

type t = {
  id : int;
  authors : author list;
  title : string;
  conf : string;
  year : int;
  size_bytes : int;
}

let make ~id ~authors ~title ~conf ~year ~size_bytes =
  (match authors with [] -> invalid_arg "Article.make: no authors" | _ :: _ -> ());
  let distinct = List.sort_uniq compare_author authors in
  if List.length distinct <> List.length authors then
    invalid_arg "Article.make: duplicate authors";
  { id; authors; title; conf; year; size_bytes }

let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id

let to_xml t =
  Xml.element "article"
    (List.map
       (fun a -> Xml.element "author" [ Xml.leaf "first" a.first; Xml.leaf "last" a.last ])
       t.authors
    @ [
        Xml.leaf "title" t.title;
        Xml.leaf "conf" t.conf;
        Xml.leaf "year" (string_of_int t.year);
        Xml.leaf "size" (string_of_int t.size_bytes);
      ])

let of_xml doc =
  let field name =
    match Xml.find_child doc name with
    | Some child -> Xml.text_content child
    | None -> invalid_arg (Printf.sprintf "Article.of_xml: missing <%s>" name)
  in
  if Xml.name doc <> Some "article" then invalid_arg "Article.of_xml: not an <article>";
  let authors =
    List.map
      (fun author_node ->
        let part name =
          match Xml.find_child author_node name with
          | Some child -> Xml.text_content child
          | None -> invalid_arg (Printf.sprintf "Article.of_xml: author missing <%s>" name)
        in
        { first = part "first"; last = part "last" })
      (Xml.find_children doc "author")
  in
  let int_field name =
    match int_of_string_opt (field name) with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Article.of_xml: <%s> is not a number" name)
  in
  make ~id:0 ~authors ~title:(field "title") ~conf:(field "conf") ~year:(int_field "year")
    ~size_bytes:(int_field "size")

let file t =
  { Storage.Block_store.name = Printf.sprintf "article-%d.pdf" t.id;
    size_bytes = t.size_bytes }

