(* XML tree and printer tests, built around the paper's Fig. 1
   descriptors. *)

module Xml = Xmlkit.Xml

let d1 () =
  Xml.element "article"
    [
      Xml.element "author" [ Xml.leaf "first" "John"; Xml.leaf "last" "Smith" ];
      Xml.leaf "title" "TCP";
      Xml.leaf "conf" "SIGCOMM";
      Xml.leaf "year" "1989";
      Xml.leaf "size" "315635";
    ]

let d1_text =
  "<article><author><first>John</first><last>Smith</last></author>\
   <title>TCP</title><conf>SIGCOMM</conf><year>1989</year><size>315635</size></article>"

let fig1_fields () =
  let doc = d1 () in
  Alcotest.(check bool) "root name" true
    (match doc with Xml.Element ("article", _) -> true | _ -> false);
  Alcotest.(check int) "five fields" 5 (List.length (Xml.children doc));
  match Xml.find_child doc "author" with
  | None -> Alcotest.fail "author element missing"
  | Some author ->
      Alcotest.(check string) "first name" "John"
        (Xml.text_content (Option.get (Xml.find_child author "first")));
      Alcotest.(check string) "last name" "Smith"
        (Xml.text_content (Option.get (Xml.find_child author "last")))

let compact_print () =
  Alcotest.(check string) "compact form" d1_text (Xml.to_string (d1 ()))

let indented_print () =
  Alcotest.(check string) "two-space indentation, leaves on one line"
    "<article>\n\
    \  <author>\n\
    \    <first>John</first>\n\
    \    <last>Smith</last>\n\
    \  </author>\n\
    \  <title>TCP</title>\n\
    \  <conf>SIGCOMM</conf>\n\
    \  <year>1989</year>\n\
    \  <size>315635</size>\n\
     </article>\n"
    (Xml.to_string ~indent:true (d1 ()))

let print_entities () =
  Alcotest.(check string) "all five predefined entities"
    "<t>a &lt;b&gt; &amp; &quot;c&quot; &apos;d&apos;</t>"
    (Xml.to_string (Xml.leaf "t" "a <b> & \"c\" 'd'"))

let escaping () =
  let doc = Xml.leaf "t" "x < y & z > \"w\"" in
  Alcotest.(check string) "compact" "<t>x &lt; y &amp; z &gt; &quot;w&quot;</t>"
    (Xml.to_string doc);
  Alcotest.(check string) "indented" "<r>\n  <t>x &lt; y &amp; z &gt; &quot;w&quot;</t>\n</r>\n"
    (Xml.to_string ~indent:true (Xml.element "r" [ doc ]))

let print_self_closing () =
  Alcotest.(check string) "empty elements close themselves" "<a><b/><c/></a>"
    (Xml.to_string (Xml.element "a" [ Xml.element "b" []; Xml.element "c" [] ]))

let find_children_ordered () =
  let doc = Xml.element "r" [ Xml.leaf "x" "1"; Xml.leaf "y" "2"; Xml.leaf "x" "3" ] in
  let xs = Xml.find_children doc "x" in
  Alcotest.(check (list string)) "both x children in order" [ "1"; "3" ]
    (List.map Xml.text_content xs)

(* Descriptor identity is the descriptor's most specific query: sibling
   order does not change it, content does. *)
let canonical_ignores_sibling_order () =
  let a = Xml.element "r" [ Xml.leaf "x" "1"; Xml.leaf "y" "2" ] in
  let b = Xml.element "r" [ Xml.leaf "y" "2"; Xml.leaf "x" "1" ] in
  Alcotest.(check bool) "field order irrelevant" true
    (Xpath.equal (Xpath.of_document a) (Xpath.of_document b));
  Alcotest.(check bool) "printed forms still differ" false
    (String.equal (Xml.to_string a) (Xml.to_string b))

let canonical_distinguishes_content () =
  let a = Xml.element "r" [ Xml.leaf "x" "1" ] in
  let b = Xml.element "r" [ Xml.leaf "x" "2" ] in
  Alcotest.(check bool) "different values differ" false
    (Xpath.equal (Xpath.of_document a) (Xpath.of_document b))

let size_accounts_serialization () =
  let doc = d1 () in
  Alcotest.(check int) "size = compact serialization length" (String.length d1_text)
    (Xml.size_bytes doc)

let multi_author_article () =
  (* Articles can have several author elements; all must be reachable. *)
  let doc =
    Xml.element "article"
      [
        Xml.element "author" [ Xml.leaf "first" "A"; Xml.leaf "last" "B" ];
        Xml.element "author" [ Xml.leaf "first" "C"; Xml.leaf "last" "D" ];
        Xml.leaf "title" "T";
      ]
  in
  Alcotest.(check int) "two authors" 2 (List.length (Xml.find_children doc "author"))

let builder_equivalence () =
  let article =
    Bib.Article.make ~id:1
      ~authors:[ { Bib.Article.first = "John"; last = "Smith" } ]
      ~title:"TCP" ~conf:"SIGCOMM" ~year:1989 ~size_bytes:315635
  in
  Alcotest.(check string) "Article.to_xml prints Fig. 1's d1" d1_text
    (Xml.to_string (Bib.Article.to_xml article))

let suite =
  [
    ( "xmlkit",
      [
        Alcotest.test_case "d1 descriptor fields" `Quick fig1_fields;
        Alcotest.test_case "compact print" `Quick compact_print;
        Alcotest.test_case "indented print" `Quick indented_print;
        Alcotest.test_case "entities" `Quick print_entities;
        Alcotest.test_case "escaping" `Quick escaping;
        Alcotest.test_case "self-closing elements" `Quick print_self_closing;
        Alcotest.test_case "find_children order" `Quick find_children_ordered;
        Alcotest.test_case "canonical order-insensitive" `Quick canonical_ignores_sibling_order;
        Alcotest.test_case "canonical content-sensitive" `Quick canonical_distinguishes_content;
        Alcotest.test_case "size accounting" `Quick size_accounts_serialization;
        Alcotest.test_case "multi-author articles" `Quick multi_author_article;
        Alcotest.test_case "builder equivalence" `Quick builder_equivalence;
      ] );
  ]
