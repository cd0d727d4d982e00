(* XPath subset tests, built directly on the paper's running example:
   descriptors d1-d3 (Fig. 1), queries q1-q6 (Fig. 2), and the partial
   ordering graph of Fig. 3. *)

module Xml = Xmlkit.Xml

(* Pattern size and height, read through the node accessors. *)
let node_count q =
  let rec count n = List.fold_left (fun acc c -> acc + count c) 1 (Xpath.node_children n) in
  List.fold_left (fun acc n -> acc + count n) 0 (Xpath.top_nodes q)

let depth q =
  let rec height n =
    1 + List.fold_left (fun acc c -> max acc (height c)) 0 (Xpath.node_children n)
  in
  List.fold_left (fun acc n -> max acc (height n)) 0 (Xpath.top_nodes q)

let doc_of_fields ~first ~last ~title ~conf ~year ~size =
  Xml.element "article"
    [
      Xml.element "author" [ Xml.leaf "first" first; Xml.leaf "last" last ];
      Xml.leaf "title" title;
      Xml.leaf "conf" conf;
      Xml.leaf "year" year;
      Xml.leaf "size" size;
    ]

let d1 =
  doc_of_fields ~first:"John" ~last:"Smith" ~title:"TCP" ~conf:"SIGCOMM" ~year:"1989"
    ~size:"315635"

let d2 =
  doc_of_fields ~first:"John" ~last:"Smith" ~title:"IPv6" ~conf:"INFOCOM" ~year:"1996"
    ~size:"312352"

let d3 =
  doc_of_fields ~first:"Alan" ~last:"Doe" ~title:"Wavelets" ~conf:"INFOCOM" ~year:"1996"
    ~size:"259827"

let q s = Xpath.of_string s

let q1 =
  q
    "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM][year/1989][size/315635]"

let q2 = q "/article[author[first/John][last/Smith]][conf/INFOCOM]"
let q3 = q "/article/author[first/John][last/Smith]"
let q4 = q "/article/title/TCP"
let q5 = q "/article/conf/INFOCOM"
let q6 = q "/article/author/last/Smith"

let check_matches name query doc expected =
  Alcotest.(check bool) name expected (Xpath.matches query doc)

let fig2_matching () =
  (* q1 is the most specific query for d1 and matches only d1. *)
  check_matches "q1 matches d1" q1 d1 true;
  check_matches "q1 rejects d2" q1 d2 false;
  check_matches "q1 rejects d3" q1 d3 false;
  (* q2: John Smith at INFOCOM — only d2. *)
  check_matches "q2 matches d2" q2 d2 true;
  check_matches "q2 rejects d1" q2 d1 false;
  check_matches "q2 rejects d3" q2 d3 false;
  (* q3: author John Smith — d1 and d2. *)
  check_matches "q3 matches d1" q3 d1 true;
  check_matches "q3 matches d2" q3 d2 true;
  check_matches "q3 rejects d3" q3 d3 false;
  (* q4: title TCP — only d1. *)
  check_matches "q4 matches d1" q4 d1 true;
  check_matches "q4 rejects d2" q4 d2 false;
  (* q5: conf INFOCOM — d2 and d3. *)
  check_matches "q5 matches d2" q5 d2 true;
  check_matches "q5 matches d3" q5 d3 true;
  check_matches "q5 rejects d1" q5 d1 false;
  (* q6: last name Smith — d1 and d2. *)
  check_matches "q6 matches d1" q6 d1 true;
  check_matches "q6 matches d2" q6 d2 true;
  check_matches "q6 rejects d3" q6 d3 false

let fig3_partial_order () =
  (* Fig. 3: the partial order over Fig. 2's queries.  q2 covers the MSD of
     d2, q4 covers q1 (the MSD of d1), q3 covers both q1 and q2, q5 covers
     q2 and the MSD of d3, and q6 covers q3. *)
  let covers a b = Xpath.covers a b in
  let msd2 = Xpath.of_document d2 in
  let msd3 = Xpath.of_document d3 in
  Alcotest.(check bool) "q2 covers msd(d2)" true (covers q2 msd2);
  Alcotest.(check bool) "q4 covers q1" true (covers q4 q1);
  Alcotest.(check bool) "q3 covers q2" true (covers q3 q2);
  Alcotest.(check bool) "q5 covers q2" true (covers q5 q2);
  Alcotest.(check bool) "q5 covers msd(d3)" true (covers q5 msd3);
  Alcotest.(check bool) "q6 covers q3" true (covers q6 q3);
  (* Transitivity through the graph. *)
  Alcotest.(check bool) "q6 covers q1" true (covers q6 q1);
  Alcotest.(check bool) "q3 covers q1" true (covers q3 q1);
  Alcotest.(check bool) "q6 covers msd(d2)" true (covers q6 msd2);
  (* Non-edges. *)
  Alcotest.(check bool) "q2 does not cover q1 (conference differs)" false (covers q2 q1);
  Alcotest.(check bool) "q4 does not cover q2" false (covers q4 q2);
  Alcotest.(check bool) "q5 does not cover q1" false (covers q5 q1);
  Alcotest.(check bool) "q1 does not cover q2" false (covers q1 q2);
  Alcotest.(check bool) "q3 does not cover q6" false (covers q3 q6)

let msd_of_document () =
  let msd = Xpath.of_document d1 in
  Alcotest.(check bool) "MSD matches its document" true (Xpath.matches msd d1);
  Alcotest.(check bool) "MSD rejects others" false (Xpath.matches msd d2);
  Alcotest.(check bool) "MSD equals q1" true (Xpath.equal msd q1);
  Alcotest.(check bool) "q2 covers MSD of d2" true (Xpath.covers q2 (Xpath.of_document d2))

let normalization_canonical () =
  (* Predicate order is irrelevant after normalization. *)
  let a = q "/article[conf/SIGCOMM][title/TCP]" in
  let b = q "/article[title/TCP][conf/SIGCOMM]" in
  Alcotest.(check bool) "predicate order normalized" true (Xpath.equal a b);
  Alcotest.(check string) "identical canonical strings" (Xpath.to_string a)
    (Xpath.to_string b)

let parse_print_roundtrip () =
  List.iter
    (fun query ->
      let s = Xpath.to_string query in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" s)
        true
        (Xpath.equal query (Xpath.of_string s)))
    [ q1; q2; q3; q4; q5; q6 ]

let paper_syntax_printing () =
  (* Single-child chains print inline, as the paper writes them. *)
  Alcotest.(check string) "q4 prints as a chain" "/article/title/TCP" (Xpath.to_string q4);
  Alcotest.(check string) "q6 prints as a chain" "/article/author/last/Smith"
    (Xpath.to_string q6)

let wildcard_and_descendant () =
  let anywhere_smith = q "//last/Smith" in
  check_matches "//last/Smith matches d1" anywhere_smith d1 true;
  check_matches "//last/Smith rejects d3" anywhere_smith d3 false;
  let star = q "/article/*/last/Smith" in
  check_matches "wildcard step matches" star d1 true;
  check_matches "wildcard step still filters" (q "/article/*/last/Doe") d1 false;
  let deep_star = q "/*[title/TCP]" in
  check_matches "root wildcard" deep_star d1 true;
  Alcotest.(check bool) "//last/Smith covers q6" true (Xpath.covers anywhere_smith q6);
  Alcotest.(check bool) "q6 does not cover //last/Smith" false
    (Xpath.covers q6 anywhere_smith)

let descendant_depth () =
  let doc = Xml.element "a" [ Xml.element "b" [ Xml.element "c" [ Xml.leaf "d" "v" ] ] ] in
  check_matches "//d/v deep" (q "//d/v") doc true;
  check_matches "/a//d" (q "/a//d") doc true;
  check_matches "/a/d is not deep" (q "/a/d") doc false

let prefix_tests () =
  (* Section IV-C's substring generalization: Smi* matches values starting
     with "Smi" and covers the exact queries it generalizes. *)
  let smith_prefix = q "/article/author/last/Smi*" in
  check_matches "Smi* matches Smith" smith_prefix d1 true;
  check_matches "Smi* rejects Doe" smith_prefix d3 false;
  Alcotest.(check bool) "Smi* covers q6" true (Xpath.covers smith_prefix q6);
  Alcotest.(check bool) "q6 does not cover Smi*" false (Xpath.covers q6 smith_prefix);
  Alcotest.(check bool) "S* covers Smi*" true
    (Xpath.covers (q "/article/author/last/S*") smith_prefix);
  Alcotest.(check bool) "Smi* does not cover S*" false
    (Xpath.covers smith_prefix (q "/article/author/last/S*"));
  Alcotest.(check bool) "wildcard covers prefix" true
    (Xpath.covers (q "/article/author/last/*") smith_prefix);
  (* The prefix-vs-prefix arm of [covers] is [is_prefix p p']: the shorter
     pattern is the more general one, and equal patterns cover each other.
     Pinned here because the routed prefix index relies on this
     asymmetry. *)
  Alcotest.(check bool) "equal prefixes cover each other" true
    (Xpath.covers smith_prefix (q "/article/author/last/Smi*"));
  Alcotest.(check bool) "prefix does not cover its extension's exact form" false
    (Xpath.covers (q "/article/author/last/Smith*") smith_prefix);
  Alcotest.(check string) "prefix prints with star" "/article/author/last/Smi*"
    (Xpath.to_string smith_prefix);
  Alcotest.(check bool) "prefix roundtrips" true
    (Xpath.equal smith_prefix (Xpath.of_string (Xpath.to_string smith_prefix)))

let parse_errors () =
  List.iter
    (fun input ->
      match Xpath.of_string input with
      | exception Xpath.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed query %S" input)
    [ ""; "article"; "/article["; "/article[]"; "/article]"; "/" ]

let generalizations_cover () =
  let gens = Xpath.generalizations q2 in
  Alcotest.(check bool) "q2 has generalizations" true (List.length gens > 0);
  List.iter
    (fun gen ->
      Alcotest.(check bool)
        (Printf.sprintf "%s covers q2" (Xpath.to_string gen))
        true (Xpath.covers gen q2))
    gens

let generalizations_strictly_smaller () =
  List.iter
    (fun query ->
      List.iter
        (fun gen ->
          Alcotest.(check bool) "one node fewer" true
            (node_count gen = node_count query - 1))
        (Xpath.generalizations query))
    [ q1; q2; q3 ]

let generalization_of_leaf_is_empty () =
  Alcotest.(check int) "single-node query has no generalization" 0
    (List.length (Xpath.generalizations (q "/article")))

let minimization_cases () =
  (* A predicate subsumed by a sibling is redundant and normalizes away:
     equivalent expressions share one canonical form (Section III-B's
     "unique normalized format"). *)
  let redundant = q "/article[author/last/Smith][author[first/John][last/Smith]]" in
  Alcotest.(check bool) "redundant author predicate dropped" true
    (Xpath.equal redundant q3);
  Alcotest.(check string) "canonical string identical" (Xpath.to_string q3)
    (Xpath.to_string redundant);
  (* Mutually-subsuming duplicates leave one survivor. *)
  let duplicated = q "/article[title/TCP][title/TCP]" in
  Alcotest.(check bool) "duplicates collapse" true (Xpath.equal duplicated q4);
  (* Descendant subsumed by a child chain to the same shape. *)
  let deep = q "/article[//last/Smith][author/last/Smith]" in
  Alcotest.(check bool) "descendant subsumed by child path" true
    (Xpath.equal deep (q "/article/author/last/Smith"));
  (* Non-redundant predicates survive: article + two author/last/<name>
     chains of three nodes each. *)
  let both = q "/article[author/last/Smith][author/last/Doe]" in
  Alcotest.(check int) "distinct constraints kept" 7 (node_count both)

let covers_vs_matching_on_multiauthor () =
  (* A two-author document matches both authors' queries; covering between
     the queries still fails. *)
  let doc =
    Xml.element "article"
      [
        Xml.element "author" [ Xml.leaf "first" "John"; Xml.leaf "last" "Smith" ];
        Xml.element "author" [ Xml.leaf "first" "Alan"; Xml.leaf "last" "Doe" ];
        Xml.leaf "title" "Joint";
      ]
  in
  check_matches "first author matches" q3 doc true;
  check_matches "second author matches" (q "/article/author[first/Alan][last/Doe]") doc true;
  Alcotest.(check bool) "queries do not cover each other" false
    (Xpath.covers q3 (q "/article/author[first/Alan][last/Doe]"));
  (* The MSD of the multi-author doc is covered by both. *)
  let msd = Xpath.of_document doc in
  Alcotest.(check bool) "both cover the msd" true
    (Xpath.covers q3 msd && Xpath.covers (q "/article/author[first/Alan][last/Doe]") msd)

let depth_and_count () =
  Alcotest.(check int) "q4 depth" 3 (depth q4);
  Alcotest.(check int) "q4 nodes" 3 (node_count q4);
  (* q1 mirrors d1: article + author/first/John/last/Smith + the four
     leaf fields with their values = 14 pattern nodes. *)
  Alcotest.(check int) "q1 nodes" 14 (node_count q1)

(* Property: covering is sound w.r.t. matching on the Fig. 1 corpus — if
   q' covers q and a document matches q, it must match q'. *)

let arbitrary_query =
  let open QCheck.Gen in
  let field =
    oneofl
      [
        "[author[first/John][last/Smith]]";
        "[author[first/Alan][last/Doe]]";
        "[author/last/Smith]";
        "[title/TCP]";
        "[title/IPv6]";
        "[title/Wavelets]";
        "[conf/SIGCOMM]";
        "[conf/INFOCOM]";
        "[year/1989]";
        "[year/1996]";
      ]
  in
  let gen =
    map
      (fun fields ->
        let fields = List.sort_uniq String.compare fields in
        Xpath.of_string ("/article" ^ String.concat "" fields))
      (list_size (int_range 0 4) field)
  in
  QCheck.make ~print:Xpath.to_string gen

let minimization_preserves_semantics =
  QCheck.Test.make ~name:"normalization preserves matching" ~count:500
    arbitrary_query (fun query ->
      (* arbitrary_query is already normalized; re-render and re-parse, then
         compare matching behaviour on the corpus. *)
      let reparsed = Xpath.of_string (Xpath.to_string query) in
      List.for_all
        (fun doc -> Xpath.matches query doc = Xpath.matches reparsed doc)
        [ d1; d2; d3 ])

let covers_consistent_with_matching =
  QCheck.Test.make ~name:"covers consistent with matching" ~count:1000
    (QCheck.pair arbitrary_query arbitrary_query)
    (fun (qa, qb) ->
      if Xpath.covers qa qb then
        List.for_all (fun doc -> (not (Xpath.matches qb doc)) || Xpath.matches qa doc)
          [ d1; d2; d3 ]
      else true)

let covers_reflexive =
  QCheck.Test.make ~name:"covers reflexive" ~count:300 arbitrary_query (fun query ->
      Xpath.covers query query)

let covers_transitive =
  QCheck.Test.make ~name:"covers transitive" ~count:1000
    (QCheck.triple arbitrary_query arbitrary_query arbitrary_query)
    (fun (a, b, c) ->
      if Xpath.covers a b && Xpath.covers b c then Xpath.covers a c else true)

let covers_antisymmetric_on_normal_forms =
  QCheck.Test.make ~name:"covers antisymmetric" ~count:1000
    (QCheck.pair arbitrary_query arbitrary_query)
    (fun (a, b) ->
      if Xpath.covers a b && Xpath.covers b a then Xpath.equal a b else true)

let generalizations_always_cover =
  QCheck.Test.make ~name:"generalizations cover the original" ~count:300 arbitrary_query
    (fun query ->
      List.for_all (fun gen -> Xpath.covers gen query) (Xpath.generalizations query))

let roundtrip_property =
  QCheck.Test.make ~name:"to_string/of_string roundtrip" ~count:300 arbitrary_query
    (fun query -> Xpath.equal query (Xpath.of_string (Xpath.to_string query)))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "xpath:paper-example",
      [
        Alcotest.test_case "Fig. 2 query matching" `Quick fig2_matching;
        Alcotest.test_case "Fig. 3 partial order" `Quick fig3_partial_order;
        Alcotest.test_case "most specific query" `Quick msd_of_document;
        Alcotest.test_case "paper-style printing" `Quick paper_syntax_printing;
      ] );
    ( "xpath:engine",
      [
        Alcotest.test_case "normalization" `Quick normalization_canonical;
        Alcotest.test_case "parse/print roundtrip" `Quick parse_print_roundtrip;
        Alcotest.test_case "wildcard and descendant" `Quick wildcard_and_descendant;
        Alcotest.test_case "descendant depth" `Quick descendant_depth;
        Alcotest.test_case "prefix tests" `Quick prefix_tests;
        Alcotest.test_case "minimization" `Quick minimization_cases;
        Alcotest.test_case "multi-author covering" `Quick covers_vs_matching_on_multiauthor;
        Alcotest.test_case "parse errors" `Quick parse_errors;
        Alcotest.test_case "generalizations cover" `Quick generalizations_cover;
        Alcotest.test_case "generalizations shrink by one" `Quick
          generalizations_strictly_smaller;
        Alcotest.test_case "leaf has no generalization" `Quick
          generalization_of_leaf_is_empty;
        Alcotest.test_case "depth and node count" `Quick depth_and_count;
      ]
      @ qcheck
          [
            covers_consistent_with_matching;
            covers_reflexive;
            covers_transitive;
            covers_antisymmetric_on_normal_forms;
            generalizations_always_cover;
            roundtrip_property;
            minimization_preserves_semantics;
          ] );
  ]
