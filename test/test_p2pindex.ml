(* Core index-layer tests over the generic XPath instance, built on the
   paper's running example: the Fig. 1 descriptors, the Fig. 4 indexing
   scheme, and the Fig. 5/6 distributed indexes. *)

module Xml = Xmlkit.Xml
module Index = P2pindex.Xpath_index
module Scheme = P2pindex.Scheme
module Wire = P2pindex.Wire

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

let msd1 = Xpath.of_document d1
let msd2 = Xpath.of_document d2
let msd3 = Xpath.of_document d3

let q s = Xpath.of_string s

(* The Fig. 4 hierarchical indexing scheme, expressed as edges per document:
   last name -> author -> (author, title) -> MSD on one side, and
   conference / year -> (conference, year) -> MSD on the other. *)
let fig4_edges doc =
  let field name =
    match Xml.find_child doc name with
    | Some child -> Xml.text_content child
    | None -> invalid_arg "fig4_edges: missing field"
  in
  let author = Option.get (Xml.find_child doc "author") in
  let first = Xml.text_content (Option.get (Xml.find_child author "first")) in
  let last = Xml.text_content (Option.get (Xml.find_child author "last")) in
  let msd = Xpath.of_document doc in
  let q_last = q (Printf.sprintf "/article/author/last/%s" last) in
  let q_author = q (Printf.sprintf "/article/author[first/%s][last/%s]" first last) in
  let q_at =
    q
      (Printf.sprintf "/article[author[first/%s][last/%s]][title/%s]" first last
         (field "title"))
  in
  let q_title = q (Printf.sprintf "/article/title/%s" (field "title")) in
  let q_conf = q (Printf.sprintf "/article/conf/%s" (field "conf")) in
  let q_year = q (Printf.sprintf "/article/year/%s" (field "year")) in
  let q_cy =
    q (Printf.sprintf "/article[conf/%s][year/%s]" (field "conf") (field "year"))
  in
  [
    { Scheme.parent = q_last; child = q_author };
    { Scheme.parent = q_author; child = q_at };
    { Scheme.parent = q_title; child = q_at };
    { Scheme.parent = q_at; child = msd };
    { Scheme.parent = q_conf; child = q_cy };
    { Scheme.parent = q_year; child = q_cy };
    { Scheme.parent = q_cy; child = msd };
  ]

let fig4_scheme =
  Scheme.make ~name:"fig4" ~edges:(fun msd ->
      (* Recover the document from its most specific query by matching
         against the known corpus — fine for a three-document test. *)
      let doc =
        List.find (fun doc -> Xpath.equal (Xpath.of_document doc) msd) [ d1; d2; d3 ]
      in
      fig4_edges doc)

let file_of doc name = { Storage.Block_store.name; size_bytes = Xml.size_bytes doc }

let make_index ?network ?(docs = [ (d1, "x.pdf"); (d2, "y.pdf"); (d3, "z.pdf") ]) () =
  let resolver = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:77L ~node_count:20 ()) in
  let rpc = Option.map (fun network -> Dht.Rpc.create ~network ()) network in
  let index = Index.create ?rpc ~resolver () in
  List.iter
    (fun (doc, name) ->
      Index.publish index ~scheme:fig4_scheme ~msd:(Xpath.of_document doc) (file_of doc name))
    docs;
  index

let q6 = q "/article/author/last/Smith"
let q3 = q "/article/author[first/John][last/Smith]"
let q4 = q "/article/title/TCP"
let q5 = q "/article/conf/INFOCOM"
let q2 = q "/article[author[first/John][last/Smith]][conf/INFOCOM]"

let names results = List.sort compare (List.map (fun (_q, f) -> f.Storage.Block_store.name) results)

let lookup_step_cases () =
  let index = make_index () in
  (match Index.lookup_step index q6 with
  | Index.Children [ child ] ->
      Alcotest.(check string) "q6 resolves to q3" (Xpath.to_string q3) (Xpath.to_string child)
  | Index.Children _ | Index.File _ | Index.Not_indexed ->
      Alcotest.fail "q6 should map to exactly q3");
  (match Index.lookup_step index q3 with
  | Index.Children children -> Alcotest.(check int) "q3 has two articles" 2 (List.length children)
  | Index.File _ | Index.Not_indexed -> Alcotest.fail "q3 should have children");
  (match Index.lookup_step index msd1 with
  | Index.File f -> Alcotest.(check string) "msd1 is the file" "x.pdf" f.Storage.Block_store.name
  | Index.Children _ | Index.Not_indexed -> Alcotest.fail "msd1 should return the file");
  match Index.lookup_step index q2 with
  | Index.Not_indexed -> ()
  | Index.File _ | Index.Children _ -> Alcotest.fail "q2 is not indexed"

let search_follows_fig3_paths () =
  let index = make_index () in
  Alcotest.(check (list string)) "q6 finds Smith's articles" [ "x.pdf"; "y.pdf" ]
    (names (Index.search index q6));
  Alcotest.(check (list string)) "q5 finds the INFOCOM articles" [ "y.pdf"; "z.pdf" ]
    (names (Index.search index q5));
  Alcotest.(check (list string)) "q4 finds the TCP article" [ "x.pdf" ]
    (names (Index.search index q4));
  Alcotest.(check (list string)) "msd lookup is direct" [ "z.pdf" ]
    (names (Index.search index msd3))

let search_counts_interactions () =
  let index = make_index () in
  let interactions = ref 0 in
  (* q6 -> q3 -> two (author,title) queries -> two MSDs: 1 + 1 + 2 + 2. *)
  ignore (Index.search ~interactions index q6);
  Alcotest.(check int) "interaction count along q6" 6 !interactions

let search_respects_max_results () =
  let index = make_index () in
  let results = Index.search ~max_results:1 index q6 in
  Alcotest.(check int) "stops at one" 1 (List.length results)

let generalization_recovers_q2 () =
  (* q2 = John Smith at INFOCOM is a valid query for d2 but appears in no
     index (Section IV-B's example): generalization must still find d2, and
     only d2. *)
  let index = make_index () in
  let interactions = ref 0 in
  let results = Index.search_with_generalization ~interactions index q2 in
  Alcotest.(check (list string)) "exactly d2" [ "y.pdf" ] (names results);
  Alcotest.(check bool) "costs extra interactions" true (!interactions > 3)

let generalization_of_indexed_query_is_plain_search () =
  let index = make_index () in
  Alcotest.(check (list string)) "same result as search" [ "x.pdf"; "y.pdf" ]
    (names (Index.search_with_generalization index q6))

let generalization_budget_respected () =
  let index = make_index () in
  (* A hopeless query with a budget of zero probes finds nothing. *)
  let impossible = q "/article[conf/NOSUCH][year/1234]" in
  Alcotest.(check int) "no results under zero budget" 0
    (List.length (Index.search_with_generalization ~generalization_budget:0 index impossible))

let covering_violation_rejected () =
  let index = make_index () in
  (* q4 (title TCP) does not cover q5 (conf INFOCOM). *)
  match Index.insert_mapping index ~parent:q4 ~child:q5 with
  | _ -> Alcotest.fail "expected Covering_violation"
  | exception Index.Covering_violation { parent; child } ->
      Alcotest.(check string) "parent" (Xpath.to_string q4) parent;
      Alcotest.(check string) "child" (Xpath.to_string q5) child

let duplicate_mapping_not_inserted () =
  let index = make_index () in
  Alcotest.(check bool) "existing mapping not re-added" false
    (Index.insert_mapping index ~parent:q6 ~child:q3);
  (* (year ; msd2) is covered but not installed by the Fig. 4 scheme. *)
  Alcotest.(check bool) "new mapping added" true
    (Index.insert_mapping index ~parent:(q "/article/year/1996") ~child:msd2)

let shortcut_mapping_allowed () =
  (* Section IV-C: a (q6 ; d1) entry can be added to short-circuit the
     hierarchy for a popular file. *)
  let index = make_index () in
  Alcotest.(check bool) "shortcut accepted" true
    (Index.insert_mapping index ~parent:q6 ~child:msd1);
  match Index.lookup_step index q6 with
  | Index.Children children -> Alcotest.(check int) "q6 now has two children" 2 (List.length children)
  | Index.File _ | Index.Not_indexed -> Alcotest.fail "q6 should have children"

let unpublish_cleans_up () =
  let index = make_index () in
  let before = Index.mapping_count index in
  Index.unpublish index ~scheme:fig4_scheme ~msd:msd1;
  Alcotest.(check (list string)) "d1 gone from q6 paths" [ "y.pdf" ]
    (names (Index.search index q6));
  Alcotest.(check (list string)) "title index emptied" []
    (names (Index.search index q4));
  (match Index.lookup_step index q4 with
  | Index.Not_indexed -> ()
  | Index.File _ | Index.Children _ -> Alcotest.fail "q4 should be cleaned up");
  (* Shared entries (q6 -> q3) survive because d2 still needs them. *)
  (match Index.lookup_step index q6 with
  | Index.Children [ _ ] -> ()
  | Index.Children _ | Index.File _ | Index.Not_indexed ->
      Alcotest.fail "q6 -> q3 must survive");
  Alcotest.(check bool) "mappings decreased" true (Index.mapping_count index < before);
  (* d2 and d3 still fully reachable. *)
  Alcotest.(check (list string)) "q5 unaffected" [ "y.pdf"; "z.pdf" ]
    (names (Index.search index q5))

let unpublish_everything_leaves_empty_index () =
  let index = make_index () in
  Index.unpublish index ~scheme:fig4_scheme ~msd:msd1;
  Index.unpublish index ~scheme:fig4_scheme ~msd:msd2;
  Index.unpublish index ~scheme:fig4_scheme ~msd:msd3;
  Alcotest.(check int) "no mappings left" 0 (Index.mapping_count index);
  Alcotest.(check int) "no files left" 0 (Index.file_count index)

let traffic_accounting () =
  let network = Dht.Network.create ~node_count:20 () in
  let index = make_index ~network () in
  let publish_traffic = Dht.Network.bytes network Dht.Network.Maintenance in
  Alcotest.(check bool) "publishing billed as maintenance" true (publish_traffic > 0);
  Dht.Network.reset network;
  ignore (Index.search index q6);
  let requests = Dht.Network.bytes network Dht.Network.Request in
  let responses = Dht.Network.bytes network Dht.Network.Response in
  Alcotest.(check bool) "requests billed" true (requests > 0);
  Alcotest.(check bool) "responses billed" true (responses > 0);
  Alcotest.(check int) "six lookups" 6 (Dht.Network.messages network Dht.Network.Request);
  (* Touches mirror request count. *)
  Alcotest.(check int) "touch per interaction" 6
    (Array.fold_left ( + ) 0 (Dht.Network.touches network))

let storage_accounting () =
  let index = make_index () in
  (* 7 edges per document = 21, minus the shared (q6 ; q3) entry of d1/d2
     and the shared conference/year -> (INFOCOM, 1996) entries of d2/d3 —
     "coarse-level indexes are shared by many data items" (Section IV-D). *)
  Alcotest.(check int) "shared coarse entries deduplicated" 18 (Index.mapping_count index);
  Alcotest.(check int) "three files" 3 (Index.file_count index);
  Alcotest.(check bool) "index bytes positive" true (Index.index_bytes index > 0);
  let entries = Array.fold_left ( + ) 0 (Index.entries_per_node index) in
  Alcotest.(check int) "entries = mappings + files" (18 + 3) entries

let wire_model_consistency () =
  Alcotest.(check int) "request = header + query" (Wire.header_bytes + 3)
    (Wire.request_bytes "abc");
  Alcotest.(check int) "empty response is a bare header" Wire.header_bytes
    (Wire.response_bytes []);
  Alcotest.(check bool) "response grows with entries" true
    (Wire.response_bytes [ "a"; "b" ] > Wire.response_bytes [ "a" ]);
  Alcotest.(check bool) "stored entry accounts key + target" true
    (Wire.stored_entry_bytes_of_len (String.length "abc") = 23)

(* Search bytes come from the wire model alone: on a fault-free network
   every probe of a search is billed its request plus the response its
   answer carries, and nothing else. *)
let search_bytes_match_wire_model () =
  let network = Dht.Network.create ~node_count:20 () in
  let index = make_index ~network ~docs:[ (d1, "x.pdf"); (d2, "y.pdf") ] () in
  Dht.Network.reset network;
  let interactions = ref 0 in
  ignore (Index.search ~interactions index q6);
  let at title = q (Printf.sprintf "/article[author[first/John][last/Smith]][title/%s]" title) in
  let children qs = Wire.response_bytes (List.map Xpath.to_string qs) in
  (* The walk: q6 -> q3 -> the two (author, title) queries -> the MSDs. *)
  let probes =
    [
      (q6, children [ q3 ]);
      (q3, children [ at "TCP"; at "IPv6" ]);
      (at "TCP", children [ msd1 ]);
      (at "IPv6", children [ msd2 ]);
      (msd1, Wire.file_response_bytes (file_of d1 "x.pdf"));
      (msd2, Wire.file_response_bytes (file_of d2 "y.pdf"));
    ]
  in
  Alcotest.(check int) "one interaction per probe" (List.length probes) !interactions;
  let expected =
    List.fold_left
      (fun sum (query, response) -> sum + Wire.request_bytes (Xpath.to_string query) + response)
      0 probes
  in
  Alcotest.(check int) "request + response bytes = wire model" expected
    (Dht.Network.bytes network Dht.Network.Request
    + Dht.Network.bytes network Dht.Network.Response)

(* Wire model: one pinned constant per message kind, so a drive-by edit
   to the byte model cannot slip through as a silent traffic shift. *)

let wire_bytes_pinned () =
  Alcotest.(check int) "header" 48 Wire.header_bytes;
  Alcotest.(check int) "entry overhead" 4 Wire.entry_overhead_bytes;
  Alcotest.(check int) "request = header + query" 51 (Wire.request_bytes "abc");
  Alcotest.(check int) "empty response = bare header" 48 (Wire.response_bytes []);
  Alcotest.(check int) "response = header + per-entry overhead + strings" 61
    (Wire.response_bytes [ "ab"; "cde" ]);
  Alcotest.(check int) "file response = header + overhead + name + size field" 65
    (Wire.file_response_bytes { Storage.Block_store.name = "x.pdf"; size_bytes = 1 });
  Alcotest.(check int) "cache install = header + 2 overheads + both keys" 59
    (Wire.cache_install_bytes "ab" "c");
  Alcotest.(check int) "stored entry = fixed cost + key" 24
    (Wire.stored_entry_bytes_of_len (String.length "abcd"));
  Alcotest.(check int) "length-priced response = string-priced response" 61
    (Wire.response_bytes_of_len ~len:Fun.id [ 2; 3 ]);
  Alcotest.(check int) "length-priced install = string-priced install" 59
    (Wire.cache_install_bytes_of_len 2 1);
  Alcotest.(check int) "consult ticket = header + query" 50 (Wire.consult_bytes "ab")

let key_of_query_deterministic () =
  let k1 = Index.key_of_query q6 in
  let k2 = Index.key_of_query (q "/article/author/last/Smith") in
  Alcotest.(check string) "same canonical query, same key" (Hashing.Key.to_hex k1)
    (Hashing.Key.to_hex k2)

(* ------------------------------------------------------------------ *)
(* Interactive sessions. *)

module Session = P2pindex.Session.Make (P2pindex.Xpath_query) (Index)

let session_walks_the_hierarchy () =
  let index = make_index () in
  let session = Session.start index q6 in
  Alcotest.(check int) "one option at q6" 1 (List.length (Session.options session));
  Alcotest.(check int) "one interaction so far" 1 (Session.interactions session);
  let _ = Session.refine_nth session 0 in
  Alcotest.(check int) "two articles under q3" 2 (List.length (Session.options session));
  let _ = Session.refine_nth session 0 in
  let _ = Session.refine_nth session 0 in
  (match Session.file session with
  | Some _ -> ()
  | None -> Alcotest.fail "descending three times reaches a file");
  Alcotest.(check int) "four interactions" 4 (Session.interactions session);
  Alcotest.(check int) "depth four" 4 (Session.depth session);
  Alcotest.(check int) "one file discovered" 1 (List.length (Session.discovered session))

let session_back_and_explore () =
  let index = make_index () in
  let session = Session.start index q6 in
  let _ = Session.refine_nth session 0 in
  let _ = Session.refine_nth session 0 in
  Alcotest.(check bool) "back succeeds" true (Session.back session <> None);
  Alcotest.(check int) "depth back to two" 2 (Session.depth session);
  let found = Session.explore_all session in
  Alcotest.(check int) "exploring q3 finds both Smith articles" 2 (List.length found);
  Alcotest.(check int) "both recorded" 2 (List.length (Session.discovered session));
  (* Backing past the root is refused. *)
  ignore (Session.back session);
  Alcotest.(check (option reject)) "cannot back past the root" None
    (Option.map (fun _ -> ()) (Session.back session))

let session_rejects_foreign_choice () =
  let index = make_index () in
  let session = Session.start index q6 in
  Alcotest.check_raises "option must come from the result set" Session.No_such_option
    (fun () -> ignore (Session.refine session q5));
  Alcotest.check_raises "index out of range" Session.No_such_option (fun () ->
      ignore (Session.refine_nth session 5))

let session_dead_end () =
  let index = make_index () in
  let session = Session.start index q2 in
  Alcotest.(check bool) "non-indexed query is a dead end" true
    (Session.at_dead_end session)

let session_trail_and_explore_accounting () =
  let index = make_index () in
  let session = Session.start index q6 in
  let _ = Session.refine_nth session 0 in
  Alcotest.(check int) "trail lists root first" 2 (List.length (Session.trail session));
  (match Session.trail session with
  | [ root; current ] ->
      Alcotest.(check string) "root is q6" (Xpath.to_string q6) (Xpath.to_string root);
      Alcotest.(check string) "current is q3" (Xpath.to_string q3) (Xpath.to_string current)
  | _ -> Alcotest.fail "unexpected trail");
  (* explore_all bills its lookups into the session's interaction count. *)
  let before = Session.interactions session in
  let found = Session.explore_all session in
  Alcotest.(check int) "two files" 2 (List.length found);
  (* Two (author,title) options, each 1 lookup + 1 MSD fetch. *)
  Alcotest.(check int) "explore adds four interactions" (before + 4)
    (Session.interactions session)

let store_file_replaces () =
  let index = make_index () in
  Index.store_file index ~msd:msd1 { Storage.Block_store.name = "v2.pdf"; size_bytes = 7 };
  match Index.lookup_step index msd1 with
  | Index.File f -> Alcotest.(check string) "replaced payload" "v2.pdf" f.Storage.Block_store.name
  | Index.Children _ | Index.Not_indexed -> Alcotest.fail "file expected"

let wire_install_and_file_sizes () =
  Alcotest.(check int) "cache install = header + 2 prefixes + strings"
    (Wire.header_bytes + (2 * Wire.entry_overhead_bytes) + 5)
    (Wire.cache_install_bytes "ab" "cde");
  let file = { Storage.Block_store.name = "x.pdf"; size_bytes = 123 } in
  Alcotest.(check int) "file response = header + prefix + name + 8"
    (Wire.header_bytes + Wire.entry_overhead_bytes + 5 + 8)
    (Wire.file_response_bytes file)

let suite =
  [
    ( "p2pindex:lookup",
      [
        Alcotest.test_case "lookup_step cases" `Quick lookup_step_cases;
        Alcotest.test_case "search follows Fig. 3 paths" `Quick search_follows_fig3_paths;
        Alcotest.test_case "search counts interactions" `Quick search_counts_interactions;
        Alcotest.test_case "search max_results" `Quick search_respects_max_results;
        Alcotest.test_case "generalization recovers q2" `Quick generalization_recovers_q2;
        Alcotest.test_case "generalization on indexed query" `Quick
          generalization_of_indexed_query_is_plain_search;
        Alcotest.test_case "generalization budget" `Quick generalization_budget_respected;
      ] );
    ( "p2pindex:publication",
      [
        Alcotest.test_case "covering violations rejected" `Quick covering_violation_rejected;
        Alcotest.test_case "duplicate mappings" `Quick duplicate_mapping_not_inserted;
        Alcotest.test_case "popularity shortcuts allowed" `Quick shortcut_mapping_allowed;
        Alcotest.test_case "unpublish cleans up" `Quick unpublish_cleans_up;
        Alcotest.test_case "unpublish everything" `Quick unpublish_everything_leaves_empty_index;
      ] );
    ( "p2pindex:accounting",
      [
        Alcotest.test_case "traffic accounting" `Quick traffic_accounting;
        Alcotest.test_case "storage accounting" `Quick storage_accounting;
        Alcotest.test_case "wire model" `Quick wire_model_consistency;
        Alcotest.test_case "search bytes = wire model" `Quick search_bytes_match_wire_model;
        Alcotest.test_case "wire bytes pinned" `Quick wire_bytes_pinned;
        Alcotest.test_case "query keys deterministic" `Quick key_of_query_deterministic;
      ] );
    ( "p2pindex:session",
      [
        Alcotest.test_case "walks the hierarchy" `Quick session_walks_the_hierarchy;
        Alcotest.test_case "back and explore" `Quick session_back_and_explore;
        Alcotest.test_case "foreign choices rejected" `Quick session_rejects_foreign_choice;
        Alcotest.test_case "dead ends" `Quick session_dead_end;
        Alcotest.test_case "trail and explore accounting" `Quick
          session_trail_and_explore_accounting;
        Alcotest.test_case "store_file replaces" `Quick store_file_replaces;
        Alcotest.test_case "wire install and file sizes" `Quick wire_install_and_file_sizes;
      ] );
  ]
