(* The resumable lookup machine (Section IV's search, defunctionalized):
   scripted oracles prove the machine is a value that can be suspended,
   duplicated and resumed; the index drivers are checked against a manual
   drive; and the machine's wire bill is checked against the bytes the
   real network layer charges for the same walk. *)

module Xml = Xmlkit.Xml
module Index = P2pindex.Xpath_index
module Wire = P2pindex.Wire
module L = P2pindex.Lookup.Make (P2pindex.Xpath_query)

let q s = Xpath.of_string s

(* ------------------------------------------------------------------ *)
(* A scripted step oracle: a pure answer table, no index behind it. *)

let q_root = q "/article/author/last/Smith"
let q_author = q "/article/author[first/John][last/Smith]"
let msd1 = q "/article[author[first/John][last/Smith]][title/TCP]"
let msd2 = q "/article[author[first/John][last/Smith]][title/IPv6]"
let f1 = { Storage.Block_store.name = "x.pdf"; size_bytes = 10 }
let f2 = { Storage.Block_store.name = "y.pdf"; size_bytes = 20 }

let scripted ~generalization:_ query =
  let qs = Xpath.to_string query in
  if String.equal qs (Xpath.to_string q_root) then L.Children [ q_author ]
  else if String.equal qs (Xpath.to_string q_author) then L.Children [ msd1; msd2 ]
  else if String.equal qs (Xpath.to_string msd1) then L.File f1
  else if String.equal qs (Xpath.to_string msd2) then L.File f2
  else L.Not_indexed

let names files = List.sort compare (List.map (fun (_q, f) -> f.Storage.Block_store.name) files)

let scripted_search_walks_the_script () =
  let r = L.drive ~step:scripted (L.search q_root) in
  Alcotest.(check (list string)) "both files found" [ "x.pdf"; "y.pdf" ] (names r.L.files);
  Alcotest.(check int) "one interaction per probe" 4 r.L.interactions;
  (* The bill is reproducible from the wire model alone: a request per
     probe plus the estimated response for each scripted answer. *)
  let request query = Wire.request_bytes (Xpath.to_string query) in
  let expected =
    request q_root
    + L.response_estimate (L.Children [ q_author ])
    + request q_author
    + L.response_estimate (L.Children [ msd1; msd2 ])
    + request msd1
    + L.response_estimate (L.File f1)
    + request msd2
    + L.response_estimate (L.File f2)
  in
  Alcotest.(check int) "wire bill from the model" expected r.L.wire_bill

(* A suspended machine is a value: feeding the same [Need_step] two
   different answers explores two futures from one suspension point. *)
let machine_suspends_and_forks () =
  let rec to_need_step m =
    match m with
    | L.Pending r -> to_need_step (r.L.run ())
    | L.Need_step _ -> m
    | L.Done _ -> Alcotest.fail "machine finished before its first probe"
  in
  match to_need_step (L.search q_author) with
  | L.Need_step (query, k) ->
      Alcotest.(check string) "suspended on the root probe"
        (Xpath.to_string q_author) (Xpath.to_string query);
      let fed answer = L.drive ~step:scripted (k.L.feed answer) in
      let both = fed (L.Children [ msd1; msd2 ]) in
      let one = fed (L.Children [ msd1 ]) in
      Alcotest.(check (list string)) "first future sees both"
        [ "x.pdf"; "y.pdf" ] (names both.L.files);
      Alcotest.(check (list string)) "second future sees one"
        [ "x.pdf" ] (names one.L.files);
      Alcotest.(check int) "futures bill independently" 3 both.L.interactions;
      Alcotest.(check int) "shorter future bills less" 2 one.L.interactions
  | L.Pending _ | L.Done _ -> Alcotest.fail "expected a suspension"

(* ------------------------------------------------------------------ *)
(* Against the real index: the Fig. 1/4 running example. *)

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

let fig4_edges doc =
  let field name = Xml.text_content (Option.get (Xml.find_child doc name)) in
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
  [
    { P2pindex.Scheme.parent = q_last; child = q_author };
    { P2pindex.Scheme.parent = q_author; child = q_at };
    { P2pindex.Scheme.parent = q_at; child = msd };
  ]

let fig4_scheme =
  P2pindex.Scheme.make ~name:"fig4" ~edges:(fun msd ->
      let doc =
        List.find (fun doc -> Xpath.equal (Xpath.of_document doc) msd) [ d1; d2 ]
      in
      fig4_edges doc)

let make_index ?network () =
  let resolver = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:77L ~node_count:20 ()) in
  let index = Index.create ?network ~resolver () in
  let file doc name = { Storage.Block_store.name; size_bytes = Xml.size_bytes doc } in
  Index.publish index ~scheme:fig4_scheme ~msd:(Xpath.of_document d1) (file d1 "x.pdf");
  Index.publish index ~scheme:fig4_scheme ~msd:(Xpath.of_document d2) (file d2 "y.pdf");
  index

let index_step index ~generalization:_ query : L.answer =
  match Index.lookup_step index query with
  | Index.File file -> L.File file
  | Index.Children children -> L.Children children
  | Index.Not_indexed -> L.Not_indexed

(* The public driver and a manual drive of the machine must agree — the
   driver is nothing but [drive] plus instrumentation. *)
let manual_drive_equals_search () =
  let index = make_index () in
  let interactions = ref 0 in
  let driver = Index.search ~interactions index q_root in
  let manual = L.drive ~step:(index_step index) (L.search q_root) in
  Alcotest.(check (list string)) "same files" (names driver) (names manual.L.files);
  Alcotest.(check int) "same interaction count" !interactions manual.L.interactions

let manual_drive_equals_generalization () =
  let index = make_index () in
  (* Not indexed: one specialization step above the indexed author key. *)
  let q2 = q "/article[author[first/John][last/Smith]][conf/INFOCOM]" in
  let interactions = ref 0 in
  let driver = Index.search_with_generalization ~interactions index q2 in
  let manual =
    L.drive ~step:(index_step index) (L.search_with_generalization q2)
  in
  Alcotest.(check (list string)) "generalization recovers the same files"
    (names driver) (names manual.L.files);
  Alcotest.(check bool) "something was found" true (manual.L.files <> []);
  Alcotest.(check int) "same interaction count" !interactions manual.L.interactions

(* The machine's wire bill is an a-priori estimate; on a fault-free
   network it must equal the bytes the network layer actually charges. *)
let wire_bill_matches_network_billing () =
  let network = Dht.Network.create ~node_count:20 () in
  let index = make_index ~network () in
  Dht.Network.reset network;
  let r = L.drive ~step:(index_step index) (L.search q_root) in
  let billed =
    Dht.Network.bytes network Dht.Network.Request
    + Dht.Network.bytes network Dht.Network.Response
  in
  Alcotest.(check int) "estimate = actual bytes" billed r.L.wire_bill;
  Alcotest.(check bool) "the walk cost something" true (r.L.wire_bill > 0)

(* ------------------------------------------------------------------ *)
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

let suite =
  [
    ( "lookup:machine",
      [
        Alcotest.test_case "scripted search" `Quick scripted_search_walks_the_script;
        Alcotest.test_case "suspend and fork" `Quick machine_suspends_and_forks;
        Alcotest.test_case "manual drive = Index.search" `Quick manual_drive_equals_search;
        Alcotest.test_case "manual drive = generalization" `Quick
          manual_drive_equals_generalization;
        Alcotest.test_case "wire bill = network bytes" `Quick
          wire_bill_matches_network_billing;
        Alcotest.test_case "wire bytes pinned" `Quick wire_bytes_pinned;
      ] );
  ]
