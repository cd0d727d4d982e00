(* Bibliographic application tests: articles, field queries (and their
   equivalence with the XPath layer), the Fig. 8 schemes and the corpus
   generator. *)

module Article = Bib.Article
module Q = Bib.Bib_query
module Schemes = Bib.Schemes
module Corpus = Bib.Corpus
module Index = Bib.Bib_index

let smith = { Article.first = "John"; last = "Smith" }
let doe = { Article.first = "Alan"; last = "Doe" }

(* The paper's three running-example descriptors d1, d2, d3 (Fig. 1). *)
let d1 =
  Article.make ~id:1 ~authors:[ smith ] ~title:"TCP" ~conf:"SIGCOMM" ~year:1989
    ~size_bytes:315635

let d2 =
  Article.make ~id:2 ~authors:[ smith ] ~title:"IPv6" ~conf:"INFOCOM" ~year:1996
    ~size_bytes:312352

let d3 =
  Article.make ~id:3 ~authors:[ doe ] ~title:"Wavelets" ~conf:"INFOCOM" ~year:1996
    ~size_bytes:259827

(* Every field of an article reads back from its descriptor through the
   tree accessors. *)
let check_descriptor (a : Article.t) =
  let module Xml = Xmlkit.Xml in
  let doc = Article.to_xml a in
  let field node name = Xml.text_content (Option.get (Xml.find_child node name)) in
  Alcotest.(check bool) "root" true
    (match doc with Xml.Element ("article", _) -> true | _ -> false);
  Alcotest.(check (list string)) "authors in order"
    (List.map Article.author_to_string a.authors)
    (List.map
       (fun node -> field node "first" ^ " " ^ field node "last")
       (Xml.find_children doc "author"));
  Alcotest.(check (list string)) "fields"
    [ a.title; a.conf; string_of_int a.year; string_of_int a.size_bytes ]
    (List.map (field doc) [ "title"; "conf"; "year"; "size" ])

let article_xml_roundtrip () =
  List.iter check_descriptor [ d1; d2; d3 ];
  Alcotest.(check string) "d2 in the Fig. 1 format"
    "<article><author><first>John</first><last>Smith</last></author><title>IPv6</title>\
     <conf>INFOCOM</conf><year>1996</year><size>312352</size></article>"
    (Xmlkit.Xml.to_string (Article.to_xml d2))

let article_validation () =
  Alcotest.check_raises "no authors" (Invalid_argument "Article.make: no authors")
    (fun () ->
      ignore (Article.make ~id:1 ~authors:[] ~title:"t" ~conf:"c" ~year:2000 ~size_bytes:1));
  Alcotest.check_raises "duplicate authors"
    (Invalid_argument "Article.make: duplicate authors") (fun () ->
      ignore
        (Article.make ~id:1 ~authors:[ smith; smith ] ~title:"t" ~conf:"c" ~year:2000
           ~size_bytes:1))

let query_rendering_matches_paper () =
  Alcotest.(check string) "author query is q3"
    "/article/author[first/John][last/Smith]"
    (Q.to_string (Q.author_q smith));
  Alcotest.(check string) "title query is q4" "/article/title/TCP"
    (Q.to_string (Q.title_q "TCP"));
  Alcotest.(check string) "conf query is q5" "/article/conf/INFOCOM"
    (Q.to_string (Q.conf_q "INFOCOM"));
  Alcotest.(check string) "author+conf is q2"
    "/article[author[first/John][last/Smith]][conf/INFOCOM]"
    (Q.to_string (Q.author_conf smith "INFOCOM"));
  Alcotest.(check string) "msd of d1 is q1"
    "/article[author[first/John][last/Smith]][conf/SIGCOMM][size/315635][title/TCP][year/1989]"
    (Q.to_string (Q.msd d1))

let to_string_equals_xpath_rendering () =
  (* The canonical string of a field query must be exactly the canonical
     rendering of its XPath translation — this ties the two layers (and the
     DHT keys) together. *)
  let queries =
    [
      Q.author_q smith;
      Q.title_q "TCP";
      Q.conf_q "INFOCOM";
      Q.year_q 1996;
      Q.author_title smith "IPv6";
      Q.author_year smith 1996;
      Q.author_conf doe "INFOCOM";
      Q.conf_year "INFOCOM" 1996;
      Q.conf_year_author "INFOCOM" 1996 doe;
      Q.msd d1;
      Q.msd d2;
      Q.msd d3;
      Q.fields ();
    ]
  in
  List.iter
    (fun query ->
      Alcotest.(check string)
        (Q.to_string query)
        (Q.to_string query)
        (Xpath.to_string (Q.to_xpath query)))
    queries

let covers_agrees_with_xpath_covers () =
  let queries =
    [
      Q.author_q smith; Q.author_q doe; Q.title_q "TCP"; Q.conf_q "INFOCOM";
      Q.year_q 1996; Q.author_title smith "TCP"; Q.author_year smith 1989;
      Q.conf_year "INFOCOM" 1996; Q.msd d1; Q.msd d2; Q.msd d3; Q.fields ();
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "covers(%s, %s) agrees with XPath" (Q.to_string a) (Q.to_string b))
            (Xpath.covers (Q.to_xpath a) (Q.to_xpath b))
            (Q.covers a b))
        queries)
    queries

let matches_article_semantics () =
  Alcotest.(check bool) "author matches" true (Q.matches_article (Q.author_q smith) d1);
  Alcotest.(check bool) "author rejects" false (Q.matches_article (Q.author_q smith) d3);
  Alcotest.(check bool) "year matches d2 and d3" true
    (Q.matches_article (Q.year_q 1996) d2 && Q.matches_article (Q.year_q 1996) d3);
  Alcotest.(check bool) "author+year" true
    (Q.matches_article (Q.author_year smith 1989) d1);
  Alcotest.(check bool) "msd only matches itself" true
    (Q.matches_article (Q.msd d1) d1 && not (Q.matches_article (Q.msd d1) d2));
  Alcotest.(check bool) "empty query matches all" true (Q.matches_article (Q.fields ()) d3)

let multi_author_coverage () =
  let pair =
    Article.make ~id:9 ~authors:[ smith; doe ] ~title:"Joint" ~conf:"ICDCS" ~year:2004
      ~size_bytes:1000
  in
  Alcotest.(check bool) "either author covers the article" true
    (Q.matches_article (Q.author_q smith) pair && Q.matches_article (Q.author_q doe) pair);
  (* Different authors stay compatible — they may co-author. *)
  Alcotest.(check bool) "authors compatible" true
    (Q.compatible (Q.author_q smith) (Q.author_q doe));
  (* Single-valued fields conflict. *)
  Alcotest.(check bool) "conflicting years incompatible" false
    (Q.compatible (Q.year_q 1989) (Q.year_q 1996));
  Alcotest.(check bool) "conflicting titles incompatible" false
    (Q.compatible (Q.title_q "TCP") (Q.title_q "IPv6"))

let generalization_order () =
  (* author+year drops the year first, keeping the selective field. *)
  match Q.generalizations (Q.author_year smith 1989) with
  | first :: rest ->
      Alcotest.(check string) "author kept first"
        (Q.to_string (Q.author_q smith))
        (Q.to_string first);
      Alcotest.(check int) "then the year-only query" 1 (List.length rest)
  | [] -> Alcotest.fail "author+year must generalize"

let generalizations_cover_property =
  let arbitrary_query =
    let open QCheck.Gen in
    let author = oneofl [ smith; doe ] in
    let gen =
      frequency
        [
          (3, map Q.author_q author);
          (2, map Q.title_q (oneofl [ "TCP"; "IPv6"; "Wavelets" ]));
          (2, map Q.year_q (int_range 1985 2000));
          (1, map2 Q.author_title author (oneofl [ "TCP"; "IPv6" ]));
          (1, map2 Q.author_year author (int_range 1985 2000));
          (1, map (fun a -> Q.msd a) (oneofl [ d1; d2; d3 ]));
        ]
    in
    QCheck.make ~print:Q.to_string gen
  in
  QCheck.Test.make ~name:"bib generalizations cover their input" ~count:300 arbitrary_query
    (fun query ->
      List.for_all (fun gen -> Q.covers gen query) (Q.generalizations query))

let msd_generalization_is_all_fields () =
  match Q.generalizations (Q.msd d1) with
  | [ g ] ->
      Alcotest.(check string) "all four fields"
        "/article[author[first/John][last/Smith]][conf/SIGCOMM][title/TCP][year/1989]"
        (Q.to_string g)
  | other -> Alcotest.failf "expected one generalization, got %d" (List.length other)

let scheme_edges_satisfy_covering () =
  let articles = Corpus.generate ~seed:11L (Corpus.default_config ~article_count:50) in
  List.iter
    (fun kind ->
      Array.iter
        (fun article ->
          List.iter
            (fun { P2pindex.Scheme.parent; child } ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s covers %s" (Schemes.label kind) (Q.to_string parent)
                   (Q.to_string child))
                true (Q.covers parent child))
            (P2pindex.Scheme.edges (Schemes.scheme kind) (Q.msd article)))
        articles)
    (Schemes.all @ [ Schemes.Complex_ac ])

let scheme_chains_reach_msd () =
  let articles = Corpus.generate ~seed:13L (Corpus.default_config ~article_count:30) in
  let workload_queries (a : Article.t) =
    let x = List.hd a.authors in
    [
      Q.author_q x; Q.title_q a.title; Q.year_q a.year; Q.author_title x a.title;
      Q.conf_q a.conf; Q.conf_year a.conf a.year;
    ]
  in
  List.iter
    (fun kind ->
      Array.iter
        (fun article ->
          List.iter
            (fun query ->
              let chain = Schemes.chain_to kind article query in
              (* The chain ends at the MSD and every link is covered by its
                 predecessor. *)
              (match List.rev chain with
              | last :: _ ->
                  Alcotest.(check bool) "ends at msd" true (Q.equal last (Q.msd article))
              | [] -> Alcotest.fail "chain may not be empty");
              let rec check_links prev = function
                | [] -> ()
                | next :: rest ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%s covers %s" (Q.to_string prev) (Q.to_string next))
                      true (Q.covers prev next);
                    check_links next rest
              in
              check_links query chain)
            (workload_queries article))
        articles)
    [ Schemes.Simple; Schemes.Flat; Schemes.Complex ]

let chain_lengths_by_scheme () =
  let x = List.hd d1.Article.authors in
  let author = Q.author_q x in
  let year = Q.year_q d1.Article.year in
  Alcotest.(check int) "flat author chain" 1
    (List.length (Schemes.chain_to Schemes.Flat d1 author));
  Alcotest.(check int) "simple author chain" 2
    (List.length (Schemes.chain_to Schemes.Simple d1 author));
  Alcotest.(check int) "simple year chain" 2
    (List.length (Schemes.chain_to Schemes.Simple d1 year));
  Alcotest.(check int) "complex year chain is deeper" 3
    (List.length (Schemes.chain_to Schemes.Complex d1 year))

let chain_rejects_unindexed_shapes () =
  let x = List.hd d1.Article.authors in
  let unindexed = Q.author_year x d1.Article.year in
  Alcotest.check_raises "author+year not indexed"
    (Invalid_argument "Schemes.chain_to: query shape is not indexed by this scheme")
    (fun () -> ignore (Schemes.chain_to Schemes.Simple d1 unindexed));
  Alcotest.check_raises "mismatched query"
    (Invalid_argument "Schemes.chain_to: query does not match the article") (fun () ->
      ignore (Schemes.chain_to Schemes.Simple d1 (Q.author_q doe)))

let author_conf_only_in_complex_ac () =
  let x = List.hd d1.Article.authors in
  let ac = Q.author_conf x d1.Article.conf in
  Alcotest.check_raises "complex does not index author+conf"
    (Invalid_argument "Schemes.chain_to: query shape is not indexed by this scheme")
    (fun () -> ignore (Schemes.chain_to Schemes.Complex d1 ac));
  Alcotest.(check int) "complex+ac does" 2
    (List.length (Schemes.chain_to Schemes.Complex_ac d1 ac))

let prefix_query_semantics () =
  Alcotest.(check string) "rendering" "/article/author/last/Smi*"
    (Q.to_string (Q.author_last_prefix "Smi"));
  Alcotest.(check bool) "covers matching author query" true
    (Q.covers (Q.author_last_prefix "Smi") (Q.author_q smith));
  Alcotest.(check bool) "rejects other authors" false
    (Q.covers (Q.author_last_prefix "Smi") (Q.author_q doe));
  Alcotest.(check bool) "covers matching article" true
    (Q.covers (Q.author_last_prefix "S") (Q.msd d1));
  Alcotest.(check bool) "prefix of prefix" true
    (Q.covers (Q.author_last_prefix "S") (Q.author_last_prefix "Smi"));
  (* Agreement with the XPath engine's prefix tests. *)
  Alcotest.(check string) "xpath rendering agrees"
    (Q.to_string (Q.author_last_prefix "Smi"))
    (Xpath.to_string (Q.to_xpath (Q.author_last_prefix "Smi")));
  Alcotest.(check bool) "xpath covering agrees" true
    (Xpath.covers (Q.to_xpath (Q.author_last_prefix "Smi")) (Q.to_xpath (Q.author_q smith)));
  Alcotest.check_raises "empty prefix rejected"
    (Invalid_argument "Bib_query.author_last_prefix: empty prefix") (fun () ->
      ignore (Q.author_last_prefix ""))

let alphabetic_browsing () =
  (* Section IV-C's browsing by initial on the routed prefix scheme: the
     range index the runner publishes answers [x*] with author queries,
     and a search from each of them reaches every article with an author
     whose last name starts with x, and nothing else.  Every initial in
     the corpus is browsed. *)
  let articles = Corpus.generate ~seed:41L (Corpus.default_config ~article_count:150) in
  let resolver = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:41L ~node_count:20 ()) in
  let index = Index.create ~resolver () in
  Index.publish_corpus index ~kind:Schemes.Prefix articles;
  let entries = Sim.Runner.prefix_entries articles in
  let pindex = Prefix.Prefix_index.create ~render:Q.to_string ~resolver () in
  Prefix.Prefix_index.publish pindex entries;
  let initials =
    List.sort_uniq String.compare (List.map (fun (last, _) -> String.sub last 0 1) entries)
  in
  Alcotest.(check bool) "several initials" true (List.length initials > 1);
  List.iter
    (fun initial ->
      let browse = Q.author_last_prefix initial in
      let _, authors = Prefix.Prefix_index.query pindex ~prefix:initial in
      let results = List.concat_map (fun (_, author) -> Index.search index author) authors in
      let expected =
        Array.to_list articles
        |> List.filter (fun (a : Article.t) ->
               List.exists
                 (fun (x : Article.author) -> String.sub x.last 0 1 = initial)
                 a.authors)
      in
      Alcotest.(check bool) ("browsing finds something for " ^ initial) true (expected <> []);
      List.iter
        (fun (a : Article.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "article %d reachable via initial %s" a.id initial)
            true
            (List.exists
               (fun (_q, (f : Storage.Block_store.file)) ->
                 String.equal f.name (Article.file a).name)
               results))
        expected;
      (* And nothing else: every result is covered by the prefix query. *)
      List.iter
        (fun (found_msd, _f) ->
          Alcotest.(check bool) "result covered by prefix" true (Q.covers browse found_msd))
        results;
      (* The hashed index holds no prefix entry point: the range index
         is the only way in. *)
      Alcotest.(check int) ("no hashed entry for " ^ initial) 0
        (List.length (Index.search index browse)))
    initials

let corpus_properties () =
  let config = Corpus.default_config ~article_count:500 in
  let articles = Corpus.generate ~seed:21L config in
  Alcotest.(check int) "count" 500 (Array.length articles);
  Array.iteri
    (fun i (a : Article.t) ->
      Alcotest.(check int) "ids are ranks" (i + 1) a.id;
      Alcotest.(check bool) "1-3 authors" true
        (List.length a.authors >= 1 && List.length a.authors <= 3);
      Alcotest.(check bool) "year range" true
        (a.year >= config.first_year && a.year <= config.last_year);
      Alcotest.(check bool) "size range" true
        (a.size_bytes >= 100_000 && a.size_bytes <= 450_000))
    articles;
  let authors = Corpus.distinct_authors articles in
  Alcotest.(check bool) "authors shared across articles" true
    (List.length authors < 500 * 2);
  (* Determinism. *)
  let again = Corpus.generate ~seed:21L config in
  Alcotest.(check bool) "generation deterministic" true
    (Array.for_all2 (fun a b -> Article.equal a b && a.Article.title = b.Article.title)
       articles again)

let corpus_helpers () =
  let articles = Corpus.generate ~seed:23L (Corpus.default_config ~article_count:200) in
  let authors = Corpus.distinct_authors articles in
  Alcotest.(check bool) "sorted without duplicates" true
    (List.equal Article.author_equal authors (List.sort_uniq Article.compare_author authors));
  Array.iter
    (fun (a : Article.t) ->
      List.iter
        (fun author ->
          Alcotest.(check bool) "every author listed" true
            (List.exists (Article.author_equal author) authors))
        a.authors)
    articles

let corpus_xml_roundtrip () =
  let articles = Corpus.generate ~seed:51L (Corpus.default_config ~article_count:60) in
  Array.iter check_descriptor articles

let publish_and_search_corpus () =
  (* End-to-end through Bib_index: everything published is findable through
     every workload query shape. *)
  let articles = Corpus.generate ~seed:31L (Corpus.default_config ~article_count:100) in
  let resolver = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:31L ~node_count:20 ()) in
  List.iter
    (fun kind ->
      let index = Index.create ~resolver () in
      Index.publish_corpus index ~kind articles;
      Array.iter
        (fun (a : Article.t) ->
          let x = List.hd a.Article.authors in
          let results = Index.search index (Q.author_q x) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: author search finds article %d" (Schemes.label kind) a.id)
            true
            (List.exists
               (fun (_q, f) -> String.equal f.Storage.Block_store.name (Article.file a).name)
               results))
        articles)
    Schemes.all

(* Visit order and the generalization budget on generated queries: the
   Section V-C workload against a published corpus, pinned to the counts
   the searches have always produced.  The plain search also pins a digest
   of the file names in discovery order. *)
let generated_query_search_pinned () =
  let articles = Corpus.generate ~seed:42L (Corpus.default_config ~article_count:1000) in
  let resolver = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:42L ~node_count:50 ()) in
  let index = Index.create ~resolver () in
  Index.publish_corpus index ~kind:Schemes.Simple articles;
  let events =
    Workload.Query_gen.events (Workload.Query_gen.create ~articles ~seed:42L ()) 500
  in
  let run search =
    let interactions = ref 0 in
    let results =
      List.concat_map (fun (e : Workload.Query_gen.event) -> search ~interactions e.query) events
    in
    let names = List.map (fun (_q, f) -> f.Storage.Block_store.name) results in
    (!interactions, List.length results, Digest.to_hex (Digest.string (String.concat "," names)))
  in
  let interactions, results, _ =
    run (fun ~interactions q -> Index.search_with_generalization ~interactions index q)
  in
  Alcotest.(check (pair int int)) "search_with_generalization: interactions, results"
    (22_327, 11_024) (interactions, results);
  let interactions, results, digest =
    run (fun ~interactions q -> Index.search ~interactions index q)
  in
  Alcotest.(check (pair int int)) "search: interactions, results" (21_370, 10_962)
    (interactions, results);
  Alcotest.(check string) "search: files in discovery order" "012f5bfa74ad0b59081fa58b22fbe7d8"
    digest

(* Model-based property over random publish/unpublish sequences: afterwards
   the index must contain exactly the surviving articles, with no dead
   mapping targets left behind. *)
(* Republication replays what publication recorded, less what was
   unpublished since: a round after [unpublish] brings nothing back. *)
let republish_skips_unpublished () =
  let articles = Corpus.generate ~seed:61L (Corpus.default_config ~article_count:30) in
  let resolver = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:61L ~node_count:10 ()) in
  let index = Index.create ~ttl:1000.0 ~resolver () in
  Index.publish_corpus index ~kind:Schemes.Simple articles;
  let gone = articles.(3) in
  Index.unpublish index ~scheme:(Schemes.scheme Schemes.Simple) ~msd:(Q.msd gone);
  let files = Index.file_count index and mappings = Index.mapping_count index in
  Index.republish index;
  Alcotest.(check int) "files" files (Index.file_count index);
  Alcotest.(check int) "mappings" mappings (Index.mapping_count index);
  Alcotest.(check bool) "unpublished descriptor stays unindexed" true
    (match Index.lookup_step index (Q.msd gone) with
    | Index.Not_indexed -> true
    | Index.File _ | Index.Children _ -> false)

(* An index that records no plan has nothing to replay, and says so. *)
let republish_needs_a_plan () =
  let articles = Corpus.generate ~seed:63L (Corpus.default_config ~article_count:10) in
  let resolver = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:63L ~node_count:10 ()) in
  let index = Index.create ~resolver () in
  Index.publish_corpus index ~kind:Schemes.Simple articles;
  Alcotest.check_raises "no plan"
    (Invalid_argument "Index.republish: the index records no publication plan") (fun () ->
      Index.republish index)

(* A republish round replays what publication derived: it asks the
   scheme for no edges and renders no query.  A later batch leaves the
   plan's groups stale: the round after it derives every recorded
   document's edges once, and the round after that nothing again. *)
module Counted_query = struct
  include Q

  let renders = ref 0

  let to_string q =
    incr renders;
    Q.to_string q
end

module Counted_index = P2pindex.Index.Make (Counted_query)

let republish_derives_nothing () =
  let articles = Corpus.generate ~seed:62L (Corpus.default_config ~article_count:40) in
  let first = Array.sub articles 0 25 and second = Array.sub articles 25 15 in
  let resolver = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:62L ~node_count:10 ()) in
  let derived = ref 0 in
  let scheme =
    P2pindex.Scheme.make ~name:"counted" ~edges:(fun q ->
        incr derived;
        P2pindex.Scheme.edges (Schemes.scheme Schemes.Simple) q)
  in
  let index = Counted_index.create ~replication:3 ~ttl:30.0 ~resolver () in
  let round ~label ~derivations =
    let before = Counted_index.mapping_count index in
    derived := 0;
    Counted_query.renders := 0;
    Counted_index.republish index;
    Alcotest.(check int) (label ^ ": edges derived") derivations !derived;
    if derivations = 0 then
      Alcotest.(check int) (label ^ ": queries rendered") 0 !Counted_query.renders;
    Alcotest.(check int) (label ^ ": mappings") before (Counted_index.mapping_count index)
  in
  Counted_index.publish_batch index ~scheme ~msd:Q.msd ~file:Article.file first;
  Alcotest.(check bool) "publication derived and rendered" true
    (!derived > 0 && !Counted_query.renders > 0);
  round ~label:"after one batch" ~derivations:0;
  Counted_index.publish_batch index ~scheme ~msd:Q.msd ~file:Article.file second;
  round ~label:"after a later batch" ~derivations:(Array.length articles);
  round ~label:"next round" ~derivations:0

let publish_unpublish_invariant =
  QCheck.Test.make ~name:"publish/unpublish keeps the index clean" ~count:25
    QCheck.(pair (int_range 5 40) (list_of_size (QCheck.Gen.int_range 0 25) (int_range 0 39)))
    (fun (count, deletions) ->
      let articles = Corpus.generate ~seed:61L (Corpus.default_config ~article_count:count) in
      let resolver =
        Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:61L ~node_count:10 ())
      in
      let index = Index.create ~resolver () in
      Index.publish_corpus index ~kind:Schemes.Simple articles;
      let deleted = Hashtbl.create 16 in
      List.iter
        (fun i ->
          let a = articles.(i mod count) in
          if not (Hashtbl.mem deleted a.Article.id) then begin
            Hashtbl.add deleted a.Article.id ();
            Index.unpublish index ~scheme:(Schemes.scheme Schemes.Simple) ~msd:(Q.msd a)
          end)
        deletions;
      (* Invariant 1: every mapping target is alive (a file or further
         mappings exist under it). *)
      let clean = ref true in
      Index.iter_mappings index (fun ~parent_key:_ child ->
          let reachable =
            (match Index.lookup_step index child with
            | Index.File _ | Index.Children _ -> true
            | Index.Not_indexed -> false)
          in
          if not reachable then clean := false);
      (* Invariant 2: survivors findable, deleted articles not. *)
      let correct = ref true in
      Array.iter
        (fun (a : Article.t) ->
          let found =
            List.exists
              (fun (m, _) -> Q.equal m (Q.msd a))
              (Index.search index (Q.author_q (List.hd a.authors)))
          in
          let expected = not (Hashtbl.mem deleted a.id) in
          if found <> expected then correct := false)
        articles;
      !clean && !correct)

let arbitrary_bib_query =
  let open QCheck.Gen in
  let author = oneofl [ smith; doe ] in
  let gen =
    frequency
      [
        (3, map Q.author_q author);
        (2, map Q.title_q (oneofl [ "TCP"; "IPv6"; "Wavelets" ]));
        (2, map Q.year_q (int_range 1985 2000));
        (1, map2 Q.author_title author (oneofl [ "TCP"; "IPv6" ]));
        (1, map (fun a -> Q.msd a) (oneofl [ d1; d2; d3 ]));
        (1, map (fun c -> Q.author_last_prefix (String.make 1 c)) (oneofl [ 'S'; 'D' ]));
      ]
  in
  QCheck.make ~print:Q.to_string gen

let bib_compare_total_order =
  QCheck.Test.make ~name:"bib compare is a total order consistent with to_string"
    ~count:500
    (QCheck.triple arbitrary_bib_query arbitrary_bib_query arbitrary_bib_query)
    (fun (a, b, c) ->
      (* antisymmetry via equality of canonical strings *)
      (Q.compare a b = 0) = String.equal (Q.to_string a) (Q.to_string b)
      && (if Q.compare a b <= 0 && Q.compare b c <= 0 then Q.compare a c <= 0 else true)
      && Q.compare a b = -Q.compare b a)

let bib_covers_reflexive_transitive =
  QCheck.Test.make ~name:"bib covers reflexive and transitive" ~count:500
    (QCheck.triple arbitrary_bib_query arbitrary_bib_query arbitrary_bib_query)
    (fun (a, b, c) ->
      Q.covers a a
      && if Q.covers a b && Q.covers b c then Q.covers a c else true)

(* The historical Printf renderer, kept here only as the oracle for the
   one-pass buffer renderer: predicates rendered one by one, author
   predicates of a descriptor sorted by their rendering, then joined. *)
let printf_render q =
  let author_pred (a : Article.author) =
    Printf.sprintf "author[first/%s][last/%s]" a.first a.last
  in
  let render = function
    | [] -> "/article"
    | [ only ] -> "/article/" ^ only
    | many -> "/article[" ^ String.concat "][" many ^ "]"
  in
  match q with
  | Q.Author_last_prefix p -> "/article/author/last/" ^ p ^ "*"
  | Q.Fields f ->
      render
        (List.filter_map Fun.id
           [
             Option.map author_pred f.Q.author;
             Option.map (Printf.sprintf "conf/%s") f.Q.conf;
             Option.map (Printf.sprintf "title/%s") f.Q.title;
             Option.map (Printf.sprintf "year/%d") f.Q.year;
           ])
  | Q.Msd (article : Article.t) ->
      render
        (List.sort String.compare (List.map author_pred article.authors)
        @ [
            Printf.sprintf "conf/%s" article.conf;
            Printf.sprintf "size/%d" article.size_bytes;
            Printf.sprintf "title/%s" article.title;
            Printf.sprintf "year/%d" article.year;
          ])

(* Field values over a small alphabet that includes the rendering's own
   punctuation, so one author's first name is often a prefix of
   another's — the case where sorting rendered predicates differs from
   sorting names. *)
let renderer_query_arb =
  let open QCheck.Gen in
  let text = string_size ~gen:(oneofl [ 'a'; 'b'; 'Z'; ']'; '['; '/'; ' ' ]) (int_range 0 4) in
  let author = map2 (fun first last -> { Article.first; last }) text text in
  let opt g = option g in
  let fields =
    map4
      (fun author title conf year -> Q.Fields { Q.author; title; conf; year })
      (opt author) (opt text) (opt text)
      (opt (int_range (-50) 3000))
  in
  let msd =
    map
      (fun (authors, title, conf, year, size_bytes) ->
        (* Distinct authors, as [Article.make] requires. *)
        let authors = List.sort_uniq Article.compare_author authors in
        Q.msd (Article.make ~id:1 ~authors ~title ~conf ~year ~size_bytes))
      (tup5 (list_size (int_range 1 4) author) text text (int_range 0 3000)
         (int_range 0 5_000_000))
  in
  let prefix =
    map
      (fun p -> Q.author_last_prefix p)
      (string_size ~gen:(char_range 'a' 'z') (int_range 1 4))
  in
  QCheck.make ~print:printf_render (frequency [ (3, fields); (3, msd); (1, prefix) ])

let renderer_matches_printf_oracle =
  QCheck.Test.make ~name:"one-pass renderer = Printf renderer" ~count:1000
    renderer_query_arb (fun q -> String.equal (Q.to_string q) (printf_render q))

(* The renderer with a fresh [Buffer] per rendering, kept here as the
   oracle of the one that reuses a buffer per domain: author predicates
   of a multi-author descriptor rendered in buffers of their own and
   sorted. *)
let buffer_render q =
  let add_author b (a : Article.author) =
    Buffer.add_string b "author[first/";
    Buffer.add_string b a.first;
    Buffer.add_string b "][last/";
    Buffer.add_string b a.last;
    Buffer.add_char b ']'
  in
  let author_pred a =
    let b = Buffer.create 48 in
    add_author b a;
    Buffer.contents b
  in
  let add_field b name v =
    Buffer.add_string b name;
    Buffer.add_char b '/';
    Buffer.add_string b v
  in
  let b = Buffer.create 96 in
  Buffer.add_string b "/article";
  (match q with
  | Q.Fields f ->
      let count =
        List.length
          (List.filter Fun.id
             [ f.Q.author <> None; f.title <> None; f.conf <> None; f.year <> None ])
      in
      let open_pred i =
        if count = 1 then Buffer.add_char b '/'
        else Buffer.add_string b (if i = 0 then "[" else "][")
      in
      let i =
        match f.Q.author with
        | Some a ->
            open_pred 0;
            add_author b a;
            1
        | None -> 0
      in
      let i =
        match f.Q.conf with
        | Some c ->
            open_pred i;
            add_field b "conf" c;
            i + 1
        | None -> i
      in
      let i =
        match f.Q.title with
        | Some t ->
            open_pred i;
            add_field b "title" t;
            i + 1
        | None -> i
      in
      (match f.Q.year with
      | Some y ->
          open_pred i;
          add_field b "year" (Int.to_string y)
      | None -> ());
      if count > 1 then Buffer.add_char b ']'
  | Q.Msd (article : Article.t) ->
      (match article.authors with
      | [] -> Buffer.add_char b '['
      | [ a ] ->
          Buffer.add_char b '[';
          add_author b a;
          Buffer.add_string b "]["
      | authors ->
          List.iter
            (fun pred ->
              Buffer.add_char b '[';
              Buffer.add_string b pred;
              Buffer.add_char b ']')
            (List.sort String.compare (List.map author_pred authors));
          Buffer.add_char b '[');
      add_field b "conf" article.conf;
      Buffer.add_string b "][";
      add_field b "size" (Int.to_string article.size_bytes);
      Buffer.add_string b "][";
      add_field b "title" article.title;
      Buffer.add_string b "][";
      add_field b "year" (Int.to_string article.year);
      Buffer.add_char b ']'
  | Q.Author_last_prefix p ->
      Buffer.add_string b "/author/last/";
      Buffer.add_string b p;
      Buffer.add_char b '*');
  Buffer.contents b

let renderer_matches_buffer_oracle =
  QCheck.Test.make ~name:"reused-buffer renderer = fresh-buffer renderer" ~count:1000
    renderer_query_arb (fun q -> String.equal (Q.to_string q) (buffer_render q))

(* ------------------------------------------------------------------ *)
(* Grouped publication against the per-edge fold: [publish_corpus] must
   leave exactly what storing each file and then inserting each of its
   scheme edges one by one leaves — every replica's states, the traffic
   bill and the write acknowledgements. *)

module Rstore = Storage.Replicated_store

type publish_case = {
  kind : Schemes.kind;
  replication : int;
  ttl : bool;
  nodes : int;
  venues : int;
  seed : int;
  first : int;  (** Articles in the first batch, before the repeats. *)
  repeats : int;
      (** First-batch articles published a second time in it, and once
          more at the end of the second batch. *)
  second : int;  (** Articles in the second batch; 0 for none. *)
  failed : int list;  (** Nodes failed between the two batches. *)
}

let print_publish_case c =
  Printf.sprintf
    "{kind=%s; replication=%d; ttl=%b; nodes=%d; venues=%d; seed=%d; first=%d; repeats=%d; \
     second=%d; failed=[%s]}"
    (Schemes.label c.kind) c.replication c.ttl c.nodes c.venues c.seed c.first c.repeats
    c.second
    (String.concat ";" (List.map string_of_int c.failed))

let publish_case_arb =
  let open QCheck.Gen in
  let gen =
    oneofl Schemes.[ Simple; Flat; Complex; Complex_ac; Prefix ] >>= fun kind ->
    oneofl [ 1; 3 ] >>= fun replication ->
    bool >>= fun ttl ->
    int_range 3 16 >>= fun nodes ->
    oneofl [ 2; 30 ] >>= fun venues ->
    int_range 0 10_000 >>= fun seed ->
    int_range 1 60 >>= fun first ->
    int_range 0 4 >>= fun repeats ->
    oneofl [ 0; 0; 15; 40 ] >>= fun second ->
    list_size (int_range 0 3) (int_range 0 (nodes - 1)) >>= fun failed ->
    return { kind; replication; ttl; nodes; venues; seed; first; repeats; second; failed }
  in
  QCheck.make ~print:print_publish_case gen

let publish_case_corpus c ~seed ~count =
  let config =
    { (Corpus.default_config ~article_count:count) with
      venue_count = c.venues;
      first_year = 2000;
      last_year = 2002 }
  in
  Corpus.generate ~seed:(Int64.of_int seed) config

(* The reference: one store_file and one insert_mapping per edge, in
   article and edge order. *)
let publish_per_edge index ~kind articles =
  Array.iter
    (fun article ->
      Index.store_file index ~msd:(Q.msd article) (Article.file article);
      List.iter
        (fun { P2pindex.Scheme.parent; child } ->
          ignore (Index.insert_mapping index ~parent ~child : bool))
        (P2pindex.Scheme.edges (Schemes.scheme kind) (Q.msd article)))
    articles

(* Every state any replica holds, as lines: node, key, version,
   tombstones and the entries in order with their lengths and expiries. *)
let store_lines ~nodes store render =
  let lines = ref [] in
  List.iter
    (fun key ->
      for node = 0 to nodes - 1 do
        match Rstore.held_state store ~node key with
        | None -> ()
        | Some { Rstore.held; tombstones; version } ->
            let entry e =
              Printf.sprintf "%s/%d/%h" (render (Rstore.entry_value e)) (Rstore.entry_len e)
                (Rstore.entry_expires_at store ~node key e)
            in
            lines :=
              Printf.sprintf "node %d key %s version %s tombs [%s] entries [%s]" node
                (Hashing.Key.to_hex key) (Storage.Version.to_string version)
                (String.concat "; " (List.map render tombstones))
                (String.concat "; " (List.map entry held))
              :: !lines
      done)
    (Rstore.sorted_keys store);
  Printf.sprintf "keys %d, replica entries %d" (Rstore.key_count store)
    (Rstore.total_replica_entries store)
  :: List.rev !lines

let render_file (f : Storage.Block_store.file) = Printf.sprintf "%s:%d" f.name f.size_bytes

(* Every replica state of both stores, the index's entry counts and the
   whole metrics snapshot. *)
let index_lines c index registry =
  store_lines ~nodes:c.nodes (Index.mapping_store index) Q.to_string
  @ store_lines ~nodes:c.nodes (Index.file_store index) render_file
  @ [
      Printf.sprintf "mappings %d files %d" (Index.mapping_count index) (Index.file_count index);
      Obs.Prometheus.render (Obs.Metrics.snapshot registry);
    ]

(* An index over a metered network, quorum-counted writes and a settable
   clock. *)
let case_index ?republished c ~clock =
  let registry = Obs.Metrics.create () in
  let network = Dht.Network.create ~metrics:registry ~node_count:c.nodes () in
  let resolver =
    Dht.Static_dht.resolver
      (Dht.Static_dht.create ~seed:(Int64.of_int (c.seed + 1)) ~node_count:c.nodes ())
  in
  let index =
    Index.create ~rpc:(Dht.Rpc.create ~network ()) ~metrics:registry ~replication:c.replication
      ~write_quorum:(Stdlib.min 2 c.replication) ~clock
      ?ttl:(if c.ttl then Some 30.0 else None) ?republished ~resolver ()
  in
  (registry, network, index)

let first_batch c =
  let first = publish_case_corpus c ~seed:c.seed ~count:c.first in
  Array.append first (Array.sub first 0 (Stdlib.min c.repeats c.first))

(* Its repeats are first-batch documents, whose scheme edges derive
   query values equal to, but not the same as, the ones the first batch
   staged. *)
let second_batch c =
  if c.second = 0 then [||]
  else
    let first = publish_case_corpus c ~seed:c.seed ~count:c.first in
    Array.append
      (publish_case_corpus c ~seed:(c.seed + 7) ~count:c.second)
      (Array.sub first 0 (Stdlib.min c.repeats c.first))

let publish_observation c ~publish =
  let registry, _network, index = case_index c ~clock:(fun () -> 5.0) in
  publish index ~kind:c.kind (first_batch c);
  if c.second > 0 then begin
    List.iter (fun node -> ignore (Dht.Liveness.fail (Index.liveness index) node : bool)) c.failed;
    publish index ~kind:c.kind (second_batch c)
  end;
  index_lines c index registry

let compare_lines ~label grouped reference =
  if List.compare_lengths grouped reference <> 0 then
    QCheck.Test.fail_reportf "%d lines vs %d" (List.length grouped) (List.length reference)
  else
    match List.find_opt (fun (g, r) -> not (String.equal g r)) (List.combine grouped reference) with
    | None -> true
    | Some (g, r) -> QCheck.Test.fail_reportf "grouped:   %s\n%s:  %s" g label r

let grouped_publication_equals_per_edge_fold =
  QCheck.Test.make ~name:"grouped publication = per-edge fold" ~count:60 publish_case_arb
    (fun c ->
      compare_lines ~label:"per-edge"
        (publish_observation c ~publish:Index.publish_corpus)
        (publish_observation c ~publish:publish_per_edge))

(* Republication against the per-edge refresh, written here against
   the raw stores: one [insert_unique] per file and per scheme edge,
   each billed as maintenance to every live replica of its key.  Between
   publication and the first round, nodes fail, one rejoins empty, one
   rejoins with the state it slept with, and a second batch lands while
   they are down; between later rounds more nodes fail, rejoin empty or
   rejoin as they were, and the clock steps past the TTLs of whatever a
   dead replica missed.  Under an infinite TTL the index is created
   [~republished], hard state whose rounds restore what replicas lost. *)
let republish_per_edge ~expires_at index network ~kind articles =
  let liveness = Index.liveness index in
  let bill store key bytes =
    List.iter
      (fun dst ->
        if Dht.Liveness.alive liveness dst then
          Dht.Network.send network ~dst ~bytes ~category:Dht.Network.Maintenance)
      (Rstore.replica_nodes store key)
  in
  let files = Index.file_store index and mappings = Index.mapping_store index in
  Array.iter
    (fun article ->
      let msd_string = Q.to_string (Q.msd article) in
      let file = Article.file article in
      let key = Hashing.Key.of_string msd_string in
      ignore
        (Rstore.insert_unique ~expires_at ~equal:( = ) files ~key
           ~len:(String.length file.Storage.Block_store.name) file
          : bool);
      bill files key (P2pindex.Wire.request_bytes msd_string);
      List.iter
        (fun { P2pindex.Scheme.parent; child } ->
          let parent_string = Q.to_string parent and child_string = Q.to_string child in
          let key = Hashing.Key.of_string parent_string in
          ignore
            (Rstore.insert_unique ~expires_at ~equal:Q.equal mappings ~key
               ~len:(String.length child_string) child
              : bool);
          bill mappings key
            (P2pindex.Wire.cache_install_bytes_of_len (String.length parent_string)
               (String.length child_string)))
        (P2pindex.Scheme.edges (Schemes.scheme kind) (Q.msd article)))
    articles

(* What happens before one round: nodes that fail, nodes that rejoin
   empty and nodes that rejoin with the state they slept with. *)
type churn = { down : int list; up_empty : int list; up : int list }

(* Rounds after the first, each with the churn before it. *)
let later_rounds_arb c =
  let open QCheck.Gen in
  let nodes = list_size (int_range 0 2) (int_range 0 (c.nodes - 1)) in
  let churn = map3 (fun down up_empty up -> { down; up_empty; up }) nodes nodes nodes in
  list_size (int_range 2 3) churn

let print_churn r =
  let nodes l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "{down=[%s]; up_empty=[%s]; up=[%s]}" (nodes r.down) (nodes r.up_empty)
    (nodes r.up)

let republish_case_arb =
  let gen =
    QCheck.Gen.(
      QCheck.gen publish_case_arb >>= fun c ->
      later_rounds_arb c >>= fun rounds -> return (c, rounds))
  in
  QCheck.make
    ~print:(fun (c, rounds) ->
      print_publish_case c ^ " then " ^ String.concat " " (List.map print_churn rounds))
    gen

(* Every replica state, entry count and metric after every round. *)
let republish_observation (c, rounds) ~republish =
  let now = ref 5.0 in
  let registry, network, index = case_index ~republished:true c ~clock:(fun () -> !now) in
  let liveness = Index.liveness index in
  let first = first_batch c and second = second_batch c in
  Index.publish_corpus index ~kind:c.kind first;
  List.iter (fun node -> ignore (Dht.Liveness.fail liveness node : bool)) c.failed;
  now := 20.0;
  Index.publish_corpus index ~kind:c.kind second;
  List.iteri
    (fun i node ->
      if i = 0 then Index.drop_node_state index node;
      if i < 2 then ignore (Dht.Liveness.revive liveness node : bool))
    c.failed;
  now := 40.0;
  let published = Array.append first second in
  republish ~now:!now index network ~kind:c.kind published;
  let after_first = index_lines c index registry in
  List.fold_left
    (fun lines { down; up_empty; up } ->
      List.iter
        (fun node ->
          if not (Dht.Liveness.alive liveness node) then begin
            Index.drop_node_state index node;
            ignore (Dht.Liveness.revive liveness node : bool)
          end)
        up_empty;
      List.iter (fun node -> ignore (Dht.Liveness.revive liveness node : bool)) up;
      List.iter (fun node -> ignore (Dht.Liveness.fail liveness node : bool)) down;
      (* 25 s a round against a 30 s TTL: what a replica missed for
         two rounds has expired. *)
      now := !now +. 25.0;
      republish ~now:!now index network ~kind:c.kind published;
      lines @ index_lines c index registry)
    after_first rounds

let grouped_republish_equals_per_edge_refresh =
  QCheck.Test.make ~name:"grouped republish = per-edge refresh" ~count:60
    republish_case_arb (fun ((c, _) as case) ->
      compare_lines ~label:"per-edge"
        (republish_observation case ~republish:(fun ~now:_ index _network ~kind:_ _articles ->
             Index.republish index))
        (republish_observation case ~republish:(fun ~now index network ~kind articles ->
             republish_per_edge
               ~expires_at:(if c.ttl then now +. 30.0 else infinity)
               index network ~kind articles)))

(* Under a plan, a later batch leaves the plan's groups stale and the
   next round derives them again from every recorded document:
   publishing the documents one at a time must leave what one batch of
   them leaves, and so must the rounds replaying the plan either way
   built — one between the batches, and one after an unpublish. *)
let publish_one_by_one index ~kind articles =
  let scheme = Schemes.scheme kind in
  Array.iter
    (fun article -> Index.publish index ~scheme ~msd:(Q.msd article) (Article.file article))
    articles

let planned_observation c ~publish =
  let now = ref 5.0 in
  let registry, _network, index = case_index ~republished:true c ~clock:(fun () -> !now) in
  let first = first_batch c in
  publish index ~kind:c.kind first;
  now := 10.0;
  Index.republish index;
  let round = index_lines c index registry in
  List.iter (fun node -> ignore (Dht.Liveness.fail (Index.liveness index) node : bool)) c.failed;
  publish index ~kind:c.kind (second_batch c);
  let published = index_lines c index registry in
  now := 20.0;
  Index.unpublish index ~scheme:(Schemes.scheme c.kind) ~msd:(Q.msd first.(0));
  Index.republish index;
  round @ published @ index_lines c index registry

let single_publishes_equal_one_batch =
  QCheck.Test.make ~name:"single publishes under a plan = one batch" ~count:60 publish_case_arb
    (fun c ->
      compare_lines ~label:"one batch"
        (planned_observation c ~publish:publish_one_by_one)
        (planned_observation c ~publish:Index.publish_corpus))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "bib:article",
      [
        Alcotest.test_case "xml roundtrip" `Quick article_xml_roundtrip;
        Alcotest.test_case "validation" `Quick article_validation;
      ] );
    ( "bib:query",
      [
        Alcotest.test_case "paper-style rendering" `Quick query_rendering_matches_paper;
        Alcotest.test_case "to_string = xpath rendering" `Quick to_string_equals_xpath_rendering;
        Alcotest.test_case "covers agrees with xpath" `Quick covers_agrees_with_xpath_covers;
        Alcotest.test_case "matches_article" `Quick matches_article_semantics;
        Alcotest.test_case "multi-author semantics" `Quick multi_author_coverage;
        Alcotest.test_case "generalization order" `Quick generalization_order;
        Alcotest.test_case "msd generalization" `Quick msd_generalization_is_all_fields;
        Alcotest.test_case "prefix query semantics" `Quick prefix_query_semantics;
        Alcotest.test_case "alphabetic browsing" `Quick alphabetic_browsing;
      ]
      @ qcheck
          [
            generalizations_cover_property;
            bib_compare_total_order;
            bib_covers_reflexive_transitive;
            renderer_matches_printf_oracle;
            renderer_matches_buffer_oracle;
          ] );
    ( "bib:schemes",
      [
        Alcotest.test_case "edges satisfy covering" `Quick scheme_edges_satisfy_covering;
        Alcotest.test_case "chains reach the MSD" `Quick scheme_chains_reach_msd;
        Alcotest.test_case "chain lengths per scheme" `Quick chain_lengths_by_scheme;
        Alcotest.test_case "unindexed shapes rejected" `Quick chain_rejects_unindexed_shapes;
        Alcotest.test_case "author+conf variant" `Quick author_conf_only_in_complex_ac;
      ] );
    ( "bib:corpus",
      [
        Alcotest.test_case "generation properties" `Quick corpus_properties;
        Alcotest.test_case "helpers" `Quick corpus_helpers;
        Alcotest.test_case "xml roundtrip" `Quick corpus_xml_roundtrip;
        Alcotest.test_case "publish and search end-to-end" `Slow publish_and_search_corpus;
        Alcotest.test_case "generated-query search pinned" `Quick generated_query_search_pinned;
        Alcotest.test_case "republish skips unpublished documents" `Quick
          republish_skips_unpublished;
        Alcotest.test_case "republish derives and renders nothing" `Quick
          republish_derives_nothing;
        Alcotest.test_case "republish needs a plan" `Quick republish_needs_a_plan;
      ]
      @ qcheck [ publish_unpublish_invariant ] );
    ( "bib:publish",
      qcheck
        [
          grouped_publication_equals_per_edge_fold;
          grouped_republish_equals_per_edge_refresh;
          single_publishes_equal_one_batch;
        ] );
  ]
