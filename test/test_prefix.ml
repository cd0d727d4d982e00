(* Routed prefix/range index tests: the order-preserving key mapping,
   arc-covering resolution, the spanning-tree multicast, and the
   end-to-end prefix scheme through the walk machinery.  The two issue
   properties are here as qcheck laws: routed results equal a
   brute-force substring scan, and multicast dissemination delivers
   exactly once within the members + edges message bound. *)

module Key = Prefix.Prefix_key
module Multicast = Prefix.Multicast
module Router = Prefix.Range_router
module Pindex = Prefix.Prefix_index
module Runner = Sim.Runner
module Schemes = Bib.Schemes
module Q = Bib.Bib_query

let resolver ?(node_count = 64) () =
  Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:11L ~node_count ())

(* ------------------------------------------------------------------ *)
(* Prefix_key: the order-preserving prefix -> ring-arc mapping. *)

let key_basics () =
  Alcotest.(check int) "max_bytes is the key width" (Hashing.Key.bits / 8) Key.max_bytes;
  Alcotest.(check bool) "is_prefix reflexive" true (Key.is_prefix "Smi" "Smi");
  Alcotest.(check bool) "Smi prefixes Smith" true (Key.is_prefix "Smi" "Smith");
  Alcotest.(check bool) "Smith does not prefix Smi" false (Key.is_prefix "Smith" "Smi");
  Alcotest.(check bool) "empty prefixes everything" true (Key.is_prefix "" "Doe");
  let lo, hi = Key.range "Smi" in
  Alcotest.(check bool) "lo <= hi" true (Hashing.Key.compare lo hi <= 0);
  Alcotest.(check bool) "Smith inside [Smi] arc" true
    (Key.in_range "Smi" ~key:(Key.encode "Smith"));
  Alcotest.(check bool) "Doe outside [Smi] arc" false
    (Key.in_range "Smi" ~key:(Key.encode "Doe"))

let small_string =
  let gen =
    QCheck.Gen.(
      string_size
        ~gen:(map (fun i -> Char.chr (Char.code 'a' + i)) (int_range 0 3))
        (int_range 1 8))
  in
  QCheck.make ~print:(fun s -> s) gen

let encode_order_preserving =
  QCheck.Test.make ~name:"encode preserves lexicographic order" ~count:500
    (QCheck.pair small_string small_string)
    (fun (a, b) ->
      let strings = String.compare a b in
      let keys = Hashing.Key.compare (Key.encode a) (Key.encode b) in
      if strings < 0 then keys <= 0
      else if strings > 0 then keys >= 0
      else keys = 0)

let prefix_lands_in_range =
  QCheck.Test.make ~name:"matching terms land inside the prefix arc" ~count:500
    (QCheck.pair small_string small_string)
    (fun (p, rest) ->
      let term = p ^ rest in
      Key.in_range p ~key:(Key.encode term))

(* ------------------------------------------------------------------ *)
(* Range_router: responsible nodes of matching terms are covered. *)

let covering_contains_responsible () =
  let resolver = resolver () in
  let terms = [ "Smith"; "Smythe"; "Doe"; "Garcia"; "Gao"; "Nguyen"; "N" ] in
  List.iter
    (fun term ->
      List.iter
        (fun len ->
          let prefix = String.sub term 0 (Stdlib.min len (String.length term)) in
          let covering = Router.covering_prefix resolver prefix in
          let home = Dht.Resolver.responsible resolver (Key.encode term) in
          Alcotest.(check bool)
            (Printf.sprintf "responsible(%s) covered by %S" term prefix)
            true (List.mem home covering))
        [ 1; 2; 3 ])
    terms

let covering_is_endpoint_bounded () =
  let resolver = resolver () in
  let lo, hi = Key.range "Gar" in
  let covering = Router.covering_nodes resolver ~lo ~hi in
  Alcotest.(check bool) "non-empty" true (covering <> []);
  Alcotest.(check int) "starts at responsible lo"
    (Dht.Resolver.responsible resolver lo)
    (List.hd covering);
  Alcotest.(check int) "ends at responsible hi"
    (Dht.Resolver.responsible resolver hi)
    (List.nth covering (List.length covering - 1))

(* ------------------------------------------------------------------ *)
(* Multicast: deterministic heap layout, exactly-once dissemination. *)

let tree_shape () =
  let tree = Multicast.build [ 5; 3; 5; 7 ] in
  Alcotest.(check (list int)) "dedup keeps first occurrences" [ 5; 3; 7 ]
    (Multicast.members tree);
  Alcotest.(check int) "root is the first member" 5 (Multicast.root tree);
  Alcotest.(check int) "edges = members - 1" 2 (Multicast.edge_count tree);
  Alcotest.(check (list (pair int int))) "heap edges in slot order"
    [ (5, 3); (5, 7) ]
    (Multicast.edges tree);
  Alcotest.(check int) "depth of 3 members" 2 (Multicast.depth tree);
  Alcotest.(check int) "singleton depth" 1 (Multicast.depth (Multicast.build [ 9 ]));
  let big = Multicast.build (List.init 64 (fun i -> i)) in
  Alcotest.(check int) "64 members span 7 levels" 7 (Multicast.depth big);
  (match Multicast.build [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty member list accepted")

let dissemination_exactly_once () =
  let members = List.init 40 (fun i -> i * 3 mod 121) in
  let tree = Multicast.build members in
  let network = Dht.Network.create ~node_count:121 () in
  let rpc = Dht.Rpc.create ~network () in
  let delivered = ref [] in
  let stats =
    Multicast.disseminate ~rpc ~category:Dht.Network.Maintenance
      ~bytes:(fun _ -> 32)
      ~deliver:(fun node -> delivered := node :: !delivered)
      tree
  in
  Alcotest.(check (list int)) "every member delivered exactly once, in slot order"
    (Multicast.members tree)
    (List.rev !delivered);
  Alcotest.(check int) "messages billed on the network" stats.Multicast.messages
    (Dht.Network.total_messages network);
  Alcotest.(check int) "one message per member" (Multicast.member_count tree)
    stats.Multicast.messages;
  Alcotest.(check bool) "messages within members + edges" true
    (stats.Multicast.messages
    <= Multicast.member_count tree + Multicast.edge_count tree);
  Alcotest.(check int) "stats depth matches the tree" (Multicast.depth tree)
    stats.Multicast.depth

(* ------------------------------------------------------------------ *)
(* Prefix_index: routed queries vs brute force, multicast installs. *)

let render = string_of_int

let fresh_index ?rpc ?(node_count = 16) () =
  Pindex.create ?rpc ~render ~resolver:(resolver ~node_count ()) ()

let publish_all index entries =
  List.iter (fun (term, v) -> Pindex.publish index ~term v) entries

let brute_force entries ~prefix =
  List.filter (fun (term, _) -> Key.is_prefix prefix term) entries
  |> List.map (fun (term, v) -> (term, render v))
  |> List.sort_uniq compare

let rendered results = List.map (fun (term, v) -> (term, render v)) results

let entries_arbitrary =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 40)
        (pair
           (string_size
              ~gen:(map (fun i -> Char.chr (Char.code 'a' + i)) (int_range 0 2))
              (int_range 1 5))
           (int_range 0 9)))
  in
  QCheck.make
    ~print:(fun entries ->
      String.concat ";" (List.map (fun (t, v) -> t ^ "=" ^ render v) entries))
    gen

let prefix_arbitrary =
  let gen =
    QCheck.Gen.(
      string_size
        ~gen:(map (fun i -> Char.chr (Char.code 'a' + i)) (int_range 0 2))
        (int_range 0 3))
  in
  QCheck.make ~print:(fun s -> "prefix:" ^ s) gen

let routed_equals_brute_force =
  QCheck.Test.make ~name:"routed query equals brute-force substring scan"
    ~count:200
    (QCheck.pair entries_arbitrary prefix_arbitrary)
    (fun (entries, prefix) ->
      let index = fresh_index () in
      publish_all index entries;
      let expected = brute_force entries ~prefix in
      rendered (Pindex.query index ~prefix) = expected
      && rendered (Pindex.query ~multicast:true index ~prefix) = expected
      && rendered (Pindex.query_broadcast index ~prefix) = expected)

let multicast_install_equals_sequential =
  QCheck.Test.make ~name:"multicast install state equals sequential installs"
    ~count:100 entries_arbitrary
    (fun entries ->
      let node_count = 16 in
      let sequential = fresh_index ~node_count () in
      publish_all sequential entries;
      let multicast = fresh_index ~node_count () in
      let bound_ok =
        match Pindex.publish_multicast multicast entries with
        | Some stats ->
            (* messages <= covering members + tree edges *)
            stats.Multicast.messages <= (2 * stats.Multicast.fanout) - 1
        | None -> entries = []
      in
      bound_ok
      && List.for_all
        (fun node -> Pindex.entries_on sequential node = Pindex.entries_on multicast node)
        (List.init node_count (fun i -> i))
      && List.for_all
           (fun prefix ->
             rendered (Pindex.query sequential ~prefix)
             = rendered (Pindex.query multicast ~prefix))
           [ ""; "a"; "b"; "ab"; "ba"; "c" ])

let routed_cheaper_than_broadcast () =
  let node_count = 64 in
  let network = Dht.Network.create ~node_count () in
  let rpc = Dht.Rpc.create ~network () in
  let index = fresh_index ~rpc ~node_count () in
  let articles =
    Bib.Corpus.generate ~seed:5L (Bib.Corpus.default_config ~article_count:300)
  in
  Array.iteri
    (fun i (a : Bib.Article.t) ->
      List.iter
        (fun (x : Bib.Article.author) -> Pindex.publish index ~term:x.Bib.Article.last i)
        a.Bib.Article.authors)
    articles;
  Dht.Network.reset network;
  let measure f =
    let bytes = Dht.Network.total_bytes network in
    let messages = Dht.Network.total_messages network in
    let results = f () in
    ( results,
      Dht.Network.total_bytes network - bytes,
      Dht.Network.total_messages network - messages )
  in
  let prefix = "S" in
  let covering = List.length (Pindex.covering_nodes index ~prefix) in
  Alcotest.(check bool) "routed set is a strict subset of the network" true
    (covering > 0 && covering < node_count);
  let direct, direct_bytes, direct_messages = measure (fun () -> Pindex.query index ~prefix) in
  let broadcast, broadcast_bytes, broadcast_messages =
    measure (fun () -> Pindex.query_broadcast index ~prefix)
  in
  Alcotest.(check bool) "same answers" true (rendered direct = rendered broadcast);
  Alcotest.(check bool) "routed costs fewer bytes" true (direct_bytes < broadcast_bytes);
  Alcotest.(check bool) "routed sends fewer messages" true
    (direct_messages < broadcast_messages)

let dropped_node_forgets_entries () =
  let index = fresh_index () in
  publish_all index [ ("abc", 1); ("abd", 2); ("b", 3) ];
  let total = Pindex.entry_count index in
  Alcotest.(check int) "three entries stored" 3 total;
  List.iter (fun node -> Pindex.drop_node_state index node) (List.init 16 (fun i -> i));
  Alcotest.(check int) "all state dropped" 0 (Pindex.entry_count index);
  Alcotest.(check (list (pair string int))) "queries find nothing" []
    (Pindex.query index ~prefix:"")

(* ------------------------------------------------------------------ *)
(* Bib recognition: xpath prefix chains compile to Author_last_prefix. *)

let xpath_prefix_recognition () =
  let round_trip p =
    match Q.of_xpath_author_prefix (Q.to_xpath (Q.author_last_prefix p)) with
    | Some q -> Alcotest.(check int) ("round-trips " ^ p) 0 (Q.compare q (Q.author_last_prefix p))
    | None -> Alcotest.failf "failed to recognize %S" p
  in
  List.iter round_trip [ "S"; "Smi"; "Garcia" ];
  let rejects input =
    Alcotest.(check bool) ("rejects " ^ input) true
      (Q.of_xpath_author_prefix (Xpath.of_string input) = None)
  in
  List.iter rejects
    [
      "/article/author/last/Smith";
      "/article/author/first/Smi*";
      "/article[author[last/Smi*]][conf/SIGCOMM]";
      "/article/author/last/*";
    ]

(* ------------------------------------------------------------------ *)
(* End-to-end: the prefix scheme through Runner and the engine. *)

let small =
  {
    Runner.default_config with
    node_count = 50;
    article_count = 400;
    query_count = 3_000;
    seed = 7L;
    scheme = Schemes.Prefix;
    mix = Workload.Query_gen.prefix_mix Runner.default_config.mix;
  }

let prefix_config ~multicast = Some { Runner.prefix_len = 2; multicast }

let scheme_end_to_end () =
  List.iter
    (fun multicast ->
      let r = Runner.run { small with prefix = prefix_config ~multicast } in
      Alcotest.(check int) "no unreachable targets" 0 r.Runner.unreachable;
      Alcotest.(check bool) "prefix queries were routed" true
        (Obs.Metrics.counter_total r.Runner.metrics "p2pindex_prefix_queries_total" > 0))
    [ false; true ]

let scheme_deterministic () =
  let run () = Runner.run { small with prefix = prefix_config ~multicast:true } in
  let a = run () and b = run () in
  Alcotest.(check (float 0.0)) "same interactions" (Runner.interactions_mean a)
    (Runner.interactions_mean b);
  Alcotest.(check int) "same response bytes" (Runner.response_bytes a) (Runner.response_bytes b);
  Alcotest.(check int) "same messages" (Runner.network_messages a) (Runner.network_messages b)

let scheme_under_concurrency () =
  let cfg = { small with prefix = prefix_config ~multicast:true } in
  let sequential = Runner.run cfg in
  let engine1 = Sim.Engine.run ~concurrency:1 ~coalesce:false cfg in
  Alcotest.(check (float 0.0)) "engine@1 degenerates to the runner"
    (Runner.interactions_mean sequential)
    (Runner.interactions_mean engine1);
  let engine8 = Sim.Engine.run ~concurrency:8 ~coalesce:false cfg in
  Alcotest.(check int) "no unreachable targets at concurrency 8" 0
    engine8.Runner.unreachable

let churn_smoke () =
  let r =
    Runner.run
      {
        small with
        prefix = prefix_config ~multicast:true;
        churn = Some { Runner.default_churn with churn_rate = 0.002 };
      }
  in
  Alcotest.(check bool) "most sessions survive churn" true (Runner.availability r > 0.9)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "prefix:key",
      [ Alcotest.test_case "key basics" `Quick key_basics ]
      @ qcheck [ encode_order_preserving; prefix_lands_in_range ] );
    ( "prefix:router",
      [
        Alcotest.test_case "covering contains responsible" `Quick
          covering_contains_responsible;
        Alcotest.test_case "covering endpoint bounded" `Quick covering_is_endpoint_bounded;
      ] );
    ( "prefix:multicast",
      [
        Alcotest.test_case "tree shape" `Quick tree_shape;
        Alcotest.test_case "exactly-once dissemination" `Quick dissemination_exactly_once;
      ] );
    ( "prefix:index",
      [
        Alcotest.test_case "routed cheaper than broadcast" `Quick
          routed_cheaper_than_broadcast;
        Alcotest.test_case "dropped node forgets entries" `Quick
          dropped_node_forgets_entries;
        Alcotest.test_case "xpath prefix recognition" `Quick xpath_prefix_recognition;
      ]
      @ qcheck [ routed_equals_brute_force; multicast_install_equals_sequential ] );
    ( "prefix:scheme",
      [
        Alcotest.test_case "end to end" `Slow scheme_end_to_end;
        Alcotest.test_case "deterministic" `Quick scheme_deterministic;
        Alcotest.test_case "engine concurrency" `Slow scheme_under_concurrency;
        Alcotest.test_case "churn smoke" `Quick churn_smoke;
      ] );
  ]
