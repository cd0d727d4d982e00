(* Workload generator tests: the Section V-C user model. *)

module Query_gen = Workload.Query_gen
module Q = Bib.Bib_query
module Article = Bib.Article

let corpus n = Bib.Corpus.generate ~seed:7L (Bib.Corpus.default_config ~article_count:n)

let queries_always_match_target () =
  let articles = corpus 300 in
  let gen = Query_gen.create ~articles ~seed:1L () in
  for _ = 1 to 2_000 do
    let event = Query_gen.next gen in
    Alcotest.(check bool) "query matches its target" true
      (Q.matches_article event.query event.target)
  done

let structure_mix_matches_bibfinder () =
  let articles = corpus 300 in
  let gen = Query_gen.create ~articles ~seed:2L () in
  let counts = Hashtbl.create 5 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let event = Query_gen.next gen in
    Hashtbl.replace counts event.structure
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts event.structure))
  done;
  let share s = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts s)) /. float_of_int draws in
  let close what observed expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s share %.3f near %.2f" what observed expected)
      true
      (Float.abs (observed -. expected) < 0.02)
  in
  close "author" (share Query_gen.Author) 0.60;
  close "title" (share Query_gen.Title) 0.20;
  close "year" (share Query_gen.Year) 0.10;
  close "author+title" (share Query_gen.Author_title) 0.05;
  close "author+year" (share Query_gen.Author_year) 0.05

let popularity_skew_respected () =
  let articles = corpus 1_000 in
  let gen = Query_gen.create ~articles ~seed:3L () in
  let top = ref 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let event = Query_gen.next gen in
    if event.target.Article.id = 1 then incr top
  done;
  let share = float_of_int !top /. float_of_int draws in
  (* Over 1,000 ranks the normalized fitted law gives the top article a
     probability of c / F(1000) = 0.063 / 0.499 ~ 0.126. *)
  Alcotest.(check bool)
    (Printf.sprintf "top article share %.3f near 0.126" share)
    true
    (Float.abs (share -. 0.126) < 0.02)

let author_field_is_primary_author () =
  let articles = corpus 200 in
  let gen = Query_gen.create ~articles ~seed:4L () in
  for _ = 1 to 1_000 do
    let event = Query_gen.next gen in
    match event.query with
    | Q.Fields { author = Some a; _ } ->
        Alcotest.(check bool) "primary author used" true
          (Article.author_equal a (List.hd event.target.Article.authors))
    | Q.Fields _ -> ()
    | Q.Msd _ | Q.Author_last_prefix _ ->
        Alcotest.fail "workload only emits field queries"
  done

let structure_matches_query_shape () =
  let articles = corpus 100 in
  let gen = Query_gen.create ~articles ~seed:5L () in
  for _ = 1 to 1_000 do
    let event = Query_gen.next gen in
    let expected_fields =
      match event.structure with
      | Query_gen.Author -> 1
      | Query_gen.Title -> 1
      | Query_gen.Year -> 1
      | Query_gen.Author_title -> 2
      | Query_gen.Author_year -> 2
      | Query_gen.Author_conf -> 2
      | Query_gen.Author_prefix -> 1
    in
    let constraint_count =
      match event.query with
      | Q.Fields f ->
          List.length
            (List.filter Fun.id
               [ f.author <> None; f.title <> None; f.conf <> None; f.year <> None ])
      | Q.Author_last_prefix _ -> 1
      | Q.Msd _ -> 5
    in
    Alcotest.(check int) "constraint count matches structure" expected_fields constraint_count
  done

let generation_deterministic () =
  let articles = corpus 100 in
  let a = Query_gen.events (Query_gen.create ~articles ~seed:9L ()) 200 in
  let b = Query_gen.events (Query_gen.create ~articles ~seed:9L ()) 200 in
  Alcotest.(check bool) "same seed, same stream" true
    (List.for_all2
       (fun (x : Query_gen.event) (y : Query_gen.event) ->
         Article.equal x.target y.target && Q.equal x.query y.query)
       a b);
  let c = Query_gen.events (Query_gen.create ~articles ~seed:10L ()) 200 in
  Alcotest.(check bool) "different seed, different stream" true
    (List.exists2 (fun (x : Query_gen.event) (y : Query_gen.event) -> not (Q.equal x.query y.query)) a c)

let custom_mix () =
  let articles = corpus 100 in
  let mix =
    { Query_gen.p_author = 0.0; p_title = 1.0; p_year = 0.0; p_author_title = 0.0;
      p_author_year = 0.0; p_author_conf = 0.0; p_author_prefix = 0.0 }
  in
  (* Zero-weight structures must never be drawn; choose_weighted rejects
     non-positive weights, so the generator filters them. *)
  match Query_gen.create ~mix ~articles ~seed:11L () with
  | gen ->
      for _ = 1 to 100 do
        let event = Query_gen.next gen in
        Alcotest.(check string) "only titles" "title"
          (Query_gen.structure_label event.structure)
      done
  | exception Invalid_argument _ ->
      (* Acceptable alternative: the mix validator rejects zero weights. *)
      ()

let rejects_empty_corpus () =
  Alcotest.check_raises "empty corpus" (Invalid_argument "Query_gen.create: empty corpus")
    (fun () -> ignore (Query_gen.create ~articles:[||] ~seed:1L ()))

let rejects_oversized_popularity () =
  let articles = corpus 10 in
  let popularity = Stdx.Power_law.fitted_cdf ~n:100 in
  Alcotest.check_raises "support too large"
    (Invalid_argument "Query_gen.create: popularity support exceeds the corpus") (fun () ->
      ignore (Query_gen.create ~popularity ~articles ~seed:1L ()))

(* ------------------------------------------------------------------ *)
(* Traces. *)

let trace_line_roundtrip () =
  let articles = corpus 100 in
  let gen = Query_gen.create ~articles ~seed:21L () in
  for _ = 1 to 200 do
    let event = Query_gen.next gen in
    let line = Workload.Trace.line_of_event event in
    let reparsed = Workload.Trace.of_line (Workload.Trace.to_line line) in
    Alcotest.(check int) "rank survives" line.Workload.Trace.target_rank
      reparsed.Workload.Trace.target_rank;
    Alcotest.(check string) "query survives" line.Workload.Trace.query_string
      reparsed.Workload.Trace.query_string
  done

let trace_replay_reconstructs_events () =
  let articles = corpus 150 in
  let gen = Query_gen.create ~articles ~seed:23L () in
  let events = Query_gen.events gen 300 in
  let lines = List.map Workload.Trace.line_of_event events in
  let replayed = Workload.Trace.replay ~articles lines in
  Alcotest.(check int) "same length" (List.length events) (List.length replayed);
  List.iter2
    (fun (a : Query_gen.event) (b : Query_gen.event) ->
      Alcotest.(check bool) "same target" true (Article.equal a.target b.target);
      Alcotest.(check string) "same query" (Q.to_string a.query) (Q.to_string b.query))
    events replayed

let trace_file_roundtrip () =
  let articles = corpus 80 in
  let gen = Query_gen.create ~articles ~seed:27L () in
  let events = Query_gen.events gen 100 in
  let path = Filename.temp_file "p2pindex" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun out -> Workload.Trace.save out events);
      let lines = In_channel.with_open_text path Workload.Trace.load_lines in
      Alcotest.(check int) "all lines back" 100 (List.length lines);
      let replayed = Workload.Trace.replay ~articles lines in
      List.iter2
        (fun (a : Query_gen.event) (b : Query_gen.event) ->
          Alcotest.(check string) "query preserved through the file"
            (Q.to_string a.query) (Q.to_string b.query))
        events replayed)

let trace_rejects_garbage () =
  List.iter
    (fun input ->
      match Workload.Trace.of_line input with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted malformed line %S" input)
    [ ""; "notanumber\tauthor\tq"; "1\tnostructure\tq"; "1\tauthor"; "-3\tauthor\tq" ]

let trace_detects_wrong_corpus () =
  let articles = corpus 50 in
  let other = Bib.Corpus.generate ~seed:99L (Bib.Corpus.default_config ~article_count:50) in
  let gen = Query_gen.create ~articles ~seed:29L () in
  let lines = List.map Workload.Trace.line_of_event (Query_gen.events gen 50) in
  match Workload.Trace.replay ~articles:other lines with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "replay against a different corpus must fail"

let suite =
  [
    ( "workload:trace",
      [
        Alcotest.test_case "line roundtrip" `Quick trace_line_roundtrip;
        Alcotest.test_case "replay reconstructs events" `Quick trace_replay_reconstructs_events;
        Alcotest.test_case "file roundtrip" `Quick trace_file_roundtrip;
        Alcotest.test_case "garbage rejected" `Quick trace_rejects_garbage;
        Alcotest.test_case "wrong corpus detected" `Quick trace_detects_wrong_corpus;
      ] );
    ( "workload",
      [
        Alcotest.test_case "queries match their targets" `Quick queries_always_match_target;
        Alcotest.test_case "BibFinder mix respected" `Quick structure_mix_matches_bibfinder;
        Alcotest.test_case "popularity skew respected" `Quick popularity_skew_respected;
        Alcotest.test_case "primary author in queries" `Quick author_field_is_primary_author;
        Alcotest.test_case "structure matches shape" `Quick structure_matches_query_shape;
        Alcotest.test_case "deterministic" `Quick generation_deterministic;
        Alcotest.test_case "custom mix" `Quick custom_mix;
        Alcotest.test_case "empty corpus rejected" `Quick rejects_empty_corpus;
        Alcotest.test_case "oversized popularity rejected" `Quick rejects_oversized_popularity;
      ] );
  ]
