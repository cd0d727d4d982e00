(* Fuzzy matching (Section VI future work): edit distance, trigram
   suggestions, and the bibliographic spell-fixing layer. *)

module Spell = Fuzzy.Spell
module Q = Bib.Bib_query
module Article = Bib.Article

let edit_distance_cases () =
  let check a b expected =
    Alcotest.(check int) (Printf.sprintf "d(%s, %s)" a b) expected (Spell.edit_distance a b)
  in
  check "" "" 0;
  check "abc" "abc" 0;
  check "abc" "" 3;
  check "" "xy" 2;
  check "kitten" "sitting" 3;
  check "smith" "smyth" 1;
  (* Transposition counts as one operation (Damerau). *)
  check "smith" "simth" 1;
  check "ab" "ba" 1;
  check "infocom" "infocmo" 1;
  check "abc" "cab" 2

let edit_distance_symmetric =
  QCheck.Test.make ~name:"edit distance symmetric" ~count:300
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 12)) (string_of_size (QCheck.Gen.int_range 0 12)))
    (fun (a, b) -> Spell.edit_distance a b = Spell.edit_distance b a)

let edit_distance_triangle =
  QCheck.Test.make ~name:"edit distance triangle inequality" ~count:300
    QCheck.(triple (string_of_size (QCheck.Gen.int_range 0 8))
              (string_of_size (QCheck.Gen.int_range 0 8))
              (string_of_size (QCheck.Gen.int_range 0 8)))
    (fun (a, b, c) ->
      Spell.edit_distance a c <= Spell.edit_distance a b + Spell.edit_distance b c)

let edit_distance_identity =
  QCheck.Test.make ~name:"edit distance zero iff equal" ~count:300
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 10)) (string_of_size (QCheck.Gen.int_range 0 10)))
    (fun (a, b) -> Spell.edit_distance a b = 0 = String.equal a b)

let suggestions_basic () =
  let vocabulary = Spell.of_list [ "SIGCOMM"; "INFOCOM"; "SOSP"; "OSDI"; "ICDCS" ] in
  List.iter
    (fun v -> Alcotest.(check bool) (v ^ " known") true (Spell.mem vocabulary v))
    [ "SIGCOMM"; "INFOCOM"; "SOSP"; "OSDI"; "ICDCS" ];
  (match Spell.suggest vocabulary "INFOCMO" with
  | ("INFOCOM", 1) :: _ -> ()
  | other ->
      Alcotest.failf "expected INFOCOM first, got [%s]"
        (String.concat "; " (List.map fst other)));
  (* Exact matches win outright, case-insensitively. *)
  Alcotest.(check (list (pair string int))) "exact match" [ ("SIGCOMM", 0) ]
    (Spell.suggest vocabulary "sigcomm");
  Alcotest.(check (list (pair string int))) "nothing close" []
    (Spell.suggest vocabulary "ZZZZZZZZ")

let correct_picks_unique_best () =
  let vocabulary = Spell.of_list [ "John Smith"; "John Smyth"; "Alan Doe" ] in
  (* "John Smoth" is distance 1 from both Smith and Smyth: ambiguous. *)
  Alcotest.(check (option string)) "ambiguous stays unfixed" None
    (Spell.correct vocabulary "John Smoth");
  Alcotest.(check (option string)) "unique typo fixed" (Some "Alan Doe")
    (Spell.correct vocabulary "Alan De");
  Alcotest.(check (option string)) "exact passes" (Some "John Smith")
    (Spell.correct vocabulary "john smith")

let suggest_respects_limits () =
  let vocabulary = Spell.of_list [ "aaa1"; "aaa2"; "aaa3"; "aaa4"; "aaa5"; "aaa6" ] in
  Alcotest.(check int) "limit" 3 (List.length (Spell.suggest ~limit:3 vocabulary "aaa9"));
  (* "aaa9" tolerates 1 + 4 / 4 = 2 edits; "a999" is 2 away, "9999" 3. *)
  let vocabulary = Spell.of_list [ "a999"; "9999" ] in
  Alcotest.(check (list (pair string int))) "length-scaled distance bound" [ ("a999", 2) ]
    (Spell.suggest vocabulary "aaa9")

let suggestions_find_all_close_values =
  (* Any vocabulary word deformed by one substitution must be recovered. *)
  QCheck.Test.make ~name:"one-typo words are recovered" ~count:200
    QCheck.(int_range 0 99)
    (fun i ->
      let vocabulary =
        Spell.of_list (List.init 100 (fun j -> Printf.sprintf "value-%02d-word" j))
      in
      let original = Printf.sprintf "value-%02d-word" i in
      let misspelled = "value-" ^ String.sub original 6 2 ^ "-wxrd" in
      match Spell.suggest vocabulary misspelled with
      | (best, _) :: _ -> String.equal best original
      | [] -> false)

let spellfix_corpus () =
  let articles = Bib.Corpus.generate ~seed:3L (Bib.Corpus.default_config ~article_count:200) in
  let fixer = Bib.Spellfix.of_corpus articles in
  let a0 : Article.t = articles.(0) in
  let author = List.hd a0.authors in
  (* A correct query is untouched. *)
  (match Bib.Spellfix.fix fixer (Q.author_q author) with
  | Bib.Spellfix.Unchanged -> ()
  | Bib.Spellfix.Corrected _ | Bib.Spellfix.Unfixable ->
      Alcotest.fail "correct query must pass unchanged");
  (* Misspell the author's last name by one letter. *)
  let broken_last = "X" ^ String.sub author.Article.last 1 (String.length author.Article.last - 1) in
  let broken = Q.author_q { author with Article.last = broken_last } in
  (match Bib.Spellfix.fix fixer broken with
  | Bib.Spellfix.Corrected fixed ->
      Alcotest.(check string) "restored the known author"
        (Q.to_string (Q.author_q author))
        (Q.to_string fixed)
  | Bib.Spellfix.Unchanged -> Alcotest.fail "misspelling not noticed"
  | Bib.Spellfix.Unfixable -> Alcotest.fail "misspelling not fixed");
  (* Garbage is reported unfixable. *)
  match Bib.Spellfix.fix fixer (Q.title_q "zzzzqqqqppp") with
  | Bib.Spellfix.Unfixable -> ()
  | Bib.Spellfix.Unchanged | Bib.Spellfix.Corrected _ ->
      Alcotest.fail "garbage should be unfixable"

let spellfix_end_to_end () =
  (* The full Section VI story: a misspelled venue query finds nothing in
     the exact-match index, gets validated against the vocabulary, and the
     corrected query succeeds. *)
  let articles = Bib.Corpus.generate ~seed:5L (Bib.Corpus.default_config ~article_count:300) in
  let resolver = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:5L ~node_count:30 ()) in
  let index = Bib.Bib_index.create ~resolver () in
  Bib.Bib_index.publish_corpus index ~kind:Bib.Schemes.Simple articles;
  let fixer = Bib.Spellfix.of_corpus articles in
  let a0 : Article.t = articles.(0) in
  let misspelled = Q.conf_q (a0.conf ^ "X") in
  Alcotest.(check int) "exact index finds nothing" 0
    (List.length (Bib.Bib_index.search index misspelled));
  match Bib.Spellfix.fix fixer misspelled with
  | Bib.Spellfix.Corrected fixed ->
      Alcotest.(check bool) "corrected query succeeds" true
        (Bib.Bib_index.search index fixed <> [])
  | Bib.Spellfix.Unchanged | Bib.Spellfix.Unfixable ->
      Alcotest.fail "venue typo should be corrected"

let spellfix_msd_passthrough () =
  let articles = Bib.Corpus.generate ~seed:7L (Bib.Corpus.default_config ~article_count:50) in
  let fixer = Bib.Spellfix.of_corpus articles in
  match Bib.Spellfix.fix fixer (Q.msd articles.(0)) with
  | Bib.Spellfix.Unchanged -> ()
  | Bib.Spellfix.Corrected _ | Bib.Spellfix.Unfixable ->
      Alcotest.fail "descriptors pass through"

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "fuzzy:spell",
      [
        Alcotest.test_case "edit distance cases" `Quick edit_distance_cases;
        Alcotest.test_case "suggestions" `Quick suggestions_basic;
        Alcotest.test_case "correct picks unique best" `Quick correct_picks_unique_best;
        Alcotest.test_case "limits respected" `Quick suggest_respects_limits;
      ]
      @ qcheck
          [
            edit_distance_symmetric;
            edit_distance_triangle;
            edit_distance_identity;
            suggestions_find_all_close_values;
          ] );
    ( "fuzzy:spellfix",
      [
        Alcotest.test_case "corpus vocabulary" `Quick spellfix_corpus;
        Alcotest.test_case "end to end" `Quick spellfix_end_to_end;
        Alcotest.test_case "MSDs pass through" `Quick spellfix_msd_passthrough;
      ] );
  ]
