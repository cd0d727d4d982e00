type config = {
  article_count : int;
  author_pool : int;
  venue_count : int;
  first_year : int;
  last_year : int;
  author_skew : float;
  venue_skew : float;
}

let default_config ~article_count =
  {
    article_count;
    author_pool = Stdlib.max 10 (article_count / 5);
    venue_count = 30;
    first_year = 1980;
    last_year = 2003;
    author_skew = 0.72;
    venue_skew = 0.7;
  }

(* Vocabularies.  Names and words are plain ASCII without the characters the
   canonical query syntax reserves ('/', '[', ']', '*'). *)

let first_names =
  [|
    "John"; "Alan"; "Maria"; "Wei"; "Anna"; "David"; "Laura"; "Pedro"; "Yuki"; "Hans";
    "Elena"; "Marc"; "Sofia"; "Ivan"; "Nina"; "Paul"; "Clara"; "Tom"; "Rita"; "Omar";
    "Lena"; "Hugo"; "Iris"; "Karl"; "Mona"; "Nils"; "Olga"; "Petr"; "Ruth"; "Sven";
    "Tara"; "Uwe"; "Vera"; "Yann"; "Zoe"; "Adam"; "Beth"; "Carl"; "Dana"; "Erik";
    "Fay"; "Gail"; "Henk"; "Ines"; "Jack"; "Kate"; "Liam"; "Mira"; "Noel"; "Pia";
    "Quentin"; "Rosa"; "Said"; "Tess"; "Udo"; "Vito"; "Wanda"; "Ximena"; "Yosef"; "Zara";
  |]

let last_names =
  [|
    "Smith"; "Doe"; "Garcia"; "Chen"; "Mueller"; "Rossi"; "Tanaka"; "Novak"; "Silva";
    "Dubois"; "Kim"; "Patel"; "Ivanov"; "Haddad"; "Olsen"; "Kowalski"; "Moreau"; "Weber";
    "Ricci"; "Sato"; "Lopez"; "Nguyen"; "Fischer"; "Marino"; "Suzuki"; "Horak"; "Costa";
    "Lefevre"; "Park"; "Shah"; "Petrov"; "Nasser"; "Berg"; "Zielinski"; "Fontaine";
    "Keller"; "Greco"; "Mori"; "Vargas"; "Tran"; "Wagner"; "Conti"; "Ito"; "Dvorak";
    "Pinto"; "Renard"; "Schmid"; "Russo"; "Kato"; "Blanc"; "Ortiz"; "Pham"; "Koch";
    "Ferrari"; "Saito"; "Maly"; "Ramos"; "Leroy"; "Braun"; "Villa"; "Ono"; "Urban";
    "Reyes"; "Huber"; "Serra"; "Abe"; "Cerny"; "Nunez"; "Vogel"; "Riva"; "Endo";
    "Svoboda"; "Mendez"; "Baum"; "Sala"; "Hara"; "Prochazka"; "Flores"; "Stein";
    "Monti"; "Yada"; "Benes"; "Aguilar"; "Wolf"; "Longo"; "Mura"; "Kral"; "Delgado";
    "Frank"; "Gatti"; "Oda"; "Sedlak"; "Campos"; "Lang"; "Testa"; "Koga"; "Vesely";
    "Romero"; "Roth"; "Ferri"; "Goto"; "Hruska"; "Medina"; "Busch"; "Bruno"; "Wada";
    "Pokorny"; "Castillo"; "Kuhn"; "Vitale"; "Baba"; "Marek"; "Guerrero"; "Seidel";
    "Palma"; "Ueda"; "Stastny"; "Cabrera"; "Ernst"; "Leone"; "Mizuno"; "Fiala";
  |]

let title_words =
  [|
    "Scalable"; "Adaptive"; "Distributed"; "Efficient"; "Robust"; "Secure"; "Dynamic";
    "Hierarchical"; "Decentralized"; "Optimal"; "Parallel"; "Incremental"; "Reliable";
    "Anonymous"; "Cooperative"; "Hybrid"; "Lightweight"; "Probabilistic"; "Semantic";
    "Structured"; "Routing"; "Caching"; "Indexing"; "Lookup"; "Replication"; "Storage";
    "Multicast"; "Streaming"; "Scheduling"; "Congestion"; "Mobility"; "Measurement";
    "Topology"; "Membership"; "Consistency"; "Aggregation"; "Discovery"; "Placement";
    "Recovery"; "Naming"; "Search"; "Gossip"; "Overlay"; "Peer"; "Network"; "Protocol";
    "Architecture"; "Framework"; "Algorithm"; "System"; "Service"; "Infrastructure";
    "Mechanism"; "Model"; "Analysis"; "Evaluation"; "Design"; "Implementation"; "Study";
    "Approach"; "Wavelets"; "TCP"; "IPv6"; "DHT"; "Multimedia"; "Wireless"; "Sensor";
    "Mobile"; "Internet"; "Web"; "Grid"; "Cluster"; "Database"; "Query"; "Stream";
    "Cache"; "Proxy"; "Latency"; "Bandwidth"; "Throughput"; "Fairness"; "Security";
    "Privacy"; "Trust"; "Reputation"; "Incentive"; "Economics"; "Game"; "Auction";
    "Coding"; "Compression"; "Encryption"; "Authentication"; "Tomography"; "Sampling";
    "Estimation"; "Prediction"; "Learning"; "Clustering"; "Classification"; "Filtering";
  |]

let venue_names =
  [|
    "SIGCOMM"; "INFOCOM"; "SOSP"; "OSDI"; "NSDI"; "MobiCom"; "SIGMETRICS"; "PODC";
    "ICNP"; "ICDCS"; "Middleware"; "IPTPS"; "VLDB"; "SIGMOD"; "PODS"; "ICDE"; "WWW";
    "HotNets"; "IMC"; "CoNEXT"; "EuroSys"; "USENIX-ATC"; "FAST"; "SPAA"; "STOC";
    "FOCS"; "SODA"; "CCS"; "NDSS"; "Oakland"; "CRYPTO"; "PKC"; "ICALP"; "ESA";
    "DISC"; "OPODIS"; "SRDS"; "DSN"; "PerCom"; "SenSys";
  |]

let generate ~seed config =
  if config.article_count <= 0 then invalid_arg "Corpus.generate: no articles requested";
  if config.author_pool < 3 then invalid_arg "Corpus.generate: author pool too small";
  if config.venue_count <= 0 || config.venue_count > Array.length venue_names then
    invalid_arg "Corpus.generate: bad venue count";
  if config.last_year < config.first_year then invalid_arg "Corpus.generate: bad years";
  let g = Stdx.Prng.create ~seed in
  (* Author pool: distinct (first, last) pairs.  When the pool outgrows the
     cartesian product of the name lists, a numbered suffix keeps pairs
     distinct (like disambiguated DBLP homonyms). *)
  let seen = Hashtbl.create config.author_pool in
  let fresh_author i =
    let rec draw attempts =
      let first = Stdx.Prng.pick g first_names in
      let last = Stdx.Prng.pick g last_names in
      let candidate =
        if attempts < 20 then { Article.first; last }
        else { Article.first; last = Printf.sprintf "%s-%d" last i }
      in
      if Hashtbl.mem seen candidate then draw (attempts + 1)
      else begin
        Hashtbl.add seen candidate ();
        candidate
      end
    in
    draw 0
  in
  let pool = Array.init config.author_pool fresh_author in
  let author_law = Stdx.Power_law.zipf ~s:config.author_skew ~n:config.author_pool in
  let venue_law = Stdx.Power_law.zipf ~s:config.venue_skew ~n:config.venue_count in
  let sample_authors () =
    let wanted =
      Stdx.Prng.choose_weighted g [ (1, 0.45); (2, 0.35); (3, 0.20) ]
    in
    let rec collect acc remaining attempts =
      if remaining = 0 || attempts > 50 then List.rev acc
      else
        let a = pool.(Stdx.Power_law.sample author_law g - 1) in
        if List.exists (Article.author_equal a) acc then
          collect acc remaining (attempts + 1)
        else collect (a :: acc) (remaining - 1) (attempts + 1)
    in
    collect [] wanted 0
  in
  let sample_title () =
    let words = Stdx.Prng.int_in_range g ~lo:2 ~hi:5 in
    String.concat " " (List.init words (fun _ -> Stdx.Prng.pick g title_words))
  in
  Array.init config.article_count (fun i ->
      Article.make ~id:(i + 1) ~authors:(sample_authors ()) ~title:(sample_title ())
        ~conf:venue_names.(Stdx.Power_law.sample venue_law g - 1)
        ~year:(Stdx.Prng.int_in_range g ~lo:config.first_year ~hi:config.last_year)
        ~size_bytes:(Stdx.Prng.int_in_range g ~lo:100_000 ~hi:450_000))

let distinct_authors articles =
  let all = Array.to_list articles |> List.concat_map (fun (a : Article.t) -> a.authors) in
  List.sort_uniq Article.compare_author all
