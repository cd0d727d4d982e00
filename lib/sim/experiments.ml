module Schemes = Bib.Schemes
module Policy = Cache.Policy
module Query_gen = Workload.Query_gen
module Tabular = Stdx.Tabular

type scale = {
  node_count : int;
  article_count : int;
  query_count : int;
  seed : int64;
}

let paper_scale =
  { node_count = 500; article_count = 10_000; query_count = 50_000; seed = 42L }

let quick_scale =
  { node_count = 100; article_count = 1_000; query_count = 5_000; seed = 42L }

let config_of_scale scale =
  {
    Runner.default_config with
    node_count = scale.node_count;
    article_count = scale.article_count;
    query_count = scale.query_count;
    seed = scale.seed;
  }

module Grid = struct
  type t = { scale : scale; cells : (string, Runner.report) Hashtbl.t }

  let create scale = { scale; cells = Hashtbl.create 32 }

  let report t ~scheme ~policy =
    let key = Schemes.label scheme ^ "/" ^ Policy.label policy in
    match Hashtbl.find_opt t.cells key with
    | Some r -> r
    | None ->
        let r = Runner.run { (config_of_scale t.scale) with scheme; policy } in
        Hashtbl.add t.cells key r;
        r

  let scale t = t.scale
end

(* ------------------------------------------------------------------ *)
(* Results.  An experiment computes its numbers once and lays out, in the
   same pass, the blocks it prints and the bench-report metrics it
   reports. *)

type block =
  | Heading of string
  | Table of { headers : string list; rows : string list list }
  | Text of string

type result = { blocks : block list; metrics : Obs.Bench_report.metric list }

type t = { id : string; run : Grid.t -> result }

let print r =
  List.iter
    (function
      | Heading title -> Printf.printf "\n=== %s ===\n" title
      | Table { headers; rows } -> Tabular.print_table ~headers ~rows
      | Text line -> print_endline line)
    r.blocks

let concat results =
  {
    blocks = List.concat_map (fun r -> r.blocks) results;
    metrics = List.concat_map (fun r -> r.metrics) results;
  }

(* A titled table, one (printed cells, metrics) pair per row, with an
   optional note printed under it. *)
let tabulate ~title ~headers ?note rows =
  let cells, metrics = List.split rows in
  let note = Option.to_list (Option.map (fun line -> Text line) note) in
  {
    blocks = Heading title :: Table { headers; rows = cells } :: note;
    metrics = List.concat metrics;
  }

(* Metric names are slugs, so the diff tool's paths stay shell-friendly;
   they are flattened under "exp/<id>/" by {!Obs.Bench_report.flatten}.
   Direction conventions: costs (interactions, bytes, errors) are
   lower-better, success ratios (hit ratio, availability, RPC success)
   higher-better, distribution shapes (slopes, gini, cache occupancy)
   informational. *)

let slug s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c -> Buffer.add_char buf c
      | _ ->
          if
            Buffer.length buf > 0
            && Buffer.nth buf (Buffer.length buf - 1) <> '_'
          then Buffer.add_char buf '_')
    s;
  let s = Buffer.contents buf in
  if String.length s > 0 && s.[String.length s - 1] = '_' then
    String.sub s 0 (String.length s - 1)
  else s

let lower = Obs.Bench_report.Lower_better
let higher = Obs.Bench_report.Higher_better
let info = Obs.Bench_report.Informational
let m name better value = Obs.Bench_report.metric name better value
let fnum f = slug (Printf.sprintf "%g" f)
let f3 = Printf.sprintf "%.3f"
let f0 = Printf.sprintf "%.0f"
let int = string_of_int
let yes_no b = if b then "yes" else "no"

(* The same figure-level knobs, capped: for experiments whose point is
   rates or metric equality, not scale. *)
let capped ?(nodes = 150) ?(queries = 5_000) scale =
  {
    scale with
    node_count = Stdlib.min scale.node_count nodes;
    query_count = Stdlib.min scale.query_count queries;
    article_count = Stdlib.min scale.article_count 2_000;
  }

let corpus scale =
  Bib.Corpus.generate ~seed:scale.seed
    (Bib.Corpus.default_config ~article_count:scale.article_count)

let static_resolver scale =
  Dht.Static_dht.resolver
    (Dht.Static_dht.create ~seed:scale.seed ~node_count:scale.node_count ())

(* ------------------------------------------------------------------ *)
(* Fig. 7: query-structure mix. *)

let model_probability (mix : Query_gen.mix) = function
  | Query_gen.Author -> mix.p_author
  | Query_gen.Title -> mix.p_title
  | Query_gen.Year -> mix.p_year
  | Query_gen.Author_title -> mix.p_author_title
  | Query_gen.Author_year -> mix.p_author_year
  | Query_gen.Author_conf -> mix.p_author_conf
  | Query_gen.Author_prefix -> mix.p_author_prefix

let fig7 grid =
  let scale = Grid.scale grid in
  let gen = Query_gen.create ~articles:(corpus scale) ~seed:scale.seed () in
  let counts = Hashtbl.create 8 in
  for _ = 1 to scale.query_count do
    let event = Query_gen.next gen in
    let n = Option.value ~default:0 (Hashtbl.find_opt counts event.structure) in
    Hashtbl.replace counts event.structure (n + 1)
  done;
  let worst = ref 0.0 in
  let r =
    tabulate ~title:"Fig. 7 — Query-structure mix (model vs generated workload)"
      ~headers:[ "structure"; "model (BibFinder)"; "observed" ]
      (List.map
         (fun structure ->
           let label = Query_gen.structure_label structure in
           let model = model_probability Query_gen.bibfinder_mix structure in
           let observed =
             float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts structure))
             /. float_of_int scale.query_count
           in
           worst := Float.max !worst (Float.abs (model -. observed));
           ( [ label; Tabular.fmt_pct model; Tabular.fmt_pct observed ],
             [ m ("mix_observed/" ^ slug label) info observed ] ))
         Query_gen.all_structures)
  in
  { r with metrics = m "mix_abs_error_max" lower !worst :: r.metrics }

(* ------------------------------------------------------------------ *)
(* Figs. 9 and 10: popularity distributions. *)

let sample_ranks n =
  let candidates = [ 1; 2; 3; 5; 10; 20; 50; 100; 200; 500; 1_000; 2_000; 5_000; 10_000 ] in
  List.filter (fun r -> r <= n) candidates

let fit_log_log points =
  let usable =
    List.filter_map
      (fun (r, f) -> if f > 0.0 then Some (log (float_of_int r), log f) else None)
      points
  in
  match usable with
  | _ :: _ :: _ -> fst (Stdx.Stats.linear_fit usable)
  | _ -> Float.nan

let fig9 grid =
  let scale = Grid.scale grid in
  let law = Query_gen.paper_popularity ~article_count:scale.article_count in
  let gen = Query_gen.create ~articles:(corpus scale) ~seed:scale.seed () in
  let counts = Array.make scale.article_count 0 in
  let author_counts : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  for _ = 1 to scale.query_count do
    let event = Query_gen.next gen in
    counts.(event.target.id - 1) <- counts.(event.target.id - 1) + 1;
    (* The paper's author-popularity series (Fig. 9): how often each author
       appears in queries with an author field. *)
    match event.query with
    | Bib.Bib_query.Fields { author = Some a; _ } ->
        let key = Bib.Article.author_to_string a in
        Hashtbl.replace author_counts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt author_counts key))
    | Bib.Bib_query.Fields _ | Bib.Bib_query.Msd _ | Bib.Bib_query.Author_last_prefix _ ->
        ()
  done;
  let ranks = sample_ranks scale.article_count in
  let observed =
    List.map
      (fun r -> (r, float_of_int counts.(r - 1) /. float_of_int scale.query_count))
      ranks
  in
  let author_total = Hashtbl.fold (fun _ n acc -> acc + n) author_counts 0 in
  let authors_sorted =
    Stdx.Det_tbl.sorted_bindings ~compare:String.compare author_counts
    |> List.map snd
    |> List.sort (fun a b -> Int.compare b a)
    |> Array.of_list
  in
  let authors =
    List.filter_map
      (fun r ->
        if r <= Array.length authors_sorted && author_total > 0 then
          Some (r, float_of_int authors_sorted.(r - 1) /. float_of_int author_total)
        else None)
      ranks
  in
  let article_slope = fit_log_log observed and author_slope = fit_log_log authors in
  let f6 = Printf.sprintf "%.6f" in
  {
    blocks =
      [
        Heading "Fig. 9 — Article popularity (log-log rank/probability)";
        Table
          {
            headers = [ "rank"; "model p(i)"; "observed freq" ];
            rows =
              List.map
                (fun (rank, obs) ->
                  [ int rank; f6 (Stdx.Power_law.probability law rank); f6 obs ])
                observed;
          };
        Text
          (Printf.sprintf
             "article log-log slope: %.3f (power law; paper reports a power-law family)"
             article_slope);
        Text "author-query popularity (BibFinder-authors analogue):";
        Table
          {
            headers = [ "author rank"; "observed freq" ];
            rows = List.map (fun (rank, f) -> [ int rank; f6 f ]) authors;
          };
        Text (Printf.sprintf "author log-log slope: %.3f" author_slope);
      ];
    metrics =
      [
        m "article_slope" info article_slope;
        m "author_slope" info author_slope;
        m "top_rank_freq" info (match observed with (_, f) :: _ -> f | [] -> 0.0);
      ];
  }

let fig10 grid =
  let scale = Grid.scale grid in
  let law = Query_gen.paper_popularity ~article_count:scale.article_count in
  let worst = ref 0.0 in
  let r =
    tabulate ~title:"Fig. 10 — CCDF of article ranking, F(i) = 1 - 0.063 i^0.3"
      ~headers:[ "rank"; "paper formula"; "sampler CCDF" ]
      (List.map
         (fun rank ->
           let formula =
             Float.max 0.0
               (1.0
               -. (Stdx.Power_law.paper_c *. (float_of_int rank ** Stdx.Power_law.paper_alpha)))
           in
           let model = Stdx.Power_law.ccdf law rank in
           worst := Float.max !worst (Float.abs (formula -. model));
           let f4 = Printf.sprintf "%.4f" in
           ([ int rank; f4 formula; f4 model ], []))
         (sample_ranks scale.article_count))
  in
  { r with metrics = [ m "ccdf_abs_error_max" lower !worst ] }

(* ------------------------------------------------------------------ *)
(* Storage (Sections V-B and V-f). *)

let dblp_article_count = 115_879.

let storage grid =
  let report kind = Grid.report grid ~scheme:kind ~policy:Policy.no_cache in
  let simple_bytes = float_of_int (report Schemes.Simple).Runner.index_bytes in
  let scale_factor = dblp_article_count /. float_of_int (Grid.scale grid).article_count in
  tabulate ~title:"Section V-B — Index storage per scheme"
    ~headers:[ "scheme"; "index bytes"; "vs simple"; "scaled to DBLP"; "index/data ratio" ]
    ~note:
      "paper: simple 152 MB for full DBLP; complex +25%; flat +37%; overhead <= 0.5% of \
       29.1 GB"
    (List.map
       (fun kind ->
         let r = report kind in
         let scheme = slug (Schemes.label kind) in
         let bytes = float_of_int r.Runner.index_bytes in
         let overhead = (bytes /. simple_bytes) -. 1.0 in
         let ratio = bytes /. float_of_int r.Runner.article_bytes in
         ( [ Schemes.label kind; Tabular.fmt_bytes bytes; Tabular.fmt_pct overhead;
             Tabular.fmt_bytes (bytes *. scale_factor); Tabular.fmt_pct ratio ],
           [
             m ("index_bytes/" ^ scheme) lower bytes;
             m ("overhead_vs_simple/" ^ scheme) info overhead;
             m ("index_to_data_ratio/" ^ scheme) info ratio;
           ] ))
       Schemes.all)

let paper_keys_per_node = function
  | Schemes.Simple -> 155.0
  | Schemes.Flat -> 195.0
  | Schemes.Complex -> 180.0
  | Schemes.Complex_ac | Schemes.Prefix -> Float.nan

let keys grid =
  tabulate ~title:"Section V-f — Regular keys per node"
    ~headers:[ "scheme"; "measured"; "paper" ]
    (List.map
       (fun kind ->
         let mean =
           Runner.regular_keys_mean (Grid.report grid ~scheme:kind ~policy:Policy.no_cache)
         in
         ( [ Schemes.label kind; f0 mean; f0 (paper_keys_per_node kind) ],
           [ m ("keys_per_node/" ^ slug (Schemes.label kind)) info mean ] ))
       Schemes.all)

(* ------------------------------------------------------------------ *)
(* Figs. 11-15 and Table I. *)

(* Every policy placing shortcuts at a single node: unbounded, then LRU. *)
let single_placement = [ Policy.single_cache; Policy.lru 10; Policy.lru 20; Policy.lru 30 ]
let caching_policies = Policy.multi_cache :: single_placement

(* Every (scheme, policy) pair, scheme-major, with its report. *)
let grid_cells grid policies =
  List.concat_map
    (fun scheme ->
      List.map
        (fun policy ->
          (Schemes.label scheme, Policy.label policy, Grid.report grid ~scheme ~policy))
        policies)
    Schemes.all

(* One value per cell, printed with a proportional bar and reported as
   ["<name>/<scheme>/<policy>"]. *)
let bar_table grid ~title ~unit ?note ~name better policies value =
  let data =
    List.map (fun (scheme, policy, r) -> (scheme, policy, value r)) (grid_cells grid policies)
  in
  let max_value = List.fold_left (fun acc (_, _, v) -> Float.max acc v) 0.0 data in
  tabulate ~title ~headers:[ "scheme"; "policy"; unit; "" ] ?note
    (List.map
       (fun (scheme, policy, v) ->
         ( [ scheme; policy; f3 v; Tabular.bar ~width:30 ~max_value v ],
           [ m (name ^ "/" ^ slug scheme ^ "/" ^ slug policy) better v ] ))
       data)

let fig11 grid =
  bar_table grid ~title:"Fig. 11 — Average interactions per query" ~unit:"interactions"
    ~note:"paper: flat lowest (~2.3), simple ~3.3, complex ~3.5; caching reduces all"
    ~name:"interactions" lower (Policy.no_cache :: single_placement) Runner.interactions_mean

let fig12 grid =
  tabulate ~title:"Fig. 12 — Average traffic (bytes) per query"
    ~headers:[ "scheme"; "policy"; "normal B/query"; "cache B/query"; "total" ]
    ~note:"paper: flat ~2x the others (no indirection); caches save bandwidth"
    (List.map
       (fun (scheme, policy, r) ->
         let normal = Runner.normal_traffic_per_query r in
         let cache = Runner.cache_traffic_per_query r in
         let key = slug scheme ^ "/" ^ slug policy in
         ( [ scheme; policy; f0 normal; f0 cache; f0 (normal +. cache) ],
           [ m ("normal_bytes/" ^ key) lower normal; m ("cache_bytes/" ^ key) lower cache ] ))
       (grid_cells grid Policy.paper_policies))

let fig13 grid =
  let hits =
    bar_table grid ~title:"Fig. 13 — Cache efficiency: distributed hit ratio"
      ~unit:"hit ratio" ~name:"hit_ratio" higher caching_policies Runner.hit_ratio
  in
  let shares =
    List.map
      (fun (scheme, _, r) ->
        let share = Runner.first_node_hit_share r in
        {
          blocks =
            [
              Text
                (Printf.sprintf
                   "multi-cache hits at first node (%s): %s (paper: simple 86%%, flat \
                    99.9%%, complex 84%%)"
                   scheme (Tabular.fmt_pct share));
            ];
          metrics = [ m ("first_node_share/" ^ slug scheme) higher share ];
        })
      (grid_cells grid [ Policy.multi_cache ])
  in
  concat (hits :: shares)

let fig14 grid =
  let storage =
    bar_table grid ~title:"Fig. 14 — Average cached keys per node" ~unit:"cached keys"
      ~name:"cached_keys" info caching_policies Runner.cached_keys_mean
  in
  let extremes =
    tabulate ~title:"Fig. 14 (cont.) — cache extremes"
      ~headers:[ "scheme"; "policy"; "max"; "full"; "empty" ]
      ~note:
        "paper: single ~2x more space-efficient than multi; maxima 253-413; LRU10 72% \
         full, 4.4% empty overall"
      (List.map
         (fun (scheme, policy, r) ->
           let max_cached = Runner.cached_keys_max r in
           ( [ scheme; policy; int max_cached;
               Tabular.fmt_pct (Runner.caches_full_share r);
               Tabular.fmt_pct (Runner.caches_empty_share r) ],
             [ m ("max_cached/" ^ slug scheme ^ "/" ^ slug policy) info
                 (float_of_int max_cached) ] ))
         (grid_cells grid caching_policies))
  in
  concat [ storage; extremes ]

let fig15 grid =
  let scale = Grid.scale grid in
  let series policy =
    let label = Policy.label policy in
    let touches =
      Array.copy (Grid.report grid ~scheme:Schemes.Simple ~policy).Runner.node_touches
    in
    Array.sort (fun a b -> Int.compare b a) touches;
    let share rank = float_of_int touches.(rank - 1) /. float_of_int scale.query_count in
    let ranks =
      List.filter (fun i -> i <= Array.length touches) [ 1; 2; 3; 5; 10; 20; 50; 100; 200; 500 ]
    in
    let gini = Stdx.Stats.gini (Array.map float_of_int touches) in
    let line =
      Printf.sprintf "%-12s" label
      ^ String.concat ""
          (List.map
             (fun rank -> Printf.sprintf "  #%d:%s" rank (Tabular.fmt_pct (share rank)))
             ranks)
      ^ Printf.sprintf "  (gini %.2f)" gini
    in
    ( Text line,
      [
        m ("gini/" ^ slug label) info gini;
        m ("busiest_share/" ^ slug label) info (match ranks with [] -> 0.0 | _ -> share 1);
      ] )
  in
  let lines, metrics =
    List.split (List.map series [ Policy.no_cache; Policy.single_cache; Policy.lru 30 ])
  in
  {
    blocks =
      (Heading "Fig. 15 — Hot-spots: % of queries processed, by node rank (simple scheme)"
       :: lines)
      @ [ Text "paper: busiest node sees almost 1 in 10 queries; caching slightly relieves it" ];
    metrics = List.concat metrics;
  }

let table1 grid =
  tabulate ~title:"Table I — Queries to non-indexed data"
    ~headers:[ "policy"; "Simple"; "Flat"; "Complex" ]
    ~note:"paper (50k queries): no cache ~2,502-2,507; LRU30 810-874; single-cache 563-600"
    (List.map
       (fun policy ->
         let errors =
           List.map
             (fun scheme ->
               let r = Grid.report grid ~scheme ~policy in
               (Schemes.label scheme, float_of_int r.Runner.errors))
             Schemes.all
         in
         ( Policy.label policy :: List.map (fun (_, e) -> f0 e) errors,
           List.map
             (fun (scheme, e) ->
               m ("errors/" ^ slug scheme ^ "/" ^ slug (Policy.label policy)) lower e)
             errors ))
       [ Policy.no_cache; Policy.lru 30; Policy.single_cache ])

(* ------------------------------------------------------------------ *)
(* Ablations. *)

let ablation_substrate grid =
  (* The point of this ablation is metric equality across substrates, not
     scale; capping it keeps CAN's O(n)-per-hop simulation affordable. *)
  let base = config_of_scale (capped (Grid.scale grid)) in
  tabulate ~title:"Ablation — substrate independence (simple scheme, single-cache)"
    ~headers:[ "substrate"; "interactions"; "normal B/query"; "routing B/query" ]
    ~note:"index-layer metrics are substrate-independent; Chord pays only routing-hop overhead"
    (List.map
       (fun (label, substrate, charge_route_hops) ->
         let r =
           Runner.run
             {
               base with
               substrate;
               charge_route_hops;
               scheme = Schemes.Simple;
               policy = Policy.single_cache;
             }
         in
         let interactions = Runner.interactions_mean r in
         let normal = Runner.normal_traffic_per_query r in
         let routing =
           float_of_int (Runner.maintenance_bytes r)
           /. float_of_int (Stdx.Stats.Summary.count r.Runner.interactions)
         in
         let key = slug label in
         ( [ label; f3 interactions; f0 normal; f0 routing ],
           [
             m ("interactions/" ^ key) lower interactions;
             m ("normal_bytes/" ^ key) lower normal;
             m ("routing_bytes/" ^ key) lower routing;
           ] ))
       [
         ("Static oracle", Runner.Static, false);
         ("Chord", Runner.Chord, true);
         ("Pastry", Runner.Pastry, true);
         ("CAN (2-d)", Runner.Can, true);
         ("Kademlia", Runner.Kademlia, true);
       ])

let ablation_skew grid =
  (* A Zipf family gives a clean monotone axis: s = 0 is uniform popularity,
     larger s concentrates queries on fewer articles. *)
  let base = config_of_scale (Grid.scale grid) in
  tabulate ~title:"Ablation — popularity skew vs cache efficiency (simple, LRU30)"
    ~headers:[ "Zipf exponent"; "hit ratio"; "interactions" ]
    ~note:
      "uniform popularity (s = 0) defeats the cache; the heavier the skew, the\n\
       bigger the caching payoff — the mechanism behind Figs. 11-13"
    (List.map
       (fun s ->
         let r =
           Runner.run
             {
               base with
               popularity = Runner.Zipf s;
               scheme = Schemes.Simple;
               policy = Policy.lru 30;
             }
         in
         let hit_ratio = Runner.hit_ratio r and interactions = Runner.interactions_mean r in
         let key = "a" ^ fnum s in
         ( [ Printf.sprintf "%.1f" s; Tabular.fmt_pct hit_ratio; f3 interactions ],
           [
             m ("hit_ratio/" ^ key) higher hit_ratio;
             m ("interactions/" ^ key) lower interactions;
           ] ))
       [ 0.0; 0.4; 0.8; 1.2 ])

let ablation_replication grid =
  (* Store the simple scheme's index keys in replicated stores and measure
     how many survive node failures — Section IV-D's availability argument.
     Failures are drawn deterministically from the seed. *)
  let scale = Grid.scale grid in
  let resolver = static_resolver scale in
  let edges =
    P2pindex.Scheme.collection_edges ~compare_query:Bib.Bib_query.compare
      (Schemes.scheme Schemes.Simple)
      (Array.to_list (Array.map Bib.Bib_query.msd (corpus scale)))
  in
  let keys =
    List.sort_uniq Hashing.Key.compare
      (List.map
         (fun { P2pindex.Scheme.parent; _ } ->
           Hashing.Key.of_string (Bib.Bib_query.to_string parent))
         edges)
  in
  let row replication failed_fraction =
    let store : unit Storage.Replicated_store.t =
      Storage.Replicated_store.create ~resolver ~replication ()
    in
    List.iter (fun key -> Storage.Replicated_store.insert store ~key ~len:0 ()) keys;
    let g = Stdx.Prng.create ~seed:(Int64.add scale.seed 77L) in
    let victims = int_of_float (failed_fraction *. float_of_int scale.node_count) in
    let order = Array.init scale.node_count (fun i -> i) in
    Stdx.Prng.shuffle g order;
    for i = 0 to victims - 1 do
      Storage.Replicated_store.fail_node store order.(i)
    done;
    let surviving =
      List.fold_left
        (fun acc key -> if Storage.Replicated_store.mem store key then acc + 1 else acc)
        0 keys
    in
    let available = float_of_int surviving /. float_of_int (List.length keys) in
    let entries = Storage.Replicated_store.total_replica_entries store in
    let key = "r" ^ int replication ^ "/f" ^ fnum failed_fraction in
    ( [ int replication; Tabular.fmt_pct failed_fraction; Tabular.fmt_pct available; int entries ],
      [
        m ("available_keys/" ^ key) higher available;
        m ("replica_entries/" ^ key) info (float_of_int entries);
      ] )
  in
  tabulate ~title:"Ablation — index availability under node failures (simple scheme)"
    ~headers:[ "replication"; "nodes failed"; "index keys available"; "replica entries" ]
    ~note:
      "replication (Section IV-D) trades storage for availability: with r replicas,\n\
       a key is lost only when all r consecutive holders fail"
    (List.concat_map (fun r -> List.map (row r) [ 0.1; 0.3; 0.5 ]) [ 1; 2; 3 ])

let ablation_deletion grid =
  (* Read/write semantics (Section IV-C): deleting a file must remove every
     index path to it — recursively, when a mapping's target dies — while
     shared coarse entries keep serving the surviving files. *)
  let scale = Grid.scale grid in
  let articles = corpus scale in
  let resolver = static_resolver scale in
  let reachable index (a : Bib.Article.t) =
    let query = Bib.Bib_query.author_q (List.hd a.Bib.Article.authors) in
    List.exists
      (fun (msd, _file) -> Bib.Bib_query.equal msd (Bib.Bib_query.msd a))
      (Bib.Bib_index.search index query)
  in
  let count p arr = Array.fold_left (fun acc a -> if p a then acc + 1 else acc) 0 arr in
  tabulate ~title:"Ablation — read/write semantics: deletion cleans the indexes"
    ~headers:[ "articles deleted"; "mappings before"; "after"; "dangling paths"; "survivors lost" ]
    ~note:
      "deleting a file removes its mappings recursively (dangling must be 0) while\n\
       shared coarse entries keep serving the surviving files (lost must be 0)"
    (List.map
       (fun deleted_fraction ->
         let index = Bib.Bib_index.create ~resolver () in
         Bib.Bib_index.publish_corpus index ~kind:Schemes.Simple articles;
         let before = Bib.Bib_index.mapping_count index in
         let victim_count = int_of_float (deleted_fraction *. float_of_int scale.article_count) in
         let victims = Array.sub articles 0 victim_count in
         let survivors = Array.sub articles victim_count (scale.article_count - victim_count) in
         Array.iter
           (fun a ->
             Bib.Bib_index.unpublish index ~scheme:(Schemes.scheme Schemes.Simple)
               ~msd:(Bib.Bib_query.msd a))
           victims;
         (* Deleted articles still reachable, and survivors lost: both must be 0. *)
         let dangling = count (reachable index) victims in
         let lost = count (fun a -> not (reachable index a)) survivors in
         let after = Bib.Bib_index.mapping_count index in
         let key = "f" ^ fnum deleted_fraction in
         ( [ Tabular.fmt_pct deleted_fraction; int before; int after; int dangling; int lost ],
           [
             m ("dangling/" ^ key) lower (float_of_int dangling);
             m ("survivors_lost/" ^ key) lower (float_of_int lost);
             m ("mappings_after/" ^ key) info (float_of_int after);
           ] ))
       [ 0.1; 0.5; 1.0 ])

let ablation_hotspot grid =
  (* Section V-g: "any optimization of the underlying P2P DHT substrate for
     hot-spot avoidance (e.g., using replication) will apply to index
     accesses as well."  Replicate every index key on r nodes and spread
     reads round-robin across the replicas; measure the busiest node's load
     and the overall imbalance. *)
  let scale = Grid.scale grid in
  let resolver = static_resolver scale in
  let gen =
    Workload.Query_gen.create ~articles:(corpus scale)
      ~seed:(Int64.add scale.seed 1_000_003L) ()
  in
  (* Per-key interaction counts from the no-cache walk (entry query, its
     chain, and the failed probe of non-indexed queries). *)
  let key_counts : (string, int) Hashtbl.t = Hashtbl.create 4096 in
  let bump q =
    let s = Bib.Bib_query.to_string q in
    Hashtbl.replace key_counts s (1 + Option.value ~default:0 (Hashtbl.find_opt key_counts s))
  in
  for _ = 1 to scale.query_count do
    let event = Workload.Query_gen.next gen in
    match Schemes.chain_to Schemes.Simple event.target event.query with
    | chain ->
        bump event.query;
        List.iter bump chain
    | exception Invalid_argument _ ->
        (* Non-indexed shape: the failed probe, then the generalized chain. *)
        bump event.query;
        let fallback =
          List.find
            (fun g -> Bib.Bib_query.matches_article g event.target)
            (Bib.Bib_query.generalizations event.query)
        in
        bump fallback;
        List.iter bump (Schemes.chain_to Schemes.Simple event.target fallback)
  done;
  let row key_replicas =
    let loads = Array.make scale.node_count 0.0 in
    (* Float load shares accumulate per node: iterate keys in sorted order so
       the addition order (and the rounding it implies) is reproducible. *)
    Stdx.Det_tbl.iter_sorted ~compare:String.compare
      (fun key_string count ->
        let key = Hashing.Key.of_string key_string in
        let replicas = Dht.Resolver.replicas resolver key key_replicas in
        let n = List.length replicas in
        (* Round-robin reads: each replica takes an equal share. *)
        List.iter
          (fun node -> loads.(node) <- loads.(node) +. (float_of_int count /. float_of_int n))
          replicas)
      key_counts;
    let total = Array.fold_left ( +. ) 0.0 loads in
    let busiest = Array.fold_left Float.max 0.0 loads in
    (* The busiest node's share of all interactions. *)
    let share = if total > 0.0 then busiest /. total else 0.0 in
    let gini = Stdx.Stats.gini loads in
    let key = "r" ^ int key_replicas in
    ( [ int key_replicas; Tabular.fmt_pct share; f3 gini ],
      [ m ("busiest_share/" ^ key) lower share; m ("gini/" ^ key) lower gini ] )
  in
  tabulate ~title:"Ablation — hot-spot relief through key replication (simple, no cache)"
    ~headers:[ "replicas/key"; "busiest node"; "load gini" ]
    ~note:
      "spreading reads over r replicas divides the hottest key's load by r — the\n\
       substrate-level hot-spot avoidance the paper defers to (Section V-g)"
    (List.map row [ 1; 2; 4; 8 ])

let ablation_scheme grid =
  (* The Complex_ac variant adds an (author, conference) entry-point index.
     Under a workload where users actually combine author and venue, the
     entry point turns recoverable errors into direct chains; the cost is
     extra index storage. *)
  let mix = { Query_gen.bibfinder_mix with Query_gen.p_author = 0.40; p_author_conf = 0.25 } in
  let base = { (config_of_scale (Grid.scale grid)) with mix; policy = Policy.no_cache } in
  tabulate ~title:"Ablation — the author+conference entry point (25% author+conf queries)"
    ~headers:[ "scheme"; "interactions"; "non-indexed errors"; "index storage" ]
    ~note:
      "the extra index turns author+conference queries from recoverable errors into\n\
       direct chains, at the price of more index storage (Section IV-C's trade-off)"
    (List.map
       (fun scheme ->
         let r = Runner.run { base with scheme } in
         let interactions = Runner.interactions_mean r in
         let megabytes = float_of_int r.Runner.index_bytes /. (1024.0 *. 1024.0) in
         let key = slug (Schemes.label scheme) in
         ( [ Schemes.label scheme; f3 interactions; int r.Runner.errors;
             Printf.sprintf "%.1f MB" megabytes ],
           [
             m ("interactions/" ^ key) lower interactions;
             m ("errors/" ^ key) lower (float_of_int r.Runner.errors);
             m ("index_mb/" ^ key) lower megabytes;
           ] ))
       [ Schemes.Complex; Schemes.Complex_ac ])

let ablation_churn grid =
  (* The churned run mode end-to-end: nodes crash and rejoin on seeded
     session lifetimes while the workload runs; soft state is republished
     and repaired.  Availability degrades with the churn rate and recovers
     with replication — Section IV-D's argument, measured.  The run length
     is query_count / query_rate virtual seconds, so the maintenance
     periods below are chosen to fire several times even at quick scale. *)
  let base =
    {
      (config_of_scale (Grid.scale grid)) with
      scheme = Schemes.Simple;
      policy = Policy.no_cache;
    }
  in
  let row churn_rate replication =
    let churn =
      {
        Runner.default_churn with
        churn_rate;
        replication;
        ttl = 90.0;
        republish_period = 30.0;
        repair_period = 10.0;
      }
    in
    let r = Runner.run { base with churn = Some churn } in
    let live_nodes_end =
      match
        List.find_opt
          (fun (f : Obs.Metrics.family) -> String.equal f.name "p2pindex_churn_live_nodes")
          r.Runner.metrics
      with
      | Some { series = { value = Obs.Metrics.Gauge_value v; _ } :: _; _ } -> v
      | _ -> float_of_int base.Runner.node_count
    in
    let availability = Runner.availability r in
    let interactions = Runner.interactions_mean r in
    let maintenance = Runner.maintenance_traffic_per_query r in
    let key = "c" ^ fnum churn_rate ^ "/r" ^ int replication in
    ( [ Printf.sprintf "%g" churn_rate; int replication; Tabular.fmt_pct availability;
        f3 interactions; f0 maintenance; f0 live_nodes_end ],
      [
        m ("availability/" ^ key) higher availability;
        m ("interactions/" ^ key) lower interactions;
        m ("maint_bytes/" ^ key) lower maintenance;
      ] )
  in
  tabulate ~title:"Ablation — availability under churn (simple scheme, no cache)"
    ~headers:
      [ "churn rate (1/s)"; "replication"; "availability"; "interactions";
        "maint B/query"; "live nodes at end" ]
    ~note:
      "crash-stop failures lose index shards and caches; TTLs, republication and\n\
       repair restore them.  Availability falls as churn rises and climbs back\n\
       with replication — the soft-state index survives a moving population"
    (List.concat_map (fun c -> List.map (row c) [ 1; 3 ]) [ 0.0; 0.0005; 0.002; 0.008 ])

(* ------------------------------------------------------------------ *)
(* Sweeps. *)

let fault_sweep grid =
  (* Lookup success under message loss, across the retry budget.  Every
     cell shares the duplicate rate and latency; only loss and the retry
     budget vary, so the table isolates what retries + hedging buy back.
     Capped like the substrate ablation: the point is rates, not scale.
     All randomness is seeded, so the same scale prints the same table. *)
  let base =
    {
      (config_of_scale (capped (Grid.scale grid))) with
      scheme = Schemes.Simple;
      policy = Policy.no_cache;
    }
  in
  let row loss_rate retries =
    let hedged = retries > 0 in
    let faults =
      {
        Runner.default_faults with
        loss_rate;
        duplicate_rate = 0.05;
        latency_mean = 0.02;
        rpc_retries = retries;
        hedge = hedged;
        fault_replication = 3;
      }
    in
    let r = Runner.run { base with faults = Some faults } in
    (* RPC exchanges answered within budget, and sessions that found their
       target (replica failover sits above the per-exchange budget). *)
    let success = Runner.lookup_success_rate r in
    let availability = Runner.availability r in
    let interactions = Runner.interactions_mean r in
    let key = "l" ^ fnum loss_rate ^ "/r" ^ int retries in
    ( [ Printf.sprintf "%g" loss_rate; int retries; yes_no hedged; Tabular.fmt_pct success;
        Tabular.fmt_pct availability; f3 interactions; int (Runner.rpc_timeouts r);
        int (Runner.rpc_retries r); int (Runner.rpc_hedges_won r) ],
      [
        m ("rpc_success/" ^ key) higher success;
        m ("availability/" ^ key) higher availability;
        m ("interactions/" ^ key) lower interactions;
        m ("timeouts/" ^ key) info (float_of_int (Runner.rpc_timeouts r));
      ] )
  in
  tabulate
    ~title:"Fault sweep — lookup success vs message loss x retry budget (replication 3)"
    ~headers:
      [ "loss rate"; "retries"; "hedged"; "rpc success"; "availability"; "interactions";
        "timeouts"; "retries used"; "hedges won" ]
    ~note:
      "with no retry budget, per-exchange success collapses to (1-loss)^2; bounded\n\
       backoff retries plus a hedged second request to the next replica recover\n\
       it, and replica failover keeps session availability near 100%"
    (List.concat_map (fun l -> List.map (row l) [ 0; 2 ]) [ 0.0; 0.05; 0.2 ])

let concurrency_sweep grid =
  (* The singleflight experiment: the same hot-spot-prone workload
     (Fig. 15's load concentration) run with overlapping sessions.  RPC
     latency gives probes a window in which identical probes from other
     sessions can coalesce; fault rates stay zero and the timeout is kept
     far above any drawn latency so nothing is lost or retried — the
     traffic difference is coalescing and nothing else.  Capped like the
     fault sweep; all randomness is seeded, so the same scale prints the
     same table. *)
  let base =
    {
      (config_of_scale (capped ~nodes:100 ~queries:1_500 (Grid.scale grid))) with
      scheme = Schemes.Simple;
      policy = Policy.no_cache;
      faults = Some { Runner.default_faults with latency_mean = 0.05; rpc_timeout = 50.0 };
    }
  in
  let row (concurrency, coalesce) =
    let r = Sharded.run ~concurrency ~coalesce base in
    let normal = Runner.normal_traffic_per_query r in
    (* Includes the coalesced followers' consultation tickets. *)
    let cache = Runner.cache_traffic_per_query r in
    (* Mean arrival-to-completion virtual seconds (0 at concurrency 1). *)
    let latency = Stdx.Stats.Summary.mean r.Runner.session_latency in
    let key = "c" ^ int concurrency ^ if coalesce then "/coalesce" else "/plain" in
    ( [ int concurrency; yes_no coalesce; int (Runner.coalesced r);
        Printf.sprintf "%.1f" normal; Printf.sprintf "%.1f" cache;
        Printf.sprintf "%.3f s" latency; int r.Runner.peak_in_flight ],
      [
        m ("normal_bytes/" ^ key) lower normal;
        m ("cache_bytes/" ^ key) info cache;
        m ("coalesced/" ^ key) info (float_of_int (Runner.coalesced r));
        m ("session_latency/" ^ key) lower latency;
        m ("peak_in_flight/" ^ key) info (float_of_int r.Runner.peak_in_flight);
      ] )
  in
  tabulate ~title:"Concurrency sweep — singleflight coalescing under overlapping sessions"
    ~headers:
      [ "concurrency"; "coalesce"; "coalesced"; "normal B/query"; "cache B/query";
        "session latency"; "peak in flight" ]
    ~note:
      "overlapping sessions aim identical probes at the hot keys; with coalescing a\n\
       follower rides the in-flight response for a small consultation ticket, so\n\
       normal traffic per query drops as concurrency grows"
    (List.map row
       ((1, false) :: List.concat_map (fun c -> [ (c, false); (c, true) ]) [ 4; 16; 64 ]))

let prefix_sweep grid =
  (* The hashed schemes can only answer [Smi*] by flooding every node and
     filtering; the prefix index files terms under order-preserving keys,
     so the same query routes to the few nodes covering one ring arc.
     Two measurements per prefix length: a standalone harness that prices
     the same probe stream three ways (direct exchanges, spanning-tree
     multicast, broadcast-and-filter) on one billed network, and a full
     [Runner.run] with the prefix scheme for the end-to-end walk numbers.
     Probes are capped — the point is per-query means, not scale — and
     every draw is seeded, so the same scale prints the same table. *)
  let scale = Grid.scale grid in
  let probe_count = Stdlib.min scale.query_count 1_000 in
  let articles = Array.to_list (corpus scale) in
  let authors = List.concat_map (fun (a : Bib.Article.t) -> a.authors) articles in
  let lasts =
    List.map (fun (x : Bib.Article.author) -> x.Bib.Article.last) authors
    |> List.sort_uniq String.compare
    |> Array.of_list
  in
  let entries =
    List.map (fun (x : Bib.Article.author) -> (x.last, Bib.Bib_query.author_q x)) authors
    |> List.sort_uniq (fun (t1, q1) (t2, q2) ->
           match String.compare t1 t2 with 0 -> Bib.Bib_query.compare q1 q2 | c -> c)
  in
  let resolver = static_resolver scale in
  let row len =
    let network = Dht.Network.create ~node_count:scale.node_count () in
    let rpc = Dht.Rpc.create ~network () in
    let pindex =
      Prefix.Prefix_index.create ~rpc ~render:Bib.Bib_query.to_string ~resolver ()
    in
    (* The multicast message bound: one message per covering member plus
       one per tree edge; non-negative slack certifies it held. *)
    let messages, depth, slack =
      match Prefix.Prefix_index.publish_multicast pindex entries with
      | None -> (0, 0, 0)
      | Some (s : Prefix.Multicast.stats) ->
          (s.messages, s.depth, s.fanout + (s.fanout - 1) - s.messages)
    in
    Dht.Network.reset network;
    let prng = Stdx.Prng.create ~seed:scale.seed in
    let covering = ref 0 and direct = ref 0 and multicast = ref 0 and broadcast = ref 0 in
    let measure total f =
      let before = Dht.Network.total_bytes network in
      let (_ : (string * Bib.Bib_query.t) list) = f () in
      total := !total + Dht.Network.total_bytes network - before
    in
    for _ = 1 to probe_count do
      let last = Stdx.Prng.pick prng lasts in
      let prefix = String.sub last 0 (Stdlib.min len (String.length last)) in
      covering :=
        !covering + List.length (Prefix.Range_router.covering_prefix resolver prefix);
      measure direct (fun () -> snd (Prefix.Prefix_index.query pindex ~prefix));
      measure multicast (fun () -> snd (Prefix.Prefix_index.query ~multicast:true pindex ~prefix));
      measure broadcast (fun () -> Prefix.Prefix_index.query_broadcast pindex ~prefix)
    done;
    let per x = float_of_int !x /. float_of_int probe_count in
    let r =
      Runner.run
        {
          (config_of_scale scale) with
          scheme = Schemes.Prefix;
          policy = Policy.no_cache;
          mix = Query_gen.prefix_mix Runner.default_config.mix;
          prefix = Some { Runner.prefix_len = len; multicast = true };
        }
    in
    let routed = per covering in
    let nodes = float_of_int scale.node_count in
    let interactions = Runner.interactions_mean r in
    let key = "l" ^ int len in
    ( [ int len; Printf.sprintf "%.2f" routed; int scale.node_count; f0 (per direct);
        f0 (per multicast); f0 (per broadcast); int messages; int depth; f3 interactions ],
      [
        m ("routed_nodes/" ^ key) lower routed;
        m ("node_savings/" ^ key) higher (nodes -. routed);
        m ("broadcast_nodes/" ^ key) info nodes;
        m ("routed_bytes_direct/" ^ key) lower (per direct);
        m ("routed_bytes_multicast/" ^ key) lower (per multicast);
        m ("broadcast_bytes/" ^ key) info (per broadcast);
        m ("multicast_messages/" ^ key) lower (float_of_int messages);
        m ("multicast_bound_slack/" ^ key) higher (float_of_int slack);
        m ("tree_depth/" ^ key) info (float_of_int depth);
        m ("interactions/" ^ key) lower interactions;
        m ("normal_bytes/" ^ key) lower (Runner.normal_traffic_per_query r);
      ] )
  in
  tabulate ~title:"Prefix sweep — routed range search vs broadcast-and-filter"
    ~headers:
      [ "prefix len"; "routed nodes"; "bcast nodes"; "direct B/q"; "mcast B/q";
        "bcast B/q"; "install msgs"; "tree depth"; "interactions" ]
    ~note:
      "a prefix query routes to the few nodes covering its key arc instead of\n\
       flooding all of them; multicast trades initiator exchanges for relay\n\
       bytes, and index installs ride a spanning tree whose message count\n\
       stays within covering members + tree edges"
    (List.map row [ 1; 2; 3 ])

let quorum_sweep grid =
  (* Consistency under churn, over read quorum x churn rate, at
     replication 3 with W = 3 and digest-based anti-entropy replacing
     the repair walk.  Every row is a churned run whose replicas really
     diverge (paused replicas sleep through writes and rejoin lagging),
     so R is the only knob: consulting more replicas per lookup lowers
     the stale-read rate at the price of extra probes.  Republication
     is quickened so even the capped quick scale spans several rounds
     of virtual time — writes during a replica's nap are what create
     the staleness R masks.  Capped like the fault sweep; all
     randomness is seeded, so the same scale prints the same table. *)
  let base =
    {
      (config_of_scale (capped (Grid.scale grid))) with
      scheme = Schemes.Simple;
      policy = Policy.no_cache;
    }
  in
  let row churn_rate read_quorum =
    let churn =
      { Runner.default_churn with churn_rate; replication = 3; republish_period = 20.0 }
    in
    let quorum = { Runner.read_quorum; write_quorum = 3; anti_entropy_interval = 10.0 } in
    let r = Runner.run { base with churn = Some churn; quorum = Some quorum } in
    (* Stale: quorum reads a fully-consistent read would have improved on.
       Full state: what digestless exchanges would have moved. *)
    let stale = Runner.stale_read_rate r in
    let availability = Runner.availability r in
    let maintenance = Runner.maintenance_traffic_per_query r in
    let digest = (Runner.antientropy_digest_bytes r) in
    let shipped = (Runner.antientropy_shipped_bytes r) in
    let full_state = (Runner.antientropy_full_state_bytes r) in
    let key = "c" ^ fnum churn_rate ^ "/q" ^ int read_quorum in
    ( [ Printf.sprintf "%g" churn_rate; int read_quorum; Tabular.fmt_pct stale;
        Tabular.fmt_pct availability; int (Runner.quorum_reads r);
        int (Runner.quorum_read_repairs r); int (Runner.quorum_write_failures r);
        f0 maintenance; int digest; int shipped; int full_state ],
      [
        m ("stale_rate/" ^ key) lower stale;
        m ("availability/" ^ key) higher availability;
        m ("read_repairs/" ^ key) info (float_of_int (Runner.quorum_read_repairs r));
        m ("under_acked/" ^ key) info (float_of_int (Runner.quorum_write_failures r));
        m ("maint_bytes/" ^ key) lower maintenance;
        m ("ae_digest_bytes/" ^ key) lower (float_of_int digest);
        m ("ae_shipped_bytes/" ^ key) lower (float_of_int shipped);
        m ("ae_savings/" ^ key) higher (float_of_int (full_state - digest - shipped));
      ] )
  in
  tabulate
    ~title:
      "Quorum sweep — stale reads vs read quorum under churn (replication 3, W=3, \
       anti-entropy on)"
    ~headers:
      [ "churn rate"; "R"; "stale reads"; "availability"; "quorum reads"; "read repairs";
        "under-acked"; "maint B/query"; "digest B"; "shipped B"; "full-state B" ]
    ~note:
      "consulting more replicas per lookup lowers the stale-read rate at fixed\n\
       churn; anti-entropy ships only the diverged keys, so digest + shipped\n\
       bytes stay below what full-state exchanges would have moved"
    (List.concat_map (fun c -> List.map (row c) [ 1; 2; 3 ]) [ 0.002; 0.01 ])

let scale_sweep_shards = 4

let scale_sweep grid =
  (* The sharded engine at population scale: each rung partitions the
     network into four isolated shards, runs them on one worker (so the
     per-phase allocation profile is exact — GC counters are per-domain)
     and merges deterministically.  The phase collector uses the null
     clock, so every number in the row, allocation words included, is
     byte-reproducible.  The rungs are absolute — the sweep measures how
     cost per query holds as the network grows — and the million-node
     rung only rides the paper scale, so the quick bench gate stays
     fast. *)
  let scale = Grid.scale grid in
  let ladder =
    [ (10_000, 5_000, 20_000); (100_000, 20_000, 100_000) ]
    @ if scale.node_count >= paper_scale.node_count then [ (1_000_000, 100_000, 1_000_000) ]
      else []
  in
  let row (nodes, articles, queries) =
    let phases = Obs.Phase.create () in
    let cfg =
      {
        Runner.default_config with
        scheme = Schemes.Simple;
        policy = Policy.no_cache;
        node_count = nodes;
        article_count = articles;
        query_count = queries;
        seed = scale.seed;
      }
    in
    let r = Sharded.run ~shards:scale_sweep_shards ~domains:1 ~phases cfg in
    let entries = Obs.Phase.entries phases in
    let minor_of (e : Obs.Phase.entry) = e.Obs.Phase.minor_words in
    let minor = List.fold_left (fun acc e -> acc +. minor_of e) 0.0 entries in
    let walk =
      match List.find_opt (fun (e : Obs.Phase.entry) -> e.Obs.Phase.phase = "walk") entries with
      | Some e -> minor_of e
      | None -> 0.0
    in
    let interactions = Runner.interactions_mean r in
    let normal = Runner.normal_traffic_per_query r in
    (* Minor-heap words per query over the whole run, setup included. *)
    let per_query = minor /. float_of_int queries in
    let key = "n" ^ int nodes in
    ( [ int nodes; int articles; int queries; f3 interactions; f0 normal;
        int r.Runner.errors; f0 per_query;
        Printf.sprintf "%.1f %%" (100.0 *. walk /. Float.max 1.0 minor) ],
      [
        m ("interactions/" ^ key) lower interactions;
        m ("normal_bytes/" ^ key) lower normal;
        m ("errors/" ^ key) lower (float_of_int r.Runner.errors);
        m ("minor_words_per_query/" ^ key) lower per_query;
      ]
      @ List.map
          (fun (e : Obs.Phase.entry) ->
            m ("phase_minor_words/" ^ key ^ "/" ^ slug e.Obs.Phase.phase) info (minor_of e))
          entries )
  in
  tabulate
    ~title:
      (Printf.sprintf
         "Scale sweep — population growth under the sharded engine (%d shards, \
          deterministic merge)"
         scale_sweep_shards)
    ~headers:
      [ "nodes"; "articles"; "queries"; "interactions"; "normal B/query"; "errors";
        "minor w/query"; "walk alloc share" ]
    ~note:
      "interactions per query are scale-free (the paper's point: the index, not\n\
       the population, prices a query); allocation per query stays flat, so the\n\
       flat per-node state holds at a million nodes"
    (List.map row ladder)

(* ------------------------------------------------------------------ *)

let all =
  [
    { id = "fig7"; run = fig7 };
    { id = "fig9"; run = fig9 };
    { id = "fig10"; run = fig10 };
    { id = "storage"; run = storage };
    { id = "keys"; run = keys };
    { id = "fig11"; run = fig11 };
    { id = "fig12"; run = fig12 };
    { id = "fig13"; run = fig13 };
    { id = "fig14"; run = fig14 };
    { id = "fig15"; run = fig15 };
    { id = "table1"; run = table1 };
    { id = "ablation-substrate"; run = ablation_substrate };
    { id = "ablation-skew"; run = ablation_skew };
    { id = "ablation-replication"; run = ablation_replication };
    { id = "ablation-deletion"; run = ablation_deletion };
    { id = "ablation-hotspot"; run = ablation_hotspot };
    { id = "ablation-scheme"; run = ablation_scheme };
    { id = "ablation-churn"; run = ablation_churn };
    { id = "fault-sweep"; run = fault_sweep };
    { id = "concurrency-sweep"; run = concurrency_sweep };
    { id = "prefix-sweep"; run = prefix_sweep };
    { id = "quorum-sweep"; run = quorum_sweep };
    { id = "scale-sweep"; run = scale_sweep };
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all
