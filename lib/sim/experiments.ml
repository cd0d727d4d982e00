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
(* Fig. 7: query-structure mix. *)

type mix_row = { structure : string; model : float; observed : float }

let model_probability (mix : Query_gen.mix) = function
  | Query_gen.Author -> mix.p_author
  | Query_gen.Title -> mix.p_title
  | Query_gen.Year -> mix.p_year
  | Query_gen.Author_title -> mix.p_author_title
  | Query_gen.Author_year -> mix.p_author_year
  | Query_gen.Author_conf -> mix.p_author_conf
  | Query_gen.Author_prefix -> mix.p_author_prefix

let fig7_query_mix scale =
  let articles =
    Bib.Corpus.generate ~seed:scale.seed
      (Bib.Corpus.default_config ~article_count:scale.article_count)
  in
  let gen = Query_gen.create ~articles ~seed:scale.seed () in
  let counts = Hashtbl.create 8 in
  for _ = 1 to scale.query_count do
    let event = Query_gen.next gen in
    let n = Option.value ~default:0 (Hashtbl.find_opt counts event.structure) in
    Hashtbl.replace counts event.structure (n + 1)
  done;
  List.map
    (fun structure ->
      let observed =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts structure))
        /. float_of_int scale.query_count
      in
      {
        structure = Query_gen.structure_label structure;
        model = model_probability Query_gen.bibfinder_mix structure;
        observed;
      })
    Query_gen.all_structures

(* ------------------------------------------------------------------ *)
(* Fig. 9: popularity distributions. *)

type popularity_series = {
  ranks : int list;
  article_probability : (int * float) list;
  observed_frequency : (int * float) list;
  fitted_slope : float;
  author_frequency : (int * float) list;
      (* observed author-query frequency by author popularity rank *)
  author_slope : float;
}

let sample_ranks n =
  let candidates = [ 1; 2; 3; 5; 10; 20; 50; 100; 200; 500; 1_000; 2_000; 5_000; 10_000 ] in
  List.filter (fun r -> r <= n) candidates

let fig9_popularity scale =
  let articles =
    Bib.Corpus.generate ~seed:scale.seed
      (Bib.Corpus.default_config ~article_count:scale.article_count)
  in
  let law = Query_gen.paper_popularity ~article_count:scale.article_count in
  let gen = Query_gen.create ~articles ~seed:scale.seed () in
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
  let observed_frequency =
    List.map
      (fun r -> (r, float_of_int counts.(r - 1) /. float_of_int scale.query_count))
      ranks
  in
  let fit_log_log points =
    let usable =
      List.filter_map
        (fun (r, f) -> if f > 0.0 then Some (log (float_of_int r), log f) else None)
        points
    in
    match usable with
    | _ :: _ :: _ ->
        let slope, _ = Stdx.Stats.linear_fit usable in
        slope
    | _ -> Float.nan
  in
  let author_total =
    Hashtbl.fold (fun _ n acc -> acc + n) author_counts 0
  in
  let authors_sorted =
    Stdx.Det_tbl.sorted_bindings ~compare:String.compare author_counts
    |> List.map snd
    |> List.sort (fun a b -> Int.compare b a)
    |> Array.of_list
  in
  let author_frequency =
    List.filter_map
      (fun r ->
        if r <= Array.length authors_sorted && author_total > 0 then
          Some (r, float_of_int authors_sorted.(r - 1) /. float_of_int author_total)
        else None)
      ranks
  in
  {
    ranks;
    article_probability = List.map (fun r -> (r, Stdx.Power_law.probability law r)) ranks;
    observed_frequency;
    fitted_slope = fit_log_log observed_frequency;
    author_frequency;
    author_slope = fit_log_log author_frequency;
  }

(* ------------------------------------------------------------------ *)
(* Fig. 10: the complementary CDF. *)

type ccdf_row = { rank : int; formula : float; model : float }

let fig10_ccdf scale =
  let law = Query_gen.paper_popularity ~article_count:scale.article_count in
  List.map
    (fun rank ->
      let formula =
        Float.max 0.0
          (1.0 -. (Stdx.Power_law.paper_c *. (float_of_int rank ** Stdx.Power_law.paper_alpha)))
      in
      { rank; formula; model = Stdx.Power_law.ccdf law rank })
    (sample_ranks scale.article_count)

(* ------------------------------------------------------------------ *)
(* Storage (Section V-B). *)

type storage_row = {
  scheme : string;
  index_bytes : int;
  overhead_vs_simple : float;
  article_bytes : int;
  index_to_data_ratio : float;
  dblp_scaled_bytes : float;
}

let dblp_article_count = 115_879.

let storage_overhead grid =
  let report kind = Grid.report grid ~scheme:kind ~policy:Policy.no_cache in
  let simple_bytes = (report Schemes.Simple).Runner.index_bytes in
  List.map
    (fun kind ->
      let r = report kind in
      let scale_factor =
        dblp_article_count /. float_of_int (Grid.scale grid).article_count
      in
      {
        scheme = Schemes.label kind;
        index_bytes = r.Runner.index_bytes;
        overhead_vs_simple =
          (float_of_int r.Runner.index_bytes /. float_of_int simple_bytes) -. 1.0;
        article_bytes = r.Runner.article_bytes;
        index_to_data_ratio =
          float_of_int r.Runner.index_bytes /. float_of_int r.Runner.article_bytes;
        dblp_scaled_bytes = float_of_int r.Runner.index_bytes *. scale_factor;
      })
    Schemes.all

type keys_row = { scheme : string; keys_per_node_mean : float; paper_value : float }

let paper_keys_per_node = function
  | Schemes.Simple -> 155.0
  | Schemes.Flat -> 195.0
  | Schemes.Complex -> 180.0
  | Schemes.Complex_ac | Schemes.Prefix -> Float.nan

let keys_per_node grid =
  List.map
    (fun kind ->
      let r = Grid.report grid ~scheme:kind ~policy:Policy.no_cache in
      {
        scheme = Schemes.label kind;
        keys_per_node_mean = Runner.regular_keys_mean r;
        paper_value = paper_keys_per_node kind;
      })
    Schemes.all

(* ------------------------------------------------------------------ *)
(* Figs. 11-14 and Table I. *)

type cell = { scheme : string; policy : string; value : float }

let fig11_policies = [ Policy.no_cache; Policy.single_cache; Policy.lru 10; Policy.lru 20; Policy.lru 30 ]
let fig12_policies = Policy.paper_policies
let caching_policies = [ Policy.multi_cache; Policy.single_cache; Policy.lru 10; Policy.lru 20; Policy.lru 30 ]

let cells grid policies metric =
  List.concat_map
    (fun scheme ->
      List.map
        (fun policy ->
          let r = Grid.report grid ~scheme ~policy in
          { scheme = Schemes.label scheme; policy = Policy.label policy; value = metric r })
        policies)
    Schemes.all

let fig11_interactions grid = cells grid fig11_policies Runner.interactions_mean

type traffic_cell = {
  scheme : string;
  policy : string;
  normal_bytes : float;
  cache_bytes : float;
}

let fig12_traffic grid =
  List.concat_map
    (fun scheme ->
      List.map
        (fun policy ->
          let r = Grid.report grid ~scheme ~policy in
          {
            scheme = Schemes.label scheme;
            policy = Policy.label policy;
            normal_bytes = Runner.normal_traffic_per_query r;
            cache_bytes = Runner.cache_traffic_per_query r;
          })
        fig12_policies)
    Schemes.all

let fig13_hit_ratio grid = cells grid caching_policies Runner.hit_ratio

let fig13_first_node_share grid =
  List.map
    (fun scheme ->
      let r = Grid.report grid ~scheme ~policy:Policy.multi_cache in
      {
        scheme = Schemes.label scheme;
        policy = Policy.label Policy.multi_cache;
        value = Runner.first_node_hit_share r;
      })
    Schemes.all

let fig14_cache_storage grid = cells grid caching_policies Runner.cached_keys_mean

type cache_extremes = {
  policy : string;
  scheme : string;
  max_cached : int;
  full_share : float;
  empty_share : float;
}

let fig14_extremes grid =
  List.concat_map
    (fun scheme ->
      List.map
        (fun policy ->
          let r = Grid.report grid ~scheme ~policy in
          {
            policy = Policy.label policy;
            scheme = Schemes.label scheme;
            max_cached = Runner.cached_keys_max r;
            full_share = Runner.caches_full_share r;
            empty_share = Runner.caches_empty_share r;
          })
        caching_policies)
    Schemes.all

type hotspot_series = {
  policy : string;
  share_by_rank : (int * float) list;
  gini : float;  (* load imbalance: 0 = balanced, 1 = one node does it all *)
}

let fig15_hotspots grid =
  let scale = Grid.scale grid in
  let series policy =
    let r = Grid.report grid ~scheme:Schemes.Simple ~policy in
    let touches = Array.copy r.Runner.node_touches in
    Array.sort (fun a b -> Int.compare b a) touches;
    let ranks =
      List.filter (fun i -> i <= Array.length touches)
        [ 1; 2; 3; 5; 10; 20; 50; 100; 200; 500 ]
    in
    {
      policy = Policy.label policy;
      share_by_rank =
        List.map
          (fun rank ->
            (rank, float_of_int touches.(rank - 1) /. float_of_int scale.query_count))
          ranks;
      gini = Stdx.Stats.gini (Array.map float_of_int touches);
    }
  in
  List.map series [ Policy.no_cache; Policy.single_cache; Policy.lru 30 ]

let table1_policies = [ Policy.no_cache; Policy.lru 30; Policy.single_cache ]

let table1_errors grid =
  List.concat_map
    (fun policy ->
      List.map
        (fun scheme ->
          let r = Grid.report grid ~scheme ~policy in
          {
            scheme = Schemes.label scheme;
            policy = Policy.label policy;
            value = float_of_int r.Runner.errors;
          })
        Schemes.all)
    table1_policies

(* ------------------------------------------------------------------ *)
(* Ablations. *)

type substrate_row = {
  substrate : string;
  interactions : float;
  normal_bytes : float;
  substrate_overhead_bytes : float;
}

let ablation_substrate scale =
  (* The point of this ablation is metric equality across substrates, not
     scale; capping it keeps CAN's O(n)-per-hop simulation affordable. *)
  let scale =
    {
      scale with
      node_count = Stdlib.min scale.node_count 150;
      query_count = Stdlib.min scale.query_count 5_000;
      article_count = Stdlib.min scale.article_count 2_000;
    }
  in
  let base = config_of_scale scale in
  let run substrate charge =
    Runner.run
      {
        base with
        substrate;
        charge_route_hops = charge;
        scheme = Schemes.Simple;
        policy = Policy.single_cache;
      }
  in
  let static = run Runner.Static false in
  let chord = run Runner.Chord true in
  let pastry = run Runner.Pastry true in
  let can = run Runner.Can true in
  let kademlia = run Runner.Kademlia true in
  let per_query bytes r =
    float_of_int bytes /. float_of_int (Stdx.Stats.Summary.count r.Runner.interactions)
  in
  [
    {
      substrate = "Static oracle";
      interactions = Runner.interactions_mean static;
      normal_bytes = Runner.normal_traffic_per_query static;
      substrate_overhead_bytes = per_query static.Runner.maintenance_bytes static;
    };
    {
      substrate = "Chord";
      interactions = Runner.interactions_mean chord;
      normal_bytes = Runner.normal_traffic_per_query chord;
      substrate_overhead_bytes = per_query chord.Runner.maintenance_bytes chord;
    };
    {
      substrate = "Pastry";
      interactions = Runner.interactions_mean pastry;
      normal_bytes = Runner.normal_traffic_per_query pastry;
      substrate_overhead_bytes = per_query pastry.Runner.maintenance_bytes pastry;
    };
    {
      substrate = "CAN (2-d)";
      interactions = Runner.interactions_mean can;
      normal_bytes = Runner.normal_traffic_per_query can;
      substrate_overhead_bytes = per_query can.Runner.maintenance_bytes can;
    };
    {
      substrate = "Kademlia";
      interactions = Runner.interactions_mean kademlia;
      normal_bytes = Runner.normal_traffic_per_query kademlia;
      substrate_overhead_bytes = per_query kademlia.Runner.maintenance_bytes kademlia;
    };
  ]

type skew_row = { alpha : float; hit_ratio : float; interactions : float }

let ablation_skew scale =
  (* A Zipf family gives a clean monotone axis: s = 0 is uniform popularity,
     larger s concentrates queries on fewer articles. *)
  let base = config_of_scale scale in
  List.map
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
      { alpha = s; hit_ratio = Runner.hit_ratio r; interactions = Runner.interactions_mean r })
    [ 0.0; 0.4; 0.8; 1.2 ]

type replication_row = {
  replication : int;
  failed_fraction : float;
  available_keys : float;  (* fraction of index keys still reachable *)
  storage_cost : int;  (* total replica entries *)
}

let ablation_replication scale =
  (* Store the simple scheme's index keys in replicated stores and measure
     how many survive node failures — Section IV-D's availability argument.
     Failures are drawn deterministically from the seed. *)
  let articles =
    Bib.Corpus.generate ~seed:scale.seed
      (Bib.Corpus.default_config ~article_count:scale.article_count)
  in
  let resolver =
    Dht.Static_dht.resolver
      (Dht.Static_dht.create ~seed:scale.seed ~node_count:scale.node_count ())
  in
  let edges =
    P2pindex.Scheme.collection_edges ~compare_query:Bib.Bib_query.compare
      (Schemes.scheme Schemes.Simple)
      (Array.to_list (Array.map Bib.Bib_query.msd articles))
  in
  let keys =
    List.sort_uniq Hashing.Key.compare
      (List.map
         (fun { P2pindex.Scheme.parent; _ } ->
           Hashing.Key.of_string (Bib.Bib_query.to_string parent))
         edges)
  in
  let rows = ref [] in
  List.iter
    (fun replication ->
      List.iter
        (fun failed_fraction ->
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
              (fun acc key ->
                if Storage.Replicated_store.available store key then acc + 1 else acc)
              0 keys
          in
          rows :=
            {
              replication;
              failed_fraction;
              available_keys = float_of_int surviving /. float_of_int (List.length keys);
              storage_cost = Storage.Replicated_store.total_replica_entries store;
            }
            :: !rows)
        [ 0.1; 0.3; 0.5 ])
    [ 1; 2; 3 ];
  List.rev !rows

type churn_row = {
  churn_rate : float;
  churn_replication : int;
  availability : float;
  churn_interactions : float;
  maintenance_per_query : float;
  live_nodes_end : float;  (* live nodes when the run ended *)
}

let churn_rates = [ 0.0; 0.0005; 0.002; 0.008 ]
let churn_replications = [ 1; 3 ]

let ablation_churn scale =
  (* The churned run mode end-to-end: nodes crash and rejoin on seeded
     session lifetimes while the workload runs; soft state is republished
     and repaired.  Availability degrades with the churn rate and recovers
     with replication — Section IV-D's argument, measured.  The run length
     is query_count / query_rate virtual seconds, so the maintenance
     periods below are chosen to fire several times even at quick scale. *)
  let base =
    { (config_of_scale scale) with scheme = Schemes.Simple; policy = Policy.no_cache }
  in
  let churn_of ~churn_rate ~replication =
    {
      Runner.default_churn with
      churn_rate;
      replication;
      ttl = 90.0;
      republish_period = 30.0;
      repair_period = 10.0;
    }
  in
  List.concat_map
    (fun churn_rate ->
      List.map
        (fun replication ->
          let r =
            Runner.run
              { base with churn = Some (churn_of ~churn_rate ~replication) }
          in
          let live_nodes_end =
            let metric =
              List.find_opt
                (fun (f : Obs.Metrics.family) ->
                  String.equal f.name "p2pindex_churn_live_nodes")
                r.Runner.metrics
            in
            match metric with
            | Some { series = { value = Obs.Metrics.Gauge_value v; _ } :: _; _ } -> v
            | _ -> float_of_int base.Runner.node_count
          in
          {
            churn_rate;
            churn_replication = replication;
            availability = Runner.availability r;
            churn_interactions = Runner.interactions_mean r;
            maintenance_per_query = Runner.maintenance_traffic_per_query r;
            live_nodes_end;
          })
        churn_replications)
    churn_rates

type fault_sweep_row = {
  sweep_loss_rate : float;
  sweep_retries : int;
  sweep_hedged : bool;
  lookup_success : float;  (* RPC exchanges answered within budget *)
  fault_availability : float;  (* sessions that found their target *)
  fault_interactions : float;
  sweep_timeouts : int;
  sweep_retries_used : int;
  sweep_hedges_won : int;
}

let fault_loss_rates = [ 0.0; 0.05; 0.2 ]
let fault_retry_budgets = [ 0; 2 ]

let fault_sweep scale =
  (* Lookup success under message loss, across the retry budget.  Every
     cell shares the duplicate rate and latency; only loss and the retry
     budget vary, so the table isolates what retries + hedging buy back.
     Capped like the substrate ablation: the point is rates, not scale.
     All randomness is seeded, so the same scale prints the same table. *)
  let scale =
    {
      scale with
      node_count = Stdlib.min scale.node_count 150;
      query_count = Stdlib.min scale.query_count 5_000;
      article_count = Stdlib.min scale.article_count 2_000;
    }
  in
  let base =
    { (config_of_scale scale) with scheme = Schemes.Simple; policy = Policy.no_cache }
  in
  List.concat_map
    (fun loss_rate ->
      List.map
        (fun retries ->
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
          {
            sweep_loss_rate = loss_rate;
            sweep_retries = retries;
            sweep_hedged = hedged;
            lookup_success = Runner.lookup_success_rate r;
            fault_availability = Runner.availability r;
            fault_interactions = Runner.interactions_mean r;
            sweep_timeouts = r.Runner.rpc_timeouts;
            sweep_retries_used = r.Runner.rpc_retries;
            sweep_hedges_won = r.Runner.rpc_hedges_won;
          })
        fault_retry_budgets)
    fault_loss_rates

type concurrency_row = {
  row_concurrency : int;
  row_coalesce : bool;
  row_coalesced : int;  (* probes that rode another probe's response *)
  row_normal_per_query : float;
  row_cache_per_query : float;
  row_session_latency : float;  (* mean arrival-to-completion, virtual s *)
  row_peak_in_flight : int;
}

let concurrency_levels = [ 1; 4; 16; 64 ]

let concurrency_sweep scale =
  (* The singleflight experiment: the same hot-spot-prone workload
     (Fig. 15's load concentration) run with overlapping sessions.  RPC
     latency gives probes a window in which identical probes from other
     sessions can coalesce; fault rates stay zero and the timeout is kept
     far above any drawn latency so nothing is lost or retried — the
     traffic difference is coalescing and nothing else.  Capped like the
     fault sweep; all randomness is seeded, so the same scale prints the
     same table. *)
  let scale =
    {
      scale with
      node_count = Stdlib.min scale.node_count 100;
      query_count = Stdlib.min scale.query_count 1_500;
      article_count = Stdlib.min scale.article_count 2_000;
    }
  in
  let faults =
    { Runner.default_faults with latency_mean = 0.05; rpc_timeout = 50.0 }
  in
  let base =
    {
      (config_of_scale scale) with
      scheme = Schemes.Simple;
      policy = Policy.no_cache;
      faults = Some faults;
    }
  in
  let row ~concurrency ~coalesce =
    let r = Engine.run ~concurrency ~coalesce base in
    {
      row_concurrency = concurrency;
      row_coalesce = coalesce;
      row_coalesced = r.Engine.coalesced;
      row_normal_per_query = Runner.normal_traffic_per_query r.Engine.base;
      row_cache_per_query = Runner.cache_traffic_per_query r.Engine.base;
      row_session_latency = Stdx.Stats.Summary.mean r.Engine.session_latency;
      row_peak_in_flight = r.Engine.peak_in_flight;
    }
  in
  List.concat_map
    (fun concurrency ->
      if concurrency = 1 then [ row ~concurrency ~coalesce:false ]
      else
        [ row ~concurrency ~coalesce:false; row ~concurrency ~coalesce:true ])
    concurrency_levels

type scheme_variant_row = {
  scheme_label : string;
  interactions : float;
  non_indexed_errors : int;
  index_megabytes : float;
}

let ablation_scheme_variants scale =
  (* The Complex_ac variant adds an (author, conference) entry-point index.
     Under a workload where users actually combine author and venue, the
     entry point turns recoverable errors into direct chains; the cost is
     extra index storage. *)
  let mix =
    {
      Query_gen.bibfinder_mix with
      Query_gen.p_author = 0.40;
      p_author_conf = 0.25;
    }
  in
  let base = { (config_of_scale scale) with mix; policy = Policy.no_cache } in
  List.map
    (fun scheme ->
      let r = Runner.run { base with scheme } in
      {
        scheme_label = Schemes.label scheme;
        interactions = Runner.interactions_mean r;
        non_indexed_errors = r.Runner.errors;
        index_megabytes = float_of_int r.Runner.index_bytes /. (1024.0 *. 1024.0);
      })
    [ Schemes.Complex; Schemes.Complex_ac ]

type deletion_row = {
  deleted_fraction : float;
  mappings_before : int;
  mappings_after : int;
  dangling_lookups : int;  (* deleted articles still reachable: must be 0 *)
  survivors_lost : int;  (* remaining articles no longer reachable: must be 0 *)
}

let ablation_deletion scale =
  (* Read/write semantics (Section IV-C): deleting a file must remove every
     index path to it — recursively, when a mapping's target dies — while
     shared coarse entries keep serving the surviving files. *)
  let articles =
    Bib.Corpus.generate ~seed:scale.seed
      (Bib.Corpus.default_config ~article_count:scale.article_count)
  in
  let resolver =
    Dht.Static_dht.resolver
      (Dht.Static_dht.create ~seed:scale.seed ~node_count:scale.node_count ())
  in
  let reachable index (a : Bib.Article.t) =
    let query = Bib.Bib_query.author_q (List.hd a.Bib.Article.authors) in
    List.exists
      (fun (msd, _file) -> Bib.Bib_query.equal msd (Bib.Bib_query.msd a))
      (Bib.Bib_index.search index query)
  in
  List.map
    (fun deleted_fraction ->
      let index = Bib.Bib_index.create ~resolver () in
      Bib.Bib_index.publish_corpus index ~kind:Schemes.Simple articles;
      let mappings_before = Bib.Bib_index.mapping_count index in
      let victim_count =
        int_of_float (deleted_fraction *. float_of_int scale.article_count)
      in
      let victims = Array.sub articles 0 victim_count in
      let survivors =
        Array.sub articles victim_count (scale.article_count - victim_count)
      in
      Array.iter
        (fun a ->
          Bib.Bib_index.unpublish index ~scheme:(Schemes.scheme Schemes.Simple)
            ~msd:(Bib.Bib_query.msd a))
        victims;
      let dangling_lookups =
        Array.fold_left (fun acc a -> if reachable index a then acc + 1 else acc) 0 victims
      in
      let survivors_lost =
        Array.fold_left
          (fun acc a -> if reachable index a then acc else acc + 1)
          0 survivors
      in
      {
        deleted_fraction;
        mappings_before;
        mappings_after = Bib.Bib_index.mapping_count index;
        dangling_lookups;
        survivors_lost;
      })
    [ 0.1; 0.5; 1.0 ]

type hotspot_replication_row = {
  key_replicas : int;
  busiest_share : float;  (* share of all interactions at the busiest node *)
  load_gini : float;
}

let ablation_hotspot_replication scale =
  (* Section V-g: "any optimization of the underlying P2P DHT substrate for
     hot-spot avoidance (e.g., using replication) will apply to index
     accesses as well."  Replicate every index key on r nodes and spread
     reads round-robin across the replicas; measure the busiest node's load
     and the overall imbalance. *)
  let articles =
    Bib.Corpus.generate ~seed:scale.seed
      (Bib.Corpus.default_config ~article_count:scale.article_count)
  in
  let resolver =
    Dht.Static_dht.resolver
      (Dht.Static_dht.create ~seed:scale.seed ~node_count:scale.node_count ())
  in
  let gen =
    Workload.Query_gen.create ~articles ~seed:(Int64.add scale.seed 1_000_003L) ()
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
    {
      key_replicas;
      busiest_share = (if total > 0.0 then busiest /. total else 0.0);
      load_gini = Stdx.Stats.gini loads;
    }
  in
  List.map row [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Prefix sweep: routed range search vs broadcast-and-filter. *)

type prefix_sweep_row = {
  sweep_prefix_len : int;
  routed_nodes_mean : float;  (* covering nodes contacted per routed query *)
  sweep_broadcast_nodes : int;  (* the flooding baseline contacts them all *)
  direct_bytes_per_query : float;
  multicast_bytes_per_query : float;
  broadcast_bytes_per_query : float;
  install_messages : int;  (* spanning-tree dissemination of the index *)
  install_bound_slack : int;  (* members + edges - messages, >= 0 *)
  install_depth : int;
  sweep_interactions : float;  (* end-to-end walk with the prefix route *)
  sweep_normal_bytes : float;
}

let prefix_lens = [ 1; 2; 3 ]

let prefix_sweep scale =
  (* The hashed schemes can only answer [Smi*] by flooding every node and
     filtering; the prefix index files terms under order-preserving keys,
     so the same query routes to the few nodes covering one ring arc.
     Two measurements per prefix length: a standalone harness that prices
     the same probe stream three ways (direct exchanges, spanning-tree
     multicast, broadcast-and-filter) on one billed network, and a full
     [Runner.run] with the prefix scheme for the end-to-end walk numbers.
     Probes are capped — the point is per-query means, not scale — and
     every draw is seeded, so the same scale prints the same table. *)
  let probe_count = Stdlib.min scale.query_count 1_000 in
  let articles =
    Bib.Corpus.generate ~seed:scale.seed
      (Bib.Corpus.default_config ~article_count:scale.article_count)
  in
  let lasts =
    Array.to_list articles
    |> List.concat_map (fun (a : Bib.Article.t) ->
           List.map (fun (x : Bib.Article.author) -> x.Bib.Article.last) a.authors)
    |> List.sort_uniq String.compare
    |> Array.of_list
  in
  let entries =
    Array.to_list articles
    |> List.concat_map (fun (a : Bib.Article.t) ->
           List.map
             (fun (x : Bib.Article.author) ->
               (x.Bib.Article.last, Bib.Bib_query.author_q x))
             a.authors)
    |> List.sort_uniq (fun (t1, q1) (t2, q2) ->
           match String.compare t1 t2 with
           | 0 -> Bib.Bib_query.compare q1 q2
           | c -> c)
  in
  let resolver =
    Dht.Static_dht.resolver
      (Dht.Static_dht.create ~seed:scale.seed ~node_count:scale.node_count ())
  in
  List.map
    (fun len ->
      let network = Dht.Network.create ~node_count:scale.node_count () in
      let rpc = Dht.Rpc.create ~network () in
      let pindex =
        Prefix.Prefix_index.create ~rpc ~render:Bib.Bib_query.to_string
          ~resolver ()
      in
      let install_messages, install_depth, install_slack =
        match Prefix.Prefix_index.publish_multicast pindex entries with
        | None -> (0, 0, 0)
        | Some (s : Prefix.Multicast.stats) ->
            (* The issue's bound: one message per covering member plus one
               per tree edge; non-negative slack certifies it held. *)
            (s.messages, s.depth, s.fanout + (s.fanout - 1) - s.messages)
      in
      Dht.Network.reset network;
      let prng = Stdx.Prng.create ~seed:scale.seed in
      let covering_sum = ref 0 in
      let direct_bytes = ref 0 in
      let multicast_bytes = ref 0 in
      let broadcast_bytes = ref 0 in
      let measure f =
        let before = Dht.Network.total_bytes network in
        let (_ : (string * Bib.Bib_query.t) list) = f () in
        Dht.Network.total_bytes network - before
      in
      for _ = 1 to probe_count do
        let last = Stdx.Prng.pick prng lasts in
        let prefix = String.sub last 0 (Stdlib.min len (String.length last)) in
        covering_sum :=
          !covering_sum
          + List.length (Prefix.Prefix_index.covering_nodes pindex ~prefix);
        direct_bytes :=
          !direct_bytes
          + measure (fun () -> Prefix.Prefix_index.query pindex ~prefix);
        multicast_bytes :=
          !multicast_bytes
          + measure (fun () ->
                Prefix.Prefix_index.query ~multicast:true pindex ~prefix);
        broadcast_bytes :=
          !broadcast_bytes
          + measure (fun () -> Prefix.Prefix_index.query_broadcast pindex ~prefix)
      done;
      let per x = float_of_int x /. float_of_int probe_count in
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
      {
        sweep_prefix_len = len;
        routed_nodes_mean = per !covering_sum;
        sweep_broadcast_nodes = scale.node_count;
        direct_bytes_per_query = per !direct_bytes;
        multicast_bytes_per_query = per !multicast_bytes;
        broadcast_bytes_per_query = per !broadcast_bytes;
        install_messages;
        install_bound_slack = install_slack;
        install_depth;
        sweep_interactions = Runner.interactions_mean r;
        sweep_normal_bytes = Runner.normal_traffic_per_query r;
      })
    prefix_lens

type quorum_sweep_row = {
  sweep_churn_rate : float;
  sweep_read_quorum : int;
  quorum_stale_rate : float;
  quorum_availability : float;
  quorum_sweep_reads : int;
  quorum_sweep_read_repairs : int;
  quorum_sweep_under_acked : int;
  quorum_maint_per_query : float;
  quorum_digest_bytes : int;
  quorum_shipped_bytes : int;
  quorum_full_state_bytes : int;
}

let quorum_read_quorums = [ 1; 2; 3 ]
let quorum_churn_rates = [ 0.002; 0.01 ]

let quorum_sweep scale =
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
  let scale =
    {
      scale with
      node_count = Stdlib.min scale.node_count 150;
      query_count = Stdlib.min scale.query_count 5_000;
      article_count = Stdlib.min scale.article_count 2_000;
    }
  in
  let base =
    { (config_of_scale scale) with scheme = Schemes.Simple; policy = Policy.no_cache }
  in
  List.concat_map
    (fun churn_rate ->
      List.map
        (fun read_quorum ->
          let churn =
            {
              Runner.default_churn with
              churn_rate;
              replication = 3;
              republish_period = 20.0;
            }
          in
          let quorum =
            {
              Runner.read_quorum;
              write_quorum = 3;
              anti_entropy_interval = 10.0;
            }
          in
          let r =
            Runner.run { base with churn = Some churn; quorum = Some quorum }
          in
          {
            sweep_churn_rate = churn_rate;
            sweep_read_quorum = read_quorum;
            quorum_stale_rate = Runner.stale_read_rate r;
            quorum_availability = Runner.availability r;
            quorum_sweep_reads = r.Runner.quorum_reads;
            quorum_sweep_read_repairs = r.Runner.quorum_read_repairs;
            quorum_sweep_under_acked = r.Runner.quorum_write_failures;
            quorum_maint_per_query = Runner.maintenance_traffic_per_query r;
            quorum_digest_bytes = r.Runner.antientropy_digest_bytes;
            quorum_shipped_bytes = r.Runner.antientropy_shipped_bytes;
            quorum_full_state_bytes = r.Runner.antientropy_full_state_bytes;
          })
        quorum_read_quorums)
    quorum_churn_rates

type scale_sweep_row = {
  scale_nodes : int;
  scale_articles : int;
  scale_queries : int;
  scale_interactions : float;
  scale_normal_bytes : float;
  scale_errors : int;
  scale_minor_words_per_query : float;
  scale_phases : Obs.Phase.entry list;
}

let scale_sweep_shards = 4

let scale_sweep_ladder scale =
  (* Absolute population rungs — the sweep measures how cost per query
     holds as the network grows, so the rungs do not scale with the
     figure-level knobs.  The million-node rung only rides the paper
     scale; the quick ladder tops out at 10^5 so the bench gate stays
     fast. *)
  let base = [ (10_000, 5_000, 20_000); (100_000, 20_000, 100_000) ] in
  if scale.node_count >= paper_scale.node_count then
    base @ [ (1_000_000, 100_000, 1_000_000) ]
  else base

let scale_sweep scale =
  (* The sharded engine at population scale: each rung partitions the
     network into four isolated shards, runs them on one worker (so the
     per-phase allocation profile is exact — GC counters are per-domain)
     and merges deterministically.  The phase collector uses the null
     clock, so every number in the row, allocation words included, is
     byte-reproducible. *)
  List.map
    (fun (nodes, articles, queries) ->
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
      let sr = Sharded.run ~shards:scale_sweep_shards ~domains:1 ~phases cfg in
      let r = sr.Sharded.engine.Engine.base in
      let entries = Obs.Phase.entries phases in
      let minor =
        List.fold_left
          (fun acc (e : Obs.Phase.entry) -> acc +. e.Obs.Phase.minor_words)
          0.0 entries
      in
      {
        scale_nodes = nodes;
        scale_articles = articles;
        scale_queries = queries;
        scale_interactions = Runner.interactions_mean r;
        scale_normal_bytes = Runner.normal_traffic_per_query r;
        scale_errors = r.Runner.errors;
        scale_minor_words_per_query = minor /. float_of_int queries;
        scale_phases = entries;
      })
    (scale_sweep_ladder scale)

(* ------------------------------------------------------------------ *)
(* Rendering.  Each [render_*] takes the precomputed data, so a single
   computation can feed both the printed table and the bench-report
   metrics ({!run_experiment}) without running the simulation twice. *)

let heading title =
  Printf.printf "\n=== %s ===\n" title

let render_fig7 (data : mix_row list) =
  heading "Fig. 7 — Query-structure mix (model vs generated workload)";
  let rows =
    List.map
      (fun (r : mix_row) ->
        [ r.structure; Tabular.fmt_pct r.model; Tabular.fmt_pct r.observed ])
      data
  in
  Tabular.print_table ~headers:[ "structure"; "model (BibFinder)"; "observed" ] ~rows

let print_fig7 scale = render_fig7 (fig7_query_mix scale)

let render_fig9 (s : popularity_series) =
  heading "Fig. 9 — Article popularity (log-log rank/probability)";
  let rows =
    List.map
      (fun rank ->
        let model = List.assoc rank s.article_probability in
        let obs = List.assoc rank s.observed_frequency in
        [ string_of_int rank; Printf.sprintf "%.6f" model; Printf.sprintf "%.6f" obs ])
      s.ranks
  in
  Tabular.print_table ~headers:[ "rank"; "model p(i)"; "observed freq" ] ~rows;
  Printf.printf "article log-log slope: %.3f (power law; paper reports a power-law family)\n"
    s.fitted_slope;
  let author_rows =
    List.map
      (fun (rank, f) -> [ string_of_int rank; Printf.sprintf "%.6f" f ])
      s.author_frequency
  in
  print_string "author-query popularity (BibFinder-authors analogue):\n";
  Tabular.print_table ~headers:[ "author rank"; "observed freq" ] ~rows:author_rows;
  Printf.printf "author log-log slope: %.3f\n" s.author_slope

let print_fig9 scale = render_fig9 (fig9_popularity scale)

let render_fig10 (data : ccdf_row list) =
  heading "Fig. 10 — CCDF of article ranking, F(i) = 1 - 0.063 i^0.3";
  let rows =
    List.map
      (fun (r : ccdf_row) ->
        [ string_of_int r.rank; Printf.sprintf "%.4f" r.formula; Printf.sprintf "%.4f" r.model ])
      data
  in
  Tabular.print_table ~headers:[ "rank"; "paper formula"; "sampler CCDF" ] ~rows

let print_fig10 scale = render_fig10 (fig10_ccdf scale)

let render_storage (data : storage_row list) =
  heading "Section V-B — Index storage per scheme";
  let rows =
    List.map
      (fun (r : storage_row) ->
        [
          r.scheme;
          Tabular.fmt_bytes (float_of_int r.index_bytes);
          Tabular.fmt_pct r.overhead_vs_simple;
          Tabular.fmt_bytes r.dblp_scaled_bytes;
          Tabular.fmt_pct r.index_to_data_ratio;
        ])
      data
  in
  Tabular.print_table
    ~headers:
      [ "scheme"; "index bytes"; "vs simple"; "scaled to DBLP"; "index/data ratio" ]
    ~rows;
  print_string
    "paper: simple 152 MB for full DBLP; complex +25%; flat +37%; overhead <= 0.5% of 29.1 GB\n"

let print_storage grid = render_storage (storage_overhead grid)

let render_keys (data : keys_row list) =
  heading "Section V-f — Regular keys per node";
  let rows =
    List.map
      (fun (r : keys_row) ->
        [ r.scheme; Printf.sprintf "%.0f" r.keys_per_node_mean; Printf.sprintf "%.0f" r.paper_value ])
      data
  in
  Tabular.print_table ~headers:[ "scheme"; "measured"; "paper" ] ~rows

let print_keys grid = render_keys (keys_per_node grid)

let print_cells title unit rows =
  heading title;
  let headers = [ "scheme"; "policy"; unit; "" ] in
  let max_value = List.fold_left (fun acc (c : cell) -> Float.max acc c.value) 0.0 rows in
  let table_rows =
    List.map
      (fun (c : cell) ->
        [
          c.scheme;
          c.policy;
          Printf.sprintf "%.3f" c.value;
          Tabular.bar ~width:30 ~max_value c.value;
        ])
      rows
  in
  Tabular.print_table ~headers ~rows:table_rows

let render_fig11 (data : cell list) =
  print_cells "Fig. 11 — Average interactions per query" "interactions" data;
  print_string "paper: flat lowest (~2.3), simple ~3.3, complex ~3.5; caching reduces all\n"

let print_fig11 grid = render_fig11 (fig11_interactions grid)

let render_fig12 (data : traffic_cell list) =
  heading "Fig. 12 — Average traffic (bytes) per query";
  let rows =
    List.map
      (fun (c : traffic_cell) ->
        [
          c.scheme;
          c.policy;
          Printf.sprintf "%.0f" c.normal_bytes;
          Printf.sprintf "%.0f" c.cache_bytes;
          Printf.sprintf "%.0f" (c.normal_bytes +. c.cache_bytes);
        ])
      data
  in
  Tabular.print_table
    ~headers:[ "scheme"; "policy"; "normal B/query"; "cache B/query"; "total" ]
    ~rows;
  print_string "paper: flat ~2x the others (no indirection); caches save bandwidth\n"

let print_fig12 grid = render_fig12 (fig12_traffic grid)

let render_fig13 ~(hits : cell list) ~(shares : cell list) =
  print_cells "Fig. 13 — Cache efficiency: distributed hit ratio" "hit ratio" hits;
  List.iter
    (fun (c : cell) ->
      Printf.printf "multi-cache hits at first node (%s): %s (paper: simple 86%%, flat 99.9%%, complex 84%%)\n"
        c.scheme (Tabular.fmt_pct c.value))
    shares

let print_fig13 grid =
  render_fig13 ~hits:(fig13_hit_ratio grid) ~shares:(fig13_first_node_share grid)

let render_fig14 ~(storage : cell list) ~(extremes : cache_extremes list) =
  print_cells "Fig. 14 — Average cached keys per node" "cached keys" storage;
  heading "Fig. 14 (cont.) — cache extremes";
  let rows =
    List.map
      (fun (e : cache_extremes) ->
        [
          e.scheme;
          e.policy;
          string_of_int e.max_cached;
          Tabular.fmt_pct e.full_share;
          Tabular.fmt_pct e.empty_share;
        ])
      extremes
  in
  Tabular.print_table ~headers:[ "scheme"; "policy"; "max"; "full"; "empty" ] ~rows;
  print_string
    "paper: single ~2x more space-efficient than multi; maxima 253-413; LRU10 72% full, 4.4% empty overall\n"

let print_fig14 grid =
  render_fig14 ~storage:(fig14_cache_storage grid) ~extremes:(fig14_extremes grid)

let render_fig15 (series : hotspot_series list) =
  heading "Fig. 15 — Hot-spots: % of queries processed, by node rank (simple scheme)";
  List.iter
    (fun s ->
      Printf.printf "%-12s" s.policy;
      List.iter
        (fun (rank, share) -> Printf.printf "  #%d:%s" rank (Tabular.fmt_pct share))
        s.share_by_rank;
      Printf.printf "  (gini %.2f)" s.gini;
      print_newline ())
    series;
  print_string "paper: busiest node sees almost 1 in 10 queries; caching slightly relieves it\n"

let print_fig15 grid = render_fig15 (fig15_hotspots grid)

let render_table1 (data : cell list) =
  heading "Table I — Queries to non-indexed data";
  let by_policy p = List.filter (fun (c : cell) -> String.equal c.policy p) data in
  let table_rows =
    List.map
      (fun policy ->
        let label = Policy.label policy in
        label
        :: List.map (fun (c : cell) -> Printf.sprintf "%.0f" c.value) (by_policy label))
      table1_policies
  in
  Tabular.print_table ~headers:[ "policy"; "Simple"; "Flat"; "Complex" ] ~rows:table_rows;
  print_string
    "paper (50k queries): no cache ~2,502-2,507; LRU30 810-874; single-cache 563-600\n"

let print_table1 grid = render_table1 (table1_errors grid)

let render_ablation_substrate (data : substrate_row list) =
  heading "Ablation — substrate independence (simple scheme, single-cache)";
  let rows =
    List.map
      (fun (r : substrate_row) ->
        [
          r.substrate;
          Printf.sprintf "%.3f" r.interactions;
          Printf.sprintf "%.0f" r.normal_bytes;
          Printf.sprintf "%.0f" r.substrate_overhead_bytes;
        ])
      data
  in
  Tabular.print_table
    ~headers:[ "substrate"; "interactions"; "normal B/query"; "routing B/query" ]
    ~rows;
  print_string
    "index-layer metrics are substrate-independent; Chord pays only routing-hop overhead\n"

let print_ablation_substrate scale = render_ablation_substrate (ablation_substrate scale)

let render_ablation_skew (data : skew_row list) =
  heading "Ablation — popularity skew vs cache efficiency (simple, LRU30)";
  let rows =
    List.map
      (fun (r : skew_row) ->
        [
          Printf.sprintf "%.1f" r.alpha;
          Tabular.fmt_pct r.hit_ratio;
          Printf.sprintf "%.3f" r.interactions;
        ])
      data
  in
  Tabular.print_table ~headers:[ "Zipf exponent"; "hit ratio"; "interactions" ] ~rows;
  print_string
    "uniform popularity (s = 0) defeats the cache; the heavier the skew, the\n\
     bigger the caching payoff — the mechanism behind Figs. 11-13\n"

let print_ablation_skew scale = render_ablation_skew (ablation_skew scale)

let render_ablation_replication (data : replication_row list) =
  heading "Ablation — index availability under node failures (simple scheme)";
  let rows =
    List.map
      (fun (r : replication_row) ->
        [
          string_of_int r.replication;
          Tabular.fmt_pct r.failed_fraction;
          Tabular.fmt_pct r.available_keys;
          string_of_int r.storage_cost;
        ])
      data
  in
  Tabular.print_table
    ~headers:[ "replication"; "nodes failed"; "index keys available"; "replica entries" ]
    ~rows;
  print_string
    "replication (Section IV-D) trades storage for availability: with r replicas,\n\
     a key is lost only when all r consecutive holders fail\n"

let print_ablation_replication scale =
  render_ablation_replication (ablation_replication scale)

let render_ablation_deletion (data : deletion_row list) =
  heading "Ablation — read/write semantics: deletion cleans the indexes";
  let rows =
    List.map
      (fun (r : deletion_row) ->
        [
          Tabular.fmt_pct r.deleted_fraction;
          string_of_int r.mappings_before;
          string_of_int r.mappings_after;
          string_of_int r.dangling_lookups;
          string_of_int r.survivors_lost;
        ])
      data
  in
  Tabular.print_table
    ~headers:
      [ "articles deleted"; "mappings before"; "after"; "dangling paths"; "survivors lost" ]
    ~rows;
  print_string
    "deleting a file removes its mappings recursively (dangling must be 0) while\n\
     shared coarse entries keep serving the surviving files (lost must be 0)\n"

let print_ablation_deletion scale = render_ablation_deletion (ablation_deletion scale)

let render_ablation_churn (data : churn_row list) =
  heading "Ablation — availability under churn (simple scheme, no cache)";
  let rows =
    List.map
      (fun (r : churn_row) ->
        [
          Printf.sprintf "%g" r.churn_rate;
          string_of_int r.churn_replication;
          Tabular.fmt_pct r.availability;
          Printf.sprintf "%.3f" r.churn_interactions;
          Printf.sprintf "%.0f" r.maintenance_per_query;
          Printf.sprintf "%.0f" r.live_nodes_end;
        ])
      data
  in
  Tabular.print_table
    ~headers:
      [
        "churn rate (1/s)";
        "replication";
        "availability";
        "interactions";
        "maint B/query";
        "live nodes at end";
      ]
    ~rows;
  print_string
    "crash-stop failures lose index shards and caches; TTLs, republication and\n\
     repair restore them.  Availability falls as churn rises and climbs back\n\
     with replication — the soft-state index survives a moving population\n"

let print_ablation_churn scale = render_ablation_churn (ablation_churn scale)

let render_fault_sweep (data : fault_sweep_row list) =
  heading "Fault sweep — lookup success vs message loss x retry budget (replication 3)";
  let rows =
    List.map
      (fun (r : fault_sweep_row) ->
        [
          Printf.sprintf "%g" r.sweep_loss_rate;
          string_of_int r.sweep_retries;
          (if r.sweep_hedged then "yes" else "no");
          Tabular.fmt_pct r.lookup_success;
          Tabular.fmt_pct r.fault_availability;
          Printf.sprintf "%.3f" r.fault_interactions;
          string_of_int r.sweep_timeouts;
          string_of_int r.sweep_retries_used;
          string_of_int r.sweep_hedges_won;
        ])
      data
  in
  Tabular.print_table
    ~headers:
      [
        "loss rate";
        "retries";
        "hedged";
        "rpc success";
        "availability";
        "interactions";
        "timeouts";
        "retries used";
        "hedges won";
      ]
    ~rows;
  print_string
    "with no retry budget, per-exchange success collapses to (1-loss)^2; bounded\n\
     backoff retries plus a hedged second request to the next replica recover\n\
     it, and replica failover keeps session availability near 100%\n"

let print_fault_sweep scale = render_fault_sweep (fault_sweep scale)

let render_concurrency_sweep (data : concurrency_row list) =
  heading "Concurrency sweep — singleflight coalescing under overlapping sessions";
  let rows =
    List.map
      (fun (r : concurrency_row) ->
        [
          string_of_int r.row_concurrency;
          (if r.row_coalesce then "yes" else "no");
          string_of_int r.row_coalesced;
          Printf.sprintf "%.1f" r.row_normal_per_query;
          Printf.sprintf "%.1f" r.row_cache_per_query;
          Printf.sprintf "%.3f s" r.row_session_latency;
          string_of_int r.row_peak_in_flight;
        ])
      data
  in
  Tabular.print_table
    ~headers:
      [
        "concurrency";
        "coalesce";
        "coalesced";
        "normal B/query";
        "cache B/query";
        "session latency";
        "peak in flight";
      ]
    ~rows;
  print_string
    "overlapping sessions aim identical probes at the hot keys; with coalescing a\n\
     follower rides the in-flight response for a small consultation ticket, so\n\
     normal traffic per query drops as concurrency grows\n"

let print_concurrency_sweep scale = render_concurrency_sweep (concurrency_sweep scale)

let render_ablation_scheme (data : scheme_variant_row list) =
  heading "Ablation — the author+conference entry point (25% author+conf queries)";
  let rows =
    List.map
      (fun (r : scheme_variant_row) ->
        [
          r.scheme_label;
          Printf.sprintf "%.3f" r.interactions;
          string_of_int r.non_indexed_errors;
          Printf.sprintf "%.1f MB" r.index_megabytes;
        ])
      data
  in
  Tabular.print_table
    ~headers:[ "scheme"; "interactions"; "non-indexed errors"; "index storage" ]
    ~rows;
  print_string
    "the extra index turns author+conference queries from recoverable errors into\n\
     direct chains, at the price of more index storage (Section IV-C's trade-off)\n"

let print_ablation_scheme scale = render_ablation_scheme (ablation_scheme_variants scale)

let render_ablation_hotspot (data : hotspot_replication_row list) =
  heading "Ablation — hot-spot relief through key replication (simple, no cache)";
  let rows =
    List.map
      (fun (r : hotspot_replication_row) ->
        [
          string_of_int r.key_replicas;
          Tabular.fmt_pct r.busiest_share;
          Printf.sprintf "%.3f" r.load_gini;
        ])
      data
  in
  Tabular.print_table ~headers:[ "replicas/key"; "busiest node"; "load gini" ] ~rows;
  print_string
    "spreading reads over r replicas divides the hottest key's load by r — the\n\
     substrate-level hot-spot avoidance the paper defers to (Section V-g)\n"

let print_ablation_hotspot scale =
  render_ablation_hotspot (ablation_hotspot_replication scale)

let render_prefix_sweep (data : prefix_sweep_row list) =
  heading "Prefix sweep — routed range search vs broadcast-and-filter";
  let rows =
    List.map
      (fun (r : prefix_sweep_row) ->
        [
          string_of_int r.sweep_prefix_len;
          Printf.sprintf "%.2f" r.routed_nodes_mean;
          string_of_int r.sweep_broadcast_nodes;
          Printf.sprintf "%.0f" r.direct_bytes_per_query;
          Printf.sprintf "%.0f" r.multicast_bytes_per_query;
          Printf.sprintf "%.0f" r.broadcast_bytes_per_query;
          string_of_int r.install_messages;
          string_of_int r.install_depth;
          Printf.sprintf "%.3f" r.sweep_interactions;
        ])
      data
  in
  Tabular.print_table
    ~headers:
      [
        "prefix len";
        "routed nodes";
        "bcast nodes";
        "direct B/q";
        "mcast B/q";
        "bcast B/q";
        "install msgs";
        "tree depth";
        "interactions";
      ]
    ~rows;
  print_string
    "a prefix query routes to the few nodes covering its key arc instead of\n\
     flooding all of them; multicast trades initiator exchanges for relay\n\
     bytes, and index installs ride a spanning tree whose message count\n\
     stays within covering members + tree edges\n"

let print_prefix_sweep scale = render_prefix_sweep (prefix_sweep scale)

let render_quorum_sweep (data : quorum_sweep_row list) =
  heading
    "Quorum sweep — stale reads vs read quorum under churn (replication 3, W=3, \
     anti-entropy on)";
  let rows =
    List.map
      (fun (r : quorum_sweep_row) ->
        [
          Printf.sprintf "%g" r.sweep_churn_rate;
          string_of_int r.sweep_read_quorum;
          Tabular.fmt_pct r.quorum_stale_rate;
          Tabular.fmt_pct r.quorum_availability;
          string_of_int r.quorum_sweep_reads;
          string_of_int r.quorum_sweep_read_repairs;
          string_of_int r.quorum_sweep_under_acked;
          Printf.sprintf "%.0f" r.quorum_maint_per_query;
          string_of_int r.quorum_digest_bytes;
          string_of_int r.quorum_shipped_bytes;
          string_of_int r.quorum_full_state_bytes;
        ])
      data
  in
  Tabular.print_table
    ~headers:
      [
        "churn rate";
        "R";
        "stale reads";
        "availability";
        "quorum reads";
        "read repairs";
        "under-acked";
        "maint B/query";
        "digest B";
        "shipped B";
        "full-state B";
      ]
    ~rows;
  print_string
    "consulting more replicas per lookup lowers the stale-read rate at fixed\n\
     churn; anti-entropy ships only the diverged keys, so digest + shipped\n\
     bytes stay below what full-state exchanges would have moved\n"

let print_quorum_sweep scale = render_quorum_sweep (quorum_sweep scale)

let render_scale_sweep (data : scale_sweep_row list) =
  heading
    (Printf.sprintf
       "Scale sweep — population growth under the sharded engine (%d shards, \
        deterministic merge)"
       scale_sweep_shards);
  let phase_minor (r : scale_sweep_row) name =
    match
      List.find_opt (fun (e : Obs.Phase.entry) -> e.Obs.Phase.phase = name) r.scale_phases
    with
    | Some e -> e.Obs.Phase.minor_words
    | None -> 0.0
  in
  let rows =
    List.map
      (fun (r : scale_sweep_row) ->
        [
          string_of_int r.scale_nodes;
          string_of_int r.scale_articles;
          string_of_int r.scale_queries;
          Printf.sprintf "%.3f" r.scale_interactions;
          Printf.sprintf "%.0f" r.scale_normal_bytes;
          string_of_int r.scale_errors;
          Printf.sprintf "%.0f" r.scale_minor_words_per_query;
          Printf.sprintf "%.1f %%"
            (100.0 *. phase_minor r "walk"
            /. Float.max 1.0
                 (List.fold_left
                    (fun acc (e : Obs.Phase.entry) -> acc +. e.Obs.Phase.minor_words)
                    0.0 r.scale_phases));
        ])
      data
  in
  Tabular.print_table
    ~headers:
      [
        "nodes";
        "articles";
        "queries";
        "interactions";
        "normal B/query";
        "errors";
        "minor w/query";
        "walk alloc share";
      ]
    ~rows;
  print_string
    "interactions per query are scale-free (the paper's point: the index, not\n\
     the population, prices a query); allocation per query stays flat, so the\n\
     arena-backed hot state holds at a million nodes\n"

let print_scale_sweep scale = render_scale_sweep (scale_sweep scale)

let all_experiment_ids =
  [
    "fig7"; "fig9"; "fig10"; "storage"; "keys"; "fig11"; "fig12"; "fig13"; "fig14";
    "fig15"; "table1"; "ablation-substrate"; "ablation-skew"; "ablation-replication";
    "ablation-deletion"; "ablation-hotspot"; "ablation-scheme"; "ablation-churn";
    "fault-sweep"; "concurrency-sweep"; "prefix-sweep"; "quorum-sweep";
    "scale-sweep";
  ]

(* ------------------------------------------------------------------ *)
(* Bench-report metrics.  Flattened under "exp/<id>/" by
   {!Obs.Bench_report.flatten}; names are slugs so the diff tool's paths
   stay shell-friendly.  Direction conventions: costs (interactions,
   bytes, errors) are lower-better, success ratios (hit ratio,
   availability, RPC success) higher-better, distribution shapes
   (slopes, gini, cache occupancy) informational. *)

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

let cell_metrics prefix better (data : cell list) =
  List.map
    (fun (c : cell) ->
      m (prefix ^ "/" ^ slug c.scheme ^ "/" ^ slug c.policy) better c.value)
    data

let metrics_fig7 (data : mix_row list) =
  let worst =
    List.fold_left
      (fun acc (r : mix_row) -> Float.max acc (Float.abs (r.model -. r.observed)))
      0.0 data
  in
  m "mix_abs_error_max" lower worst
  :: List.map
       (fun (r : mix_row) -> m ("mix_observed/" ^ slug r.structure) info r.observed)
       data

let metrics_fig9 (s : popularity_series) =
  [
    m "article_slope" info s.fitted_slope;
    m "author_slope" info s.author_slope;
    m "top_rank_freq" info
      (match s.observed_frequency with (_, f) :: _ -> f | [] -> 0.0);
  ]

let metrics_fig10 (data : ccdf_row list) =
  let worst =
    List.fold_left
      (fun acc (r : ccdf_row) -> Float.max acc (Float.abs (r.formula -. r.model)))
      0.0 data
  in
  [ m "ccdf_abs_error_max" lower worst ]

let metrics_storage (data : storage_row list) =
  List.concat_map
    (fun (r : storage_row) ->
      [
        m ("index_bytes/" ^ slug r.scheme) lower (float_of_int r.index_bytes);
        m ("overhead_vs_simple/" ^ slug r.scheme) info r.overhead_vs_simple;
      ])
    data

let metrics_keys (data : keys_row list) =
  List.map
    (fun (r : keys_row) ->
      m ("keys_per_node/" ^ slug r.scheme) info r.keys_per_node_mean)
    data

let metrics_fig12 (data : traffic_cell list) =
  List.concat_map
    (fun (c : traffic_cell) ->
      let base = slug c.scheme ^ "/" ^ slug c.policy in
      [
        m ("normal_bytes/" ^ base) lower c.normal_bytes;
        m ("cache_bytes/" ^ base) lower c.cache_bytes;
      ])
    data

let metrics_fig14 ~(storage : cell list) ~(extremes : cache_extremes list) =
  cell_metrics "cached_keys" info storage
  @ List.map
      (fun (e : cache_extremes) ->
        m
          ("max_cached/" ^ slug e.scheme ^ "/" ^ slug e.policy)
          info
          (float_of_int e.max_cached))
      extremes

let metrics_fig15 (series : hotspot_series list) =
  List.concat_map
    (fun (s : hotspot_series) ->
      let busiest = match s.share_by_rank with (_, v) :: _ -> v | [] -> 0.0 in
      [
        m ("gini/" ^ slug s.policy) info s.gini;
        m ("busiest_share/" ^ slug s.policy) info busiest;
      ])
    series

let metrics_substrate (data : substrate_row list) =
  List.concat_map
    (fun (r : substrate_row) ->
      let key = slug r.substrate in
      [
        m ("interactions/" ^ key) lower r.interactions;
        m ("normal_bytes/" ^ key) lower r.normal_bytes;
        m ("routing_bytes/" ^ key) lower r.substrate_overhead_bytes;
      ])
    data

let metrics_skew (data : skew_row list) =
  List.concat_map
    (fun (r : skew_row) ->
      let key = "a" ^ fnum r.alpha in
      [
        m ("hit_ratio/" ^ key) higher r.hit_ratio;
        m ("interactions/" ^ key) lower r.interactions;
      ])
    data

let metrics_replication (data : replication_row list) =
  List.concat_map
    (fun (r : replication_row) ->
      let key =
        "r" ^ string_of_int r.replication ^ "/f" ^ fnum r.failed_fraction
      in
      [
        m ("available_keys/" ^ key) higher r.available_keys;
        m ("replica_entries/" ^ key) info (float_of_int r.storage_cost);
      ])
    data

let metrics_deletion (data : deletion_row list) =
  List.concat_map
    (fun (r : deletion_row) ->
      let key = "f" ^ fnum r.deleted_fraction in
      [
        m ("dangling/" ^ key) lower (float_of_int r.dangling_lookups);
        m ("survivors_lost/" ^ key) lower (float_of_int r.survivors_lost);
        m ("mappings_after/" ^ key) info (float_of_int r.mappings_after);
      ])
    data

let metrics_hotspot (data : hotspot_replication_row list) =
  List.concat_map
    (fun (r : hotspot_replication_row) ->
      let key = "r" ^ string_of_int r.key_replicas in
      [
        m ("busiest_share/" ^ key) lower r.busiest_share;
        m ("gini/" ^ key) lower r.load_gini;
      ])
    data

let metrics_scheme (data : scheme_variant_row list) =
  List.concat_map
    (fun (r : scheme_variant_row) ->
      let key = slug r.scheme_label in
      [
        m ("interactions/" ^ key) lower r.interactions;
        m ("errors/" ^ key) lower (float_of_int r.non_indexed_errors);
        m ("index_mb/" ^ key) lower r.index_megabytes;
      ])
    data

let metrics_churn (data : churn_row list) =
  List.concat_map
    (fun (r : churn_row) ->
      let key = "c" ^ fnum r.churn_rate ^ "/r" ^ string_of_int r.churn_replication in
      [
        m ("availability/" ^ key) higher r.availability;
        m ("interactions/" ^ key) lower r.churn_interactions;
        m ("maint_bytes/" ^ key) lower r.maintenance_per_query;
      ])
    data

let metrics_fault_sweep (data : fault_sweep_row list) =
  List.concat_map
    (fun (r : fault_sweep_row) ->
      let key = "l" ^ fnum r.sweep_loss_rate ^ "/r" ^ string_of_int r.sweep_retries in
      [
        m ("rpc_success/" ^ key) higher r.lookup_success;
        m ("availability/" ^ key) higher r.fault_availability;
        m ("interactions/" ^ key) lower r.fault_interactions;
        m ("timeouts/" ^ key) info (float_of_int r.sweep_timeouts);
      ])
    data

let metrics_concurrency (data : concurrency_row list) =
  List.concat_map
    (fun (r : concurrency_row) ->
      let key =
        "c" ^ string_of_int r.row_concurrency
        ^ if r.row_coalesce then "/coalesce" else "/plain"
      in
      [
        m ("normal_bytes/" ^ key) lower r.row_normal_per_query;
        m ("cache_bytes/" ^ key) info r.row_cache_per_query;
        m ("coalesced/" ^ key) info (float_of_int r.row_coalesced);
        m ("session_latency/" ^ key) lower r.row_session_latency;
        m ("peak_in_flight/" ^ key) info (float_of_int r.row_peak_in_flight);
      ])
    data

let metrics_prefix_sweep (data : prefix_sweep_row list) =
  List.concat_map
    (fun (r : prefix_sweep_row) ->
      let key = "l" ^ string_of_int r.sweep_prefix_len in
      [
        m ("routed_nodes/" ^ key) lower r.routed_nodes_mean;
        m ("node_savings/" ^ key) higher
          (float_of_int r.sweep_broadcast_nodes -. r.routed_nodes_mean);
        m ("broadcast_nodes/" ^ key) info
          (float_of_int r.sweep_broadcast_nodes);
        m ("routed_bytes_direct/" ^ key) lower r.direct_bytes_per_query;
        m ("routed_bytes_multicast/" ^ key) lower r.multicast_bytes_per_query;
        m ("broadcast_bytes/" ^ key) info r.broadcast_bytes_per_query;
        m ("multicast_messages/" ^ key) lower
          (float_of_int r.install_messages);
        m ("multicast_bound_slack/" ^ key) higher
          (float_of_int r.install_bound_slack);
        m ("tree_depth/" ^ key) info (float_of_int r.install_depth);
        m ("interactions/" ^ key) lower r.sweep_interactions;
        m ("normal_bytes/" ^ key) lower r.sweep_normal_bytes;
      ])
    data

let metrics_quorum_sweep (data : quorum_sweep_row list) =
  List.concat_map
    (fun (r : quorum_sweep_row) ->
      let key =
        "c" ^ fnum r.sweep_churn_rate ^ "/q" ^ string_of_int r.sweep_read_quorum
      in
      [
        m ("stale_rate/" ^ key) lower r.quorum_stale_rate;
        m ("availability/" ^ key) higher r.quorum_availability;
        m ("read_repairs/" ^ key) info (float_of_int r.quorum_sweep_read_repairs);
        m ("under_acked/" ^ key) info (float_of_int r.quorum_sweep_under_acked);
        m ("maint_bytes/" ^ key) lower r.quorum_maint_per_query;
        m ("ae_digest_bytes/" ^ key) lower (float_of_int r.quorum_digest_bytes);
        m ("ae_shipped_bytes/" ^ key) lower (float_of_int r.quorum_shipped_bytes);
        m ("ae_savings/" ^ key) higher
          (float_of_int
             (r.quorum_full_state_bytes - r.quorum_digest_bytes
            - r.quorum_shipped_bytes));
      ])
    data

let metrics_scale_sweep (data : scale_sweep_row list) =
  List.concat_map
    (fun (r : scale_sweep_row) ->
      let key = "n" ^ string_of_int r.scale_nodes in
      [
        m ("interactions/" ^ key) lower r.scale_interactions;
        m ("normal_bytes/" ^ key) lower r.scale_normal_bytes;
        m ("errors/" ^ key) lower (float_of_int r.scale_errors);
        m ("minor_words_per_query/" ^ key) lower r.scale_minor_words_per_query;
      ]
      @ List.map
          (fun (e : Obs.Phase.entry) ->
            m
              ("phase_minor_words/" ^ key ^ "/" ^ slug e.Obs.Phase.phase)
              info e.Obs.Phase.minor_words)
          r.scale_phases)
    data

let run_experiment grid ~print id =
  let scale = Grid.scale grid in
  match id with
  | "fig7" ->
      let data = fig7_query_mix scale in
      if print then render_fig7 data;
      Some (metrics_fig7 data)
  | "fig9" ->
      let data = fig9_popularity scale in
      if print then render_fig9 data;
      Some (metrics_fig9 data)
  | "fig10" ->
      let data = fig10_ccdf scale in
      if print then render_fig10 data;
      Some (metrics_fig10 data)
  | "storage" ->
      let data = storage_overhead grid in
      if print then render_storage data;
      Some (metrics_storage data)
  | "keys" ->
      let data = keys_per_node grid in
      if print then render_keys data;
      Some (metrics_keys data)
  | "fig11" ->
      let data = fig11_interactions grid in
      if print then render_fig11 data;
      Some (cell_metrics "interactions" lower data)
  | "fig12" ->
      let data = fig12_traffic grid in
      if print then render_fig12 data;
      Some (metrics_fig12 data)
  | "fig13" ->
      let hits = fig13_hit_ratio grid in
      let shares = fig13_first_node_share grid in
      if print then render_fig13 ~hits ~shares;
      Some
        (cell_metrics "hit_ratio" higher hits
        @ List.map
            (fun (c : cell) ->
              m ("first_node_share/" ^ slug c.scheme) higher c.value)
            shares)
  | "fig14" ->
      let storage = fig14_cache_storage grid in
      let extremes = fig14_extremes grid in
      if print then render_fig14 ~storage ~extremes;
      Some (metrics_fig14 ~storage ~extremes)
  | "fig15" ->
      let data = fig15_hotspots grid in
      if print then render_fig15 data;
      Some (metrics_fig15 data)
  | "table1" ->
      let data = table1_errors grid in
      if print then render_table1 data;
      Some (cell_metrics "errors" lower data)
  | "ablation-substrate" ->
      let data = ablation_substrate scale in
      if print then render_ablation_substrate data;
      Some (metrics_substrate data)
  | "ablation-skew" ->
      let data = ablation_skew scale in
      if print then render_ablation_skew data;
      Some (metrics_skew data)
  | "ablation-replication" ->
      let data = ablation_replication scale in
      if print then render_ablation_replication data;
      Some (metrics_replication data)
  | "ablation-deletion" ->
      let data = ablation_deletion scale in
      if print then render_ablation_deletion data;
      Some (metrics_deletion data)
  | "ablation-hotspot" ->
      let data = ablation_hotspot_replication scale in
      if print then render_ablation_hotspot data;
      Some (metrics_hotspot data)
  | "ablation-scheme" ->
      let data = ablation_scheme_variants scale in
      if print then render_ablation_scheme data;
      Some (metrics_scheme data)
  | "ablation-churn" ->
      let data = ablation_churn scale in
      if print then render_ablation_churn data;
      Some (metrics_churn data)
  | "fault-sweep" ->
      let data = fault_sweep scale in
      if print then render_fault_sweep data;
      Some (metrics_fault_sweep data)
  | "concurrency-sweep" ->
      let data = concurrency_sweep scale in
      if print then render_concurrency_sweep data;
      Some (metrics_concurrency data)
  | "prefix-sweep" ->
      let data = prefix_sweep scale in
      if print then render_prefix_sweep data;
      Some (metrics_prefix_sweep data)
  | "quorum-sweep" ->
      let data = quorum_sweep scale in
      if print then render_quorum_sweep data;
      Some (metrics_quorum_sweep data)
  | "scale-sweep" ->
      let data = scale_sweep scale in
      if print then render_scale_sweep data;
      Some (metrics_scale_sweep data)
  | _ -> None

let print_experiment grid id = Option.is_some (run_experiment grid ~print:true id)
