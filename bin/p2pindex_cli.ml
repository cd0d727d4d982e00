(* p2pindex — command-line front end.

   Subcommands:
     simulate    run one Section V simulation and print its report
     experiment  regenerate one of the paper's tables/figures
     corpus      generate a synthetic DBLP-like corpus as XML
     search      publish a corpus and answer field queries against it
     chord       exercise the Chord substrate (joins, lookups, churn)
     metrics     render an exported metrics snapshot as a table *)

open Cmdliner

(* Exit statuses: every rejected input exits 2, whether cmdliner rejects
   it while parsing (its own default would be 124) or a subcommand rejects
   it while validating. *)
let usage_error = 2

let exits =
  [
    Cmd.Exit.info Cmd.Exit.ok ~doc:"on success.";
    Cmd.Exit.info 1 ~doc:"on an unknown experiment id or an unreadable input file.";
    Cmd.Exit.info usage_error
      ~doc:"on a usage error or an invalid argument value; a message says which.";
    Cmd.Exit.info Cmd.Exit.internal_error ~doc:"on an unexpected internal error.";
  ]

(* ------------------------------------------------------------------ *)
(* Shared argument parsers. *)

let scheme_arg =
  let parse s =
    match Bib.Schemes.of_label s with
    | Some kind -> Ok kind
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown scheme %S (simple|flat|complex|complex+ac|prefix)" s))
  in
  let print ppf kind = Format.pp_print_string ppf (Bib.Schemes.label kind) in
  Arg.conv (parse, print)

let policy_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "none" | "no-cache" -> Ok Cache.Policy.no_cache
    | "single" -> Ok Cache.Policy.single_cache
    | "multi" -> Ok Cache.Policy.multi_cache
    | other ->
        if String.length other > 3 && String.sub other 0 3 = "lru" then
          match int_of_string_opt (String.sub other 3 (String.length other - 3)) with
          | Some k when k > 0 -> Ok (Cache.Policy.lru k)
          | Some _ | None -> Error (`Msg "LRU capacity must be a positive integer")
        else Error (`Msg (Printf.sprintf "unknown policy %S (none|single|multi|lru<K>)" s))
  in
  let print ppf p = Format.pp_print_string ppf (Cache.Policy.label p) in
  Arg.conv (parse, print)

(* Sizes: a count below 1 is a usage error, reported against its flag. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let seed_term =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let nodes_term default =
  Arg.(value & opt positive_int default
       & info [ "nodes" ] ~docv:"N" ~doc:"Number of peer nodes.")

let articles_term default =
  Arg.(value & opt positive_int default & info [ "articles" ] ~docv:"N" ~doc:"Corpus size.")

let verbose_term =
  Arg.(value & flag_all
       & info [ "v"; "verbose" ]
           ~doc:"Print telemetry events to stderr (repeat for per-operation detail).")

(* Output paths are validated up front — the writers pick their format from
   the suffix, so a typo would silently produce the wrong format at the end
   of a long run, and a missing directory would fail only after it.  An
   empty [allowed] list takes any suffix. *)
let out_path_arg ~what ~allowed =
  let parse s =
    let dir = Filename.dirname s in
    if allowed <> [] && not (List.exists (Filename.check_suffix s) allowed) then
      Error
        (`Msg
           (Printf.sprintf "%s file %S must end in %s" what s
              (String.concat " or " allowed)))
    else if not (Sys.file_exists dir && Sys.is_directory dir) then
      Error (`Msg (Printf.sprintf "%s file %S: no directory %S" what s dir))
    else Ok s
  in
  Arg.conv (parse, Format.pp_print_string)

let metrics_path_arg = out_path_arg ~what:"metrics" ~allowed:[ ".prom"; ".txt"; ".json" ]
let trace_path_arg = out_path_arg ~what:"trace" ~allowed:[ ".jsonl" ]

(* A write that fails even so (permissions, a directory in the way)
   exits 1 with a message naming the file. *)
let write_or_exit ~cmd path write =
  match write () with
  | () -> ()
  | exception Sys_error msg ->
      Printf.eprintf "%s: cannot write %s: %s\n" cmd path msg;
      exit 1

let apply_verbosity = function
  | [] -> ()
  | [ _ ] ->
      Obs.Log.install_reporter ();
      Obs.Log.set_verbosity Obs.Log.Events
  | _ :: _ :: _ ->
      Obs.Log.install_reporter ();
      Obs.Log.set_verbosity Obs.Log.Debug

(* ------------------------------------------------------------------ *)
(* simulate *)

let simulate_cmd =
  let run scheme policy nodes articles queries seed substrate hops churn_rate ttl
      republish replication loss_rate duplicate_rate latency rpc_timeout rpc_retries
      hedge prefix_len multicast read_quorum write_quorum anti_entropy concurrency
      coalesce shards domains trace metrics_out trace_out profile_phases verbose =
    apply_verbosity verbose;
    let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("simulate: " ^ m); exit 2) fmt in
    (* Flag combinations are checked here; every setting of the resulting
       configuration is checked by Runner.validate below, before anything
       is built. *)
    if (prefix_len <> None || multicast) && scheme <> Bib.Schemes.Prefix then
      fail "--prefix-len and --multicast require --scheme prefix";
    let churn =
      match churn_rate with
      | Some rate ->
          let c = Sim.Runner.default_churn in
          Some
            {
              c with
              Sim.Runner.churn_rate = rate;
              ttl = Option.value ttl ~default:c.ttl;
              republish_period = Option.value republish ~default:c.republish_period;
              replication = Option.value replication ~default:c.replication;
            }
      | None ->
          if ttl <> None || republish <> None then
            fail "--ttl and --republish require --churn-rate";
          None
    in
    let fault_requested =
      loss_rate <> None || duplicate_rate <> None || latency <> None
      || rpc_timeout <> None || rpc_retries <> None || hedge
    in
    let faults =
      if not fault_requested then None
      else
        let f = Sim.Runner.default_faults in
        Some
          {
            Sim.Runner.loss_rate = Option.value loss_rate ~default:f.loss_rate;
            duplicate_rate = Option.value duplicate_rate ~default:f.duplicate_rate;
            latency_mean = Option.value latency ~default:f.latency_mean;
            rpc_timeout = Option.value rpc_timeout ~default:f.rpc_timeout;
            rpc_retries = Option.value rpc_retries ~default:f.rpc_retries;
            hedge;
            fault_replication = Option.value replication ~default:f.fault_replication;
          }
    in
    if replication <> None && churn = None && faults = None then
      fail "--replication requires --churn-rate or a fault flag";
    (* Prefix runs carve a browsing share out of the author-only class so
       the routed scheme actually sees Author_prefix queries; every other
       scheme keeps the untouched BibFinder mix. *)
    let prefix, mix =
      if scheme = Bib.Schemes.Prefix then
        ( Some
            {
              Sim.Runner.prefix_len = Option.value prefix_len ~default:1;
              multicast;
            },
          Workload.Query_gen.prefix_mix Sim.Runner.default_config.mix )
      else (None, Sim.Runner.default_config.mix)
    in
    (* A replayed trace sets the query count, so it is read before the
       configuration is checked; a file that does not replay exits 1. *)
    let events =
      Option.map
        (fun path ->
          let cannot_read msg =
            Printf.eprintf "simulate: cannot read %s: %s\n" path msg;
            exit 1
          in
          match
            let corpus =
              Bib.Corpus.generate ~seed (Bib.Corpus.default_config ~article_count:articles)
            in
            let lines = In_channel.with_open_text path Workload.Trace.load_lines in
            Workload.Trace.replay ~articles:corpus lines
          with
          | [] -> cannot_read "the trace holds no queries"
          | events -> events
          | exception (Invalid_argument msg | Sys_error msg) -> cannot_read msg)
        trace
    in
    let config =
      {
        Sim.Runner.default_config with
        scheme;
        policy;
        node_count = nodes;
        article_count = articles;
        query_count = (match events with Some events -> List.length events | None -> queries);
        seed;
        substrate;
        charge_route_hops = hops;
        mix;
        churn;
        faults;
        prefix;
      }
    in
    let config =
      if read_quorum = None && write_quorum = None && anti_entropy = None then config
      else
        let quorum =
          {
            Sim.Runner.read_quorum = Option.value read_quorum ~default:1;
            write_quorum =
              Option.value write_quorum ~default:(Sim.Runner.effective_replication config);
            anti_entropy_interval = Option.value anti_entropy ~default:0.0;
          }
        in
        { config with quorum = Some quorum }
    in
    (* Every setting and run option is checked before anything is built,
       so a million-node run fails in milliseconds, not minutes. *)
    (match
       Result.bind (Sim.Runner.validate config) (fun () ->
           Sim.Sharded.validate ~shards ~domains
             ~per_run:(trace <> None || trace_out <> None)
             ~profiled:profile_phases ~concurrency ~coalesce config)
     with
    | Ok () -> ()
    | Error msg -> fail "%s" msg);
    let tracer = Option.map (fun _path -> Obs.Trace.create ()) trace_out in
    (* Profiling reads the monotonic clock, so it is strictly opt-in: the
       default run keeps its byte-reproducible report and snapshot. *)
    let phases =
      if profile_phases then Some (Obs.Phase.create ~clock:Monotonic_clock.now ())
      else None
    in
    let r =
      Sim.Sharded.run ~shards ~domains ?events ?tracer ?phases ~concurrency ~coalesce
        config
    in
    let open Sim.Runner in
    let substrate_label =
      match substrate with
      | Static -> "oracle"
      | Chord -> "Chord"
      | Pastry -> "Pastry"
      | Can -> "CAN"
      | Kademlia -> "Kademlia"
    in
    Printf.printf "scheme %s, policy %s, %d nodes, %d articles, %d queries (%s substrate)%s\n"
      (Bib.Schemes.label scheme) (Cache.Policy.label policy) nodes articles
      (Stdx.Stats.Summary.count r.interactions)
      substrate_label
      (match trace with Some path -> " replaying " ^ path | None -> "");
    Printf.printf "  interactions/query      %8.3f\n" (interactions_mean r);
    Printf.printf "  normal traffic/query    %8.0f B\n" (normal_traffic_per_query r);
    Printf.printf "  cache traffic/query     %8.0f B\n" (cache_traffic_per_query r);
    Printf.printf "  hit ratio               %8.1f %%\n" (hit_ratio r *. 100.0);
    Printf.printf "  hits at first node      %8.1f %%\n" (first_node_hit_share r *. 100.0);
    Printf.printf "  non-indexed errors      %8d\n" r.errors;
    Printf.printf "  cached keys/node        %8.1f (max %d)\n" (cached_keys_mean r)
      (cached_keys_max r);
    Printf.printf "  regular keys/node       %8.0f\n" (regular_keys_mean r);
    Printf.printf "  index storage           %8s\n"
      (Stdx.Tabular.fmt_bytes (float_of_int r.index_bytes));
    Printf.printf "  article storage         %8s\n"
      (Stdx.Tabular.fmt_bytes (float_of_int r.article_bytes));
    (* Absolute per-category accounting: the same numbers land in the
       metrics snapshot and, split over spans, in the trace export. *)
    Printf.printf "  request bytes           %8d B\n" (request_bytes r);
    Printf.printf "  response bytes          %8d B\n" (response_bytes r);
    Printf.printf "  cache-update bytes      %8d B\n" (cache_bytes r);
    Printf.printf "  maintenance bytes       %8d B\n" (maintenance_bytes r);
    Printf.printf "  network messages        %8d\n" (network_messages r);
    (* Printed only for prefix-scheme runs, so every other report stays
       byte-identical to the historical output. *)
    (match config.Sim.Runner.prefix with
    | Some p ->
        Printf.printf "  prefix queries          %8d (len %d, %s)\n"
          (Obs.Metrics.counter_total r.metrics "p2pindex_prefix_queries_total")
          p.Sim.Runner.prefix_len
          (if p.Sim.Runner.multicast then "multicast dissemination"
           else "direct exchanges")
    | None -> ());
    (match churn with
    | Some c ->
        Printf.printf "  churn rate              %8.4f /node/s (replication %d, ttl %.0f s)\n"
          c.Sim.Runner.churn_rate c.replication c.ttl;
        Printf.printf "  availability            %8.1f %% (%d unreachable)\n"
          (availability r *. 100.0) r.unreachable;
        Printf.printf "  maintenance/query       %8.0f B\n" (maintenance_traffic_per_query r)
    | None -> ());
    (* Printed only when the fault plan actually perturbs the run, so the
       fault-free report stays byte-identical to the historical output. *)
    (match config.Sim.Runner.faults with
    | Some f when Sim.Runner.fault_active config ->
        Printf.printf
          "  fault plan              loss %.2f, dup %.2f, latency %.3f s (timeout %.2f s, %d retries%s)\n"
          f.Sim.Runner.loss_rate f.duplicate_rate f.latency_mean f.rpc_timeout
          f.rpc_retries
          (if f.hedge then ", hedged" else "");
        Printf.printf "  lookup success          %8.1f %% (%d of %d rpcs answered)\n"
          (lookup_success_rate r *. 100.0)
          (rpc_calls r - rpc_exhausted r)
          (rpc_calls r);
        Printf.printf "  rpc timeouts/retries    %8d / %d\n" (rpc_timeouts r) (rpc_retries r);
        Printf.printf "  hedges fired/won        %8d / %d\n" (rpc_hedges r) (rpc_hedges_won r);
        Printf.printf "  messages lost/duped     %8d / %d\n" (rpc_lost_messages r)
          (rpc_duplicates_suppressed r)
    | Some _ | None -> ());
    (* Printed only when the quorum block actually changes the run, so
       the plain report stays byte-identical to the historical output. *)
    (match config.Sim.Runner.quorum with
    | Some q when Sim.Runner.quorum_active config ->
        Printf.printf "  quorum                  R=%d, W=%d of %d replicas\n"
          q.Sim.Runner.read_quorum q.Sim.Runner.write_quorum
          (Sim.Runner.effective_replication config);
        Printf.printf "  quorum reads            %8d (stale %.2f %%, %d read repairs)\n"
          (quorum_reads r)
          (stale_read_rate r *. 100.0)
          (quorum_read_repairs r);
        Printf.printf "  quorum writes           %8d (%d under-acknowledged)\n"
          (quorum_writes r) (quorum_write_failures r);
        if q.Sim.Runner.anti_entropy_interval > 0.0 then
          Printf.printf
            "  anti-entropy            %8d rounds (digests %d B, shipped %d B; \
             full state %d B)\n"
            (antientropy_rounds r) (antientropy_digest_bytes r)
            (antientropy_shipped_bytes r) (antientropy_full_state_bytes r)
    | Some _ | None -> ());
    (* Printed only in concurrent mode, so the sequential report stays
       byte-identical to the historical output. *)
    if concurrency > 1 then begin
      Printf.printf "  concurrency             %8d (peak in flight %d)\n" concurrency
        r.peak_in_flight;
      Printf.printf "  session latency         %8.3f s mean\n"
        (Stdx.Stats.Summary.mean r.session_latency);
      if coalesce then Printf.printf "  coalesced probes        %8d\n" (coalesced r)
    end;
    (* Printed only in sharded mode, so the unsharded report stays
       byte-identical to the historical output.  The worker count is
       deliberately absent: --domains is scheduling, and the whole report
       must stay byte-identical across it. *)
    if shards > 1 then
      Printf.printf "  shards                  %8d (isolated slices, merged in shard order)\n"
        shards;
    (match phases with
    | Some p ->
        print_string "\nphase profile (wall clock; p2pindex_phase_* / p2pindex_gc_* \
                      gauges ride the metrics snapshot):\n";
        print_string (Obs.Phase.render_table p)
    | None -> ());
    (match metrics_out with
    | Some path ->
        write_or_exit ~cmd:"simulate" path (fun () -> Obs.Export.write_metrics ~path r.metrics);
        Printf.printf "wrote metrics snapshot to %s\n" path
    | None -> ());
    (match (tracer, trace_out) with
    | Some collector, Some path ->
        Obs.Trace.end_trace collector;
        write_or_exit ~cmd:"simulate" path (fun () -> Obs.Export.write_trace_jsonl ~path collector);
        Printf.printf "wrote %d traces (%d spans) to %s\n"
          (Obs.Trace.trace_count collector)
          (Obs.Trace.span_count collector)
          path
    | _ -> ())
  in
  let scheme =
    Arg.(value & opt scheme_arg Bib.Schemes.Simple
         & info [ "scheme" ] ~docv:"SCHEME"
             ~doc:"Indexing scheme: simple, flat, complex, or prefix (the routed \
                   prefix/range scheme; gives the workload an author-prefix \
                   browsing share).")
  in
  let policy =
    Arg.(value & opt policy_arg Cache.Policy.no_cache
         & info [ "policy" ] ~docv:"POLICY" ~doc:"Cache policy: none, single, multi, lru<K>.")
  in
  let queries =
    Arg.(value & opt int 50_000 & info [ "queries" ] ~docv:"N" ~doc:"Workload length.")
  in
  let substrate =
    let substrate_conv =
      Arg.enum
        [
          ("static", Sim.Runner.Static);
          ("chord", Sim.Runner.Chord);
          ("pastry", Sim.Runner.Pastry);
          ("can", Sim.Runner.Can);
          ("kademlia", Sim.Runner.Kademlia);
        ]
    in
    Arg.(value
         & opt substrate_conv Sim.Runner.Static
         & info [ "substrate" ] ~docv:"SUBSTRATE" ~doc:"DHT substrate: static, chord, pastry, can, kademlia.")
  in
  let hops =
    Arg.(value & flag & info [ "charge-hops" ] ~doc:"Bill substrate routing hops as traffic.")
  in
  let churn_rate =
    Arg.(value & opt (some float) None
         & info [ "churn-rate" ] ~docv:"RATE"
             ~doc:"Run the churned mode: mean node failures per node per virtual second \
                   (sessions drawn with mean 1/RATE).")
  in
  let ttl =
    Arg.(value & opt (some float) None
         & info [ "ttl" ] ~docv:"SECONDS"
             ~doc:"Soft-state lifetime of index entries and shortcuts (requires \
                   $(b,--churn-rate); default 300).")
  in
  let republish =
    Arg.(value & opt (some float) None
         & info [ "republish" ] ~docv:"SECONDS"
             ~doc:"Period between republish rounds refreshing TTLs (requires \
                   $(b,--churn-rate); default 100).")
  in
  let replication =
    Arg.(value & opt (some int) None
         & info [ "replication" ] ~docv:"R"
             ~doc:"Replica nodes per index entry (requires $(b,--churn-rate) or a fault \
                   flag; default 3 under churn, 1 under faults).")
  in
  let loss_rate =
    Arg.(value & opt (some float) None
         & info [ "loss-rate" ] ~docv:"P"
             ~doc:"Drop each message with probability P (per direction); turns on the \
                   fault-injecting RPC layer.")
  in
  let duplicate_rate =
    Arg.(value & opt (some float) None
         & info [ "duplicate-rate" ] ~docv:"P"
             ~doc:"Deliver each surviving message twice with probability P.")
  in
  let latency =
    Arg.(value & opt (some float) None
         & info [ "latency" ] ~docv:"SECONDS"
             ~doc:"Mean of the exponential per-direction message latency (virtual \
                   seconds); round-trips beyond the RPC timeout fail.")
  in
  let rpc_timeout =
    Arg.(value & opt (some float) None
         & info [ "rpc-timeout" ] ~docv:"SECONDS"
             ~doc:"Deadline each RPC attempt waits for its reply (default 0.5).")
  in
  let rpc_retries =
    Arg.(value & opt (some int) None
         & info [ "rpc-retries" ] ~docv:"N"
             ~doc:"Extra attempts after a timeout, with exponential backoff (default 2).")
  in
  let hedge =
    Arg.(value & flag
         & info [ "hedge" ]
             ~doc:"Fire a hedged second request to the next replica when the first \
                   attempt runs past half the timeout.")
  in
  let prefix_len =
    Arg.(value & opt (some int) None
         & info [ "prefix-len" ] ~docv:"N"
             ~doc:"Last-name characters an author-prefix query keeps, in [1, 20] \
                   (requires $(b,--scheme) prefix; default 1).")
  in
  let multicast =
    Arg.(value & flag
         & info [ "multicast" ]
             ~doc:"Answer prefix queries and install the range index through the \
                   spanning-tree multicast instead of per-covering-node exchanges \
                   (requires $(b,--scheme) prefix).")
  in
  let read_quorum =
    Arg.(value & opt (some int) None
         & info [ "read-quorum" ] ~docv:"R"
             ~doc:"Consult R live replicas per lookup step and reconcile their \
                   answers by version vector, read-repairing divergence; within \
                   [1, replication] (default 1).")
  in
  let write_quorum =
    Arg.(value & opt (some int) None
         & info [ "write-quorum" ] ~docv:"W"
             ~doc:"Live-replica acknowledgements a write needs before it counts \
                   as fully acknowledged; within [1, replication] (default: the \
                   replication factor).")
  in
  let anti_entropy =
    Arg.(value & opt (some float) None
         & info [ "anti-entropy-interval" ] ~docv:"SECONDS"
             ~doc:"Replace the periodic full-state repair with digest-based \
                   anti-entropy passes at this interval (requires \
                   $(b,--churn-rate); 0 keeps the repair walk).")
  in
  let concurrency =
    Arg.(value & opt int 1
         & info [ "concurrency" ] ~docv:"N"
             ~doc:"Run up to N user sessions concurrently on the virtual clock \
                   (default 1: the sequential runner, byte-identical output).")
  in
  let coalesce =
    Arg.(value & flag
         & info [ "coalesce" ]
             ~doc:"Deduplicate identical in-flight lookups: followers ride the \
                   first probe's response for a small consultation ticket \
                   (requires $(b,--concurrency) > 1).")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"S"
             ~doc:"Partition the population into S isolated shards, each a \
                   complete simulation of its slice, merged deterministically \
                   (default 1: the unsharded network).")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Run shards on up to N parallel domains (clamped to the shard \
                   count).  Pure scheduling: the report is byte-identical for \
                   every N.")
  in
  let trace =
    Arg.(value & opt (some file) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Replay a query trace (see the workload subcommand) instead of generating one.")
  in
  let metrics_out =
    Arg.(value & opt (some metrics_path_arg) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write the run's metrics snapshot to FILE: .prom or .txt for Prometheus \
                   text, .json for JSON.")
  in
  let trace_out =
    Arg.(value & opt (some trace_path_arg) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Record one trace per user session and write them to FILE (.jsonl).")
  in
  let profile_phases =
    Arg.(value & flag
         & info [ "profile-phases" ]
             ~doc:"Profile the run's stages (setup, walk, tally, report): print a \
                   wall-clock and allocation table, and add the \
                   $(b,p2pindex_phase_*) and $(b,p2pindex_gc_*) gauges to the \
                   metrics snapshot.  Timings come from the real clock, so the \
                   report is no longer byte-reproducible.")
  in
  Cmd.v
    (Cmd.info "simulate" ~exits ~doc:"Run one Section V simulation")
    Term.(
      const run $ scheme $ policy $ nodes_term 500 $ articles_term 10_000 $ queries
      $ seed_term $ substrate $ hops $ churn_rate $ ttl $ republish $ replication
      $ loss_rate $ duplicate_rate $ latency $ rpc_timeout $ rpc_retries $ hedge
      $ prefix_len $ multicast $ read_quorum $ write_quorum $ anti_entropy
      $ concurrency $ coalesce $ shards $ domains $ trace $ metrics_out
      $ trace_out $ profile_phases $ verbose_term)

(* ------------------------------------------------------------------ *)
(* experiment *)

let experiment_cmd =
  let run id quick =
    let scale = if quick then Sim.Experiments.quick_scale else Sim.Experiments.paper_scale in
    let grid = Sim.Experiments.Grid.create scale in
    let run (e : Sim.Experiments.t) = Sim.Experiments.print (e.run grid) in
    match id with
    | None -> List.iter run Sim.Experiments.all
    | Some id -> (
        match Sim.Experiments.find id with
        | Some e -> run e
        | None ->
            Printf.eprintf "unknown experiment %S; known ids: %s\n" id
              (String.concat ", "
                 (List.map (fun (e : Sim.Experiments.t) -> e.id) Sim.Experiments.all));
            exit 1)
  in
  let id =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"ID" ~doc:"Experiment id (fig7..fig15, storage, keys, table1, ...).")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced scale.") in
  Cmd.v
    (Cmd.info "experiment" ~exits ~doc:"Regenerate one of the paper's tables or figures")
    Term.(const run $ id $ quick)

(* ------------------------------------------------------------------ *)
(* corpus *)

let corpus_cmd =
  let run count seed limit =
    let articles =
      Bib.Corpus.generate ~seed (Bib.Corpus.default_config ~article_count:count)
    in
    Array.iteri
      (fun i article ->
        if i < limit then
          print_endline (Xmlkit.Xml.to_string ~indent:true (Bib.Article.to_xml article)))
      articles;
    if count > limit then Printf.printf "<!-- ... %d more articles -->\n" (count - limit)
  in
  let limit =
    Arg.(value & opt int 10 & info [ "limit" ] ~docv:"N" ~doc:"Print at most N descriptors.")
  in
  Cmd.v
    (Cmd.info "corpus" ~exits ~doc:"Generate a synthetic DBLP-like corpus as XML descriptors")
    Term.(const run $ articles_term 100 $ seed_term $ limit)

(* ------------------------------------------------------------------ *)
(* search *)

let search_cmd =
  let run articles nodes seed scheme author title conf year =
    let corpus = Bib.Corpus.generate ~seed (Bib.Corpus.default_config ~article_count:articles) in
    let resolver = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed ~node_count:nodes ()) in
    let index = Bib.Bib_index.create ~resolver () in
    Bib.Bib_index.publish_corpus index ~kind:scheme corpus;
    let author =
      Option.map
        (fun s ->
          match String.index_opt s ' ' with
          | Some i ->
              {
                Bib.Article.first = String.sub s 0 i;
                last = String.sub s (i + 1) (String.length s - i - 1);
              }
          | None -> { Bib.Article.first = ""; last = s })
        author
    in
    let query = Bib.Bib_query.fields ?author ?title ?conf ?year () in
    Printf.printf "query: %s\n" (Bib.Bib_query.to_string query);
    let interactions = ref 0 in
    let run_query q = Bib.Bib_index.search_with_generalization ~interactions index q in
    let results = run_query query in
    (* Exact matching found nothing: validate the fields against the known
       vocabularies and retry (the Section VI misspelling recovery). *)
    let results =
      if results <> [] then results
      else
        match Bib.Spellfix.fix (Bib.Spellfix.of_corpus corpus) query with
        | Bib.Spellfix.Corrected fixed ->
            Printf.printf "no exact match; did you mean: %s\n" (Bib.Bib_query.to_string fixed);
            run_query fixed
        | Bib.Spellfix.Unchanged | Bib.Spellfix.Unfixable -> []
    in
    Printf.printf "%d result(s) in %d interactions\n" (List.length results) !interactions;
    List.iter
      (fun (msd, (file : Storage.Block_store.file)) ->
        Printf.printf "  %-18s %s\n" file.name (Bib.Bib_query.to_string msd))
      results
  in
  let author =
    Arg.(value & opt (some string) None
         & info [ "author" ] ~docv:"\"First Last\"" ~doc:"Author constraint.")
  in
  let title =
    Arg.(value & opt (some string) None & info [ "title" ] ~docv:"TITLE" ~doc:"Title constraint.")
  in
  let conf =
    Arg.(value & opt (some string) None & info [ "conf" ] ~docv:"VENUE" ~doc:"Venue constraint.")
  in
  let year =
    Arg.(value & opt (some int) None & info [ "year" ] ~docv:"YEAR" ~doc:"Year constraint.")
  in
  let scheme =
    Arg.(value & opt scheme_arg Bib.Schemes.Simple
         & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Indexing scheme.")
  in
  Cmd.v
    (Cmd.info "search" ~exits ~doc:"Publish a synthetic corpus and search it with field queries")
    Term.(
      const run $ articles_term 1_000 $ nodes_term 50 $ seed_term $ scheme $ author $ title
      $ conf $ year)

(* ------------------------------------------------------------------ *)
(* workload *)

let workload_cmd =
  let run articles queries seed output =
    let corpus = Bib.Corpus.generate ~seed (Bib.Corpus.default_config ~article_count:articles) in
    let gen = Workload.Query_gen.create ~articles:corpus ~seed () in
    let events = Workload.Query_gen.events gen queries in
    match output with
    | Some path ->
        write_or_exit ~cmd:"workload" path (fun () ->
            Out_channel.with_open_text path (fun out -> Workload.Trace.save out events));
        Printf.printf "wrote %d queries to %s\n" queries path
    | None ->
        List.iter
          (fun event -> print_endline (Workload.Trace.to_line (Workload.Trace.line_of_event event)))
          events
  in
  let queries =
    Arg.(value & opt positive_int 100
         & info [ "queries" ] ~docv:"N" ~doc:"Number of queries.")
  in
  let output =
    Arg.(value & opt (some (out_path_arg ~what:"trace" ~allowed:[])) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the trace to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "workload" ~exits
       ~doc:"Generate a replayable query trace with the Section V-C user model")
    Term.(const run $ articles_term 1_000 $ queries $ seed_term $ output)

(* ------------------------------------------------------------------ *)
(* chord *)

let chord_cmd =
  let run nodes lookups seed fail_fraction =
    let ring = Dht.Chord.create_network ~seed ~node_count:nodes () in
    Printf.printf "ring of %d nodes, converged: %b\n" (Dht.Chord.live_count ring)
      (Dht.Chord.is_converged ring);
    if fail_fraction > 0.0 then begin
      (* Spread failures around the ring: a run of consecutive failures
         longer than the successor list legitimately defeats repair. *)
      let step = Stdlib.max 2 (int_of_float (1.0 /. fail_fraction)) in
      let victims =
        List.filteri (fun i _ -> i mod step = 0) (Dht.Chord.live_keys ring)
      in
      List.iter (Dht.Chord.leave ring) victims;
      Dht.Chord.stabilize ring ~rounds:8;
      Printf.printf "failed %d nodes, repaired: %b\n" (List.length victims)
        (Dht.Chord.is_converged ring)
    end;
    let g = Stdx.Prng.create ~seed:(Int64.add seed 1L) in
    let summary = Stdx.Stats.Summary.create () in
    let correct = ref 0 in
    for _ = 1 to lookups do
      let key = Hashing.Key.random g in
      let owner, hops = Dht.Chord.lookup ring key in
      Stdx.Stats.Summary.add_int summary hops;
      if Hashing.Key.equal owner (Dht.Chord.responsible_oracle ring key) then incr correct
    done;
    Printf.printf "%d lookups: %.2f mean hops (max %.0f), %d/%d correct\n" lookups
      (Stdx.Stats.Summary.mean summary)
      (Stdx.Stats.Summary.max summary)
      !correct lookups
  in
  let lookups =
    Arg.(value & opt int 1_000 & info [ "lookups" ] ~docv:"N" ~doc:"Number of random lookups.")
  in
  let fail_fraction =
    Arg.(value & opt float 0.0
         & info [ "fail" ] ~docv:"F" ~doc:"Fraction of nodes to fail before measuring.")
  in
  Cmd.v
    (Cmd.info "chord" ~exits ~doc:"Exercise the Chord substrate")
    Term.(const run $ nodes_term 128 $ lookups $ seed_term $ fail_fraction)

(* ------------------------------------------------------------------ *)
(* metrics *)

let metrics_cmd =
  let run path =
    match Obs.Export.read_metrics ~path with
    | Ok snapshot -> print_string (Obs.Export.render_table snapshot)
    | Error msg ->
        Printf.eprintf "cannot read %s: %s\n" path msg;
        exit 1
  in
  let path =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"Prometheus text file written by simulate --metrics-out.")
  in
  Cmd.v
    (Cmd.info "metrics" ~exits ~doc:"Render an exported metrics snapshot as a table")
    Term.(const run $ path)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "Data indexing in peer-to-peer DHT networks (ICDCS 2004), reproduced in OCaml" in
  let info = Cmd.info "p2pindex" ~version:"1.0.0" ~doc ~exits in
  let cmd =
    Cmd.group info
      [
        simulate_cmd;
        experiment_cmd;
        corpus_cmd;
        search_cmd;
        workload_cmd;
        chord_cmd;
        metrics_cmd;
      ]
  in
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok () | `Version | `Help) -> Cmd.Exit.ok
    | Error (`Parse | `Term) -> usage_error
    | Error `Exn -> Cmd.Exit.internal_error)
