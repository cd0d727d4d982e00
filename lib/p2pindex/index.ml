(** The distributed query-to-query index (Section IV).

    Indexes are stored in the DHT itself: the node responsible for [h(q)]
    keeps the mappings [(q ; q_i)] with [q ⊒ q_i].  Looking up a query
    returns either the file (when the query is a most specific descriptor),
    the list of more specific queries registered under it, or nothing — in
    which case the generalization/specialization search of Section IV-B can
    still locate matching files at a higher lookup cost.

    Because index entries are regular DHT data (Section IV-D), they ride on
    the substrate's replication: every entry is written to [replication]
    replica nodes, lookups retry down the replica list when the responsible
    node is dead or has lost the mapping, and under churn the entries are
    soft state — TTL-stamped, refreshed by {!republish} and re-homed by
    {!repair}.  With the defaults (replication 1, everything alive,
    infinite TTL) the index behaves exactly as the static version did.

    The module is a functor over the query language; all traffic flows
    through an optional {!Dht.Network.t} so simulations and examples get
    byte-accurate accounting for free. *)

module Key = Hashing.Key

module type S = sig
  type query

  type file = Storage.Block_store.file

  type t

  val create :
    ?network:Dht.Network.t ->
    ?rpc:Dht.Rpc.t ->
    ?metrics:Obs.Metrics.t ->
    ?tracer:Obs.Trace.t ->
    ?charge_route_hops:bool ->
    ?replication:int ->
    ?read_quorum:int ->
    ?write_quorum:int ->
    ?liveness:Dht.Liveness.t ->
    ?clock:(unit -> float) ->
    ?ttl:float ->
    resolver:Dht.Resolver.t ->
    unit ->
    t
  (** [create ~resolver ()] builds an empty index over the given substrate.
      When [network] is set, every lookup and publication is charged to it;
      [charge_route_hops] (default false) additionally bills substrate
      routing hops as maintenance traffic.

      All messaging flows through an {!Dht.Rpc} channel: [rpc] supplies a
      fault-injecting one (deadlines, retries, hedging — its plan decides
      which messages are lost or delayed); by default a private zero-plan
      channel over [network] is built, which degenerates byte-for-byte to
      direct accounting.  A custom [rpc] should be created over the same
      network, resolver and hop-charging flag.

      [replication] (default 1) is the number of replica nodes every entry
      is written to (the primary and its ring successors); [liveness]
      (default: a private all-alive set) is the shared alive-set a churn
      driver flips; [clock] (default: constantly [0.0]) supplies virtual
      time; [ttl] (default [infinity]) is the soft-state lifetime stamped
      on every published entry.

      Passing [read_quorum] or [write_quorum] turns the Dynamo-style
      quorum machinery on (see [quorum_enabled]): every lookup step
      consults live replicas until [read_quorum] (default 1) non-empty
      answers arrive, reconciles them by version vector, read-repairs
      the diverged consulted replicas, and — with [metrics] — counts
      reads, stale reads and read repairs under [p2pindex_quorum_*];
      every write counts its live-replica acknowledgements against
      [write_quorum] (default [replication]).  Without either parameter
      nothing quorum-related is registered or billed and lookups take
      the historical first-live-replica path, byte for byte.

      With [metrics], every lookup step bumps
      [p2pindex_index_lookup_steps_total] (labelled by outcome), the
      [p2pindex_index_route_hops] histogram and the
      [p2pindex_index_lookup_retries] histogram (replica-list attempts
      beyond the first), and every search observes its interaction count
      and result-set size.  With [tracer], every lookup step appends an
      {!Obs.Trace.span} to the open trace.
      @raise Invalid_argument when [replication < 1] or [liveness] covers
      a different node count than the resolver. *)

  val resolver : t -> Dht.Resolver.t

  val rpc : t -> Dht.Rpc.t
  (** The messaging channel every lookup and publication goes through. *)

  val replication : t -> int

  val read_quorum : t -> int
  val write_quorum : t -> int

  val quorum_enabled : t -> bool
  (** Whether a quorum parameter was passed at [create] time — the
      switch between the quorum read path and the historical
      first-live-replica path. *)

  val liveness : t -> Dht.Liveness.t
  (** The shared alive-set: fail/revive nodes here and every lookup sees
      it.  After an abrupt failure, also call {!drop_node_state}. *)

  val metrics : t -> Obs.Metrics.t option
  val tracer : t -> Obs.Trace.t option
  (** The observability hooks passed at {!create} time, so layers above
      (sessions, the simulation runner) can join the same trace stream. *)

  val key_of_query : query -> Key.t
  (** [h(q)]: the DHT key of a query's canonical string. *)

  val node_of_query : t -> query -> int
  (** The primary responsible node, dead or alive. *)

  val live_node_of_query : t -> query -> int option
  (** The acting responsible node: the first live replica, if any. *)

  val node_of_string : t -> string -> int
  (** {!node_of_query} for an already-rendered query string, so hot
      paths that hold the rendering never re-render. *)

  val live_node_of_string : t -> string -> int
  (** {!live_node_of_query} for an already-rendered query string,
      without the option: the acting responsible node's index, or [-1]
      when the whole replica set is dead. *)

  exception Covering_violation of { parent : string; child : string }
  (** Raised when trying to register a mapping whose parent does not cover
      its child — the property that makes the system "resilient to arbitrary
      linking" (Section IV-D). *)

  val insert_mapping : t -> parent:query -> child:query -> bool
  (** Register [(parent ; child)] at the nodes responsible for [h(parent)].
      Returns false when the mapping already existed (its TTL is refreshed).
      @raise Covering_violation if [covers parent child] does not hold. *)

  val remove_mapping : t -> parent:query -> child:query -> bool
  (** Returns whether the mapping was present. *)

  val store_file : t -> msd:query -> file -> unit
  (** Store the file payload at the nodes responsible for its most specific
      descriptor. *)

  val publish : t -> scheme:query Scheme.t -> msd:query -> file -> unit
  (** Store the file and install every index entry the scheme derives from
      its descriptor. *)

  val republish : t -> scheme:query Scheme.t -> msd:query -> file -> unit
  (** Soft-state refresh: re-send every entry {!publish} would install,
      stamping fresh TTLs, restoring lost copies, and billing the full
      round as maintenance traffic whether or not receivers already held
      the entries. *)

  val repair : t -> int
  (** Full-state repair pass over both stores: re-home entries onto live
      replicas that lost them (billing each copied entry as maintenance);
      returns the number of entries re-homed.  Tombstone-aware: a
      replica whose empty state postdates the source's copy is left
      alone. *)

  val anti_entropy : t -> int
  (** Digest-based divergence repair over both stores
      ({!Storage.Anti_entropy}): replica pairs exchange per-range digests
      (billed as maintenance; the match is decided by comparing the
      states) and ship only the diverged keys' entries.  Returns the
      number of entries shipped; with quorum metrics on, the
      [p2pindex_antientropy_*] counters record digest vs shipped vs
      would-be full-state bytes. *)

  val drop_node_state : t -> int -> unit
  (** Forget every mapping and file a node held — an abrupt, crash-stop
      failure.  The caller flips the node in {!liveness}. *)

  val unpublish : t -> scheme:query Scheme.t -> msd:query -> unit
  (** Delete the file and clean up: mappings whose child no longer leads
      anywhere are removed, recursively (Section IV-C). *)

  type step =
    | File of file  (** The query was a most specific descriptor. *)
    | Children of query list  (** More specific queries, covered by the input. *)
    | Not_indexed  (** No entry anywhere for this query. *)

  val lookup_step : t -> query -> step
  (** One user-system interaction: contact the node responsible for the
      query and return what it knows.  When that node is dead or answers
      empty, retry down the replica list (each attempt billed as a
      request) before giving up — at most [replication] probes. *)

  val lookup_step_rendered : t -> rendered:string -> query -> step
  (** {!lookup_step} when the caller already rendered the query:
      [rendered] must be [Q.to_string q].  The session walk renders each
      hop once and threads the string here. *)

  val mapping_children : t -> query -> query list
  (** The children registered under a query, without traffic accounting
      (inspection only). *)

  val search : ?interactions:int ref -> ?max_results:int -> t -> query -> (query * file) list
  (** Automated lookup: recursively explore the index from the query and
      return every reachable file with its descriptor.  Every
      {!lookup_step} performed increments [interactions]. *)

  val search_with_generalization :
    ?interactions:int ref ->
    ?max_results:int ->
    ?generalization_budget:int ->
    t ->
    query ->
    (query * file) list
  (** Like {!search}, but when the query is not indexed, generalize it
      (breadth-first over [Q.generalizations], at most
      [generalization_budget] probes, default 64) until an indexed query is
      found, then specialize back down — following only children compatible
      with the original query — and keep the files it covers. *)

  val mapping_count : t -> int
  val index_key_count : t -> int

  val iter_mappings : t -> (parent_key:Hashing.Key.t -> query -> unit) -> unit
  (** Visit every registered mapping (for audits and invariant checks):
      the DHT key it is filed under and the child query it maps to. *)

  val index_bytes : t -> int
  (** Storage footprint of all index entries under the wire model, summed
      from the entries' cached lengths. *)

  val mapping_totals : t -> int * int
  (** {!mapping_count} and {!index_bytes} from one walk of the index. *)

  val entry_length_mismatches : t -> (string * int) list
  (** Audit of the render-once invariant: every entry physically held on
      any replica (dead nodes and expired entries included) whose cached
      length differs from its rendering's — a mapping's child against
      its canonical string, a file against its name — as (rendering,
      cached length) pairs.  Empty when every write, repair and sync
      carried the right length. *)

  val keys_per_node : t -> int array
  (** Distinct keys (index keys and stored files) physically held per
      node — replicas included. *)

  val entries_per_node : t -> int array
  (** Registered entries (index mappings plus stored files) per node — the
      "regular keys per node" measure of Section V-f, where every
      registration under a key counts. *)

  val file_count : t -> int
  val file_bytes : t -> int
  val files_per_node : t -> int array
end

module Make (Q : Query_sig.QUERY) : S with type query = Q.t = struct
  type query = Q.t

  type file = Storage.Block_store.file

  module Rstore = Storage.Replicated_store

  (* Registry instruments, prefetched at creation so the lookup hot path
     pays no hashtable lookups. *)
  type instruments = {
    steps_msd : Obs.Metrics.Counter.t;
    steps_refined : Obs.Metrics.Counter.t;
    steps_generalized : Obs.Metrics.Counter.t;
    steps_not_found : Obs.Metrics.Counter.t;
    route_hops : Obs.Metrics.Histogram.t;
    lookup_retries : Obs.Metrics.Histogram.t;
    interactions_per_query : Obs.Metrics.Histogram.t;
    result_set_size : Obs.Metrics.Histogram.t;
  }

  (* Consistency accounting, registered only when a quorum parameter was
     passed at creation — inactive indexes keep their metric snapshots
     byte-identical to the pre-quorum ones. *)
  type quorum_instruments = {
    q_reads : Obs.Metrics.Counter.t;
    q_stale_reads : Obs.Metrics.Counter.t;
    q_read_repairs : Obs.Metrics.Counter.t;
    q_writes : Obs.Metrics.Counter.t;
    q_write_failures : Obs.Metrics.Counter.t;
    ae_rounds : Obs.Metrics.Counter.t;
    ae_exchanges : Obs.Metrics.Counter.t;
    ae_digest_bytes : Obs.Metrics.Counter.t;
    ae_shipped_entries : Obs.Metrics.Counter.t;
    ae_shipped_bytes : Obs.Metrics.Counter.t;
    ae_full_state_bytes : Obs.Metrics.Counter.t;
  }

  type t = {
    resolver : Dht.Resolver.t;
    rpc : Dht.Rpc.t;
    liveness : Dht.Liveness.t;
    clock : unit -> float;
    ttl : float;
    quorum_enabled : bool;
    mappings : Q.t Rstore.t;
    files : file Rstore.t;
    key_cache : (string, Key.t) Hashtbl.t;
        (* Hashing a query is hot; memoize canonical-string -> key. *)
    metrics : Obs.Metrics.t option;
    instruments : instruments option;
    quorum_instruments : quorum_instruments option;
    tracer : Obs.Trace.t option;
  }

  let make_instruments registry =
    let step outcome =
      Obs.Metrics.counter registry
        ~help:"Lookup steps performed, by what the responsible node answered"
        ~labels:[ ("outcome", Obs.Trace.outcome_label outcome) ]
        "p2pindex_index_lookup_steps_total"
    in
    {
      steps_msd = step Obs.Trace.Msd_reached;
      steps_refined = step Obs.Trace.Refined;
      steps_generalized = step Obs.Trace.Generalized;
      steps_not_found = step Obs.Trace.Not_found;
      route_hops =
        Obs.Metrics.histogram registry
          ~help:"Substrate route hops per lookup step"
          ~buckets:(Obs.Metrics.exponential_buckets ~start:1.0 ~factor:2.0 ~count:8)
          "p2pindex_index_route_hops";
      lookup_retries =
        Obs.Metrics.histogram registry
          ~help:"Replica-list attempts beyond the first, per lookup step"
          ~buckets:(Obs.Metrics.linear_buckets ~start:0.0 ~step:1.0 ~count:8)
          "p2pindex_index_lookup_retries";
      interactions_per_query =
        Obs.Metrics.histogram registry
          ~help:"User-system interactions per automated search"
          "p2pindex_index_interactions_per_query";
      result_set_size =
        Obs.Metrics.histogram registry
          ~help:"Files returned per automated search"
          "p2pindex_index_result_set_size";
    }

  let make_quorum_instruments registry =
    let c help name = Obs.Metrics.counter registry ~help name in
    {
      q_reads = c "Quorum lookup steps performed" "p2pindex_quorum_reads_total";
      q_stale_reads =
        c "Quorum reads whose merged answer missed newer live-replica state"
          "p2pindex_quorum_stale_reads_total";
      q_read_repairs =
        c "Consulted replicas overwritten by read repair"
          "p2pindex_quorum_read_repairs_total";
      q_writes = c "Coordinated writes" "p2pindex_quorum_writes_total";
      q_write_failures =
        c "Writes acknowledged by fewer than write_quorum live replicas"
          "p2pindex_quorum_write_failures_total";
      ae_rounds = c "Anti-entropy passes run" "p2pindex_antientropy_rounds_total";
      ae_exchanges =
        c "Anti-entropy digest push-pulls" "p2pindex_antientropy_exchanges_total";
      ae_digest_bytes =
        c "Bytes spent on anti-entropy digest messages"
          "p2pindex_antientropy_digest_bytes_total";
      ae_shipped_entries =
        c "Entries shipped to converge diverged keys"
          "p2pindex_antientropy_shipped_entries_total";
      ae_shipped_bytes =
        c "Bytes of entries shipped by anti-entropy"
          "p2pindex_antientropy_shipped_bytes_total";
      ae_full_state_bytes =
        c "Bytes a digestless full-state exchange would have shipped"
          "p2pindex_antientropy_full_state_bytes_total";
    }

  let create ?network ?rpc ?metrics ?tracer ?(charge_route_hops = false)
      ?(replication = 1) ?read_quorum ?write_quorum ?liveness
      ?(clock = fun () -> 0.0) ?(ttl = infinity) ~resolver () =
    if not (ttl > 0.) then invalid_arg "Index.create: ttl must be > 0";
    let liveness =
      match liveness with
      | Some l -> l
      | None -> Dht.Liveness.create ~node_count:(Dht.Resolver.node_count resolver)
    in
    let rpc =
      match rpc with
      | Some r -> r
      | None ->
          (* A private zero-plan channel: transparent accounting, no
             registered metric families, byte-identical to direct sends. *)
          Dht.Rpc.create ?network ~resolver ~charge_route_hops ()
    in
    let quorum_enabled = read_quorum <> None || write_quorum <> None in
    let quorum_instruments =
      if quorum_enabled then Option.map make_quorum_instruments metrics else None
    in
    let on_write_acks =
      Option.map
        (fun qi ~acks ~needed ->
          Obs.Metrics.Counter.incr qi.q_writes;
          if acks < needed then Obs.Metrics.Counter.incr qi.q_write_failures)
        quorum_instruments
    in
    {
      resolver;
      rpc;
      liveness;
      clock;
      ttl;
      quorum_enabled;
      mappings =
        Rstore.create ~resolver ~replication ?read_quorum ?write_quorum
          ?on_write_acks ~liveness ~clock ();
      files =
        Rstore.create ~resolver ~replication ?read_quorum ?write_quorum
          ?on_write_acks ~liveness ~clock ();
      key_cache = Hashtbl.create 4096;
      metrics;
      instruments = Option.map make_instruments metrics;
      quorum_instruments;
      tracer;
    }

  let resolver t = t.resolver
  let rpc t = t.rpc
  let replication t = Rstore.replication t.mappings
  let read_quorum t = Rstore.read_quorum t.mappings
  let write_quorum t = Rstore.write_quorum t.mappings
  let quorum_enabled t = t.quorum_enabled
  let liveness t = t.liveness

  let metrics t = t.metrics
  let tracer t = t.tracer

  let key_of_string_memo t s =
    match Hashtbl.find_opt t.key_cache s with
    | Some key -> key
    | None ->
        let key = Key.of_string s in
        Hashtbl.add t.key_cache s key;
        key

  let key_of_query q = Key.of_string (Q.to_string q)

  let key_of t q = key_of_string_memo t (Q.to_string q)

  let node_of_query t q = Dht.Resolver.responsible t.resolver (key_of t q)

  let live_node_of_query t q = Rstore.live_node t.mappings (key_of t q)

  let[@hot] node_of_string t s =
    Dht.Resolver.responsible t.resolver (key_of_string_memo t s)

  let[@hot] live_node_of_string t s =
    Rstore.live_node_id t.mappings (key_of_string_memo t s)

  (* Expiry stamped on entries written now; infinity when soft state is
     off, so the static path never compares clocks. *)
  let entry_expiry t = if t.ttl = infinity then infinity else t.clock () +. t.ttl

  exception Covering_violation of { parent : string; child : string }

  (* ---------------------------------------------------------------- *)
  (* Traffic helpers: every logical message goes through the RPC
     channel, which bills the network (when one is attached) and — under
     a faulty plan — decides delivery.  Publication and repair writes
     are reliable one-ways: the soft-state design assumes publishers
     reach their replicas, and republish/repair restore anything a
     faulty period loses. *)

  let charge_maintenance t ~dst ~bytes =
    Dht.Rpc.send_oneway t.rpc ~dst ~bytes ~category:Dht.Network.Maintenance
      ~deliver:(fun () -> true)

  (* One maintenance message per live replica of [key] — with replication 1
     and everything alive this is the single primary-bound message the
     static index charged. *)
  let charge_live_replicas t ~key ~bytes =
    let replicas = Rstore.replica_buf t.mappings key in
    for i = 0 to Stdx.Arena.Int_buf.length replicas - 1 do
      let dst = Stdx.Arena.Int_buf.unsafe_get replicas i in
      if Dht.Liveness.alive t.liveness dst then charge_maintenance t ~dst ~bytes
    done

  (* ---------------------------------------------------------------- *)
  (* Publication. *)

  (* A descriptor's scheme edges share their query values — a child is
     often the next edge's parent — so publication renders each distinct
     query value once, memoized by identity over one descriptor. *)
  let edge_renderer () =
    let rendered = ref [] in
    fun q ->
      match List.assq_opt q !rendered with
      | Some s -> s
      | None ->
          let s = Q.to_string q in
          rendered := (q, s) :: !rendered;
          s

  (* Write one mapping from its parent's and child's renderings: the
     parent's gives the key and, with the child's length (cached in the
     entry), the install bill.  Returns the key, whether the entry was
     new, and the bill. *)
  let write_mapping t ~expires_at ~parent_string ~child_string child =
    let key = key_of_string_memo t parent_string in
    let len = String.length child_string in
    let added =
      Rstore.insert_unique ~expires_at ~equal:Q.equal t.mappings ~key ~len child
    in
    (key, added, Wire.cache_install_bytes_of_len (String.length parent_string) len)

  let install_mapping t ~render ~parent ~child =
    if not (Q.covers parent child) then
      raise (Covering_violation { parent = render parent; child = render child });
    let key, added, bytes =
      write_mapping t ~expires_at:(entry_expiry t) ~parent_string:(render parent)
        ~child_string:(render child) child
    in
    if added then charge_live_replicas t ~key ~bytes;
    added

  let insert_mapping t ~parent ~child = install_mapping t ~render:Q.to_string ~parent ~child

  let remove_mapping t ~parent ~child =
    let key = key_of t parent in
    Rstore.remove t.mappings ~key (Q.equal child) > 0

  (* A stored file's cached length is its name's: the name is what a
     file reply carries ({!Wire.file_response_bytes}). *)
  let file_len (file : file) = String.length file.name

  let store_file t ~msd file =
    let msd_string = Q.to_string msd in
    let key = key_of_string_memo t msd_string in
    ignore (Rstore.remove_key t.files key);
    Rstore.insert ~expires_at:(entry_expiry t) t.files ~key ~len:(file_len file) file;
    charge_live_replicas t ~key ~bytes:(Wire.request_bytes msd_string)

  let publish t ~scheme ~msd file =
    store_file t ~msd file;
    let render = edge_renderer () in
    List.iter
      (fun { Scheme.parent; child } -> ignore (install_mapping t ~render ~parent ~child))
      (Scheme.edges scheme msd)

  let republish t ~scheme ~msd file =
    let expires_at = entry_expiry t in
    let msd_string = Q.to_string msd in
    let file_key = key_of_string_memo t msd_string in
    ignore
      (Rstore.insert_unique ~expires_at ~equal:( = ) t.files ~key:file_key
         ~len:(file_len file) file);
    charge_live_replicas t ~key:file_key ~bytes:(Wire.request_bytes msd_string);
    let render = edge_renderer () in
    List.iter
      (fun { Scheme.parent; child } ->
        let key, _added, bytes =
          write_mapping t ~expires_at ~parent_string:(render parent)
            ~child_string:(render child) child
        in
        charge_live_replicas t ~key ~bytes)
      (Scheme.edges scheme msd)

  (* What shipping one stored entry costs, priced from its cached length
     (mappings) or its file handle (files). *)
  let mapping_entry_bytes e = Wire.stored_entry_bytes_of_len (Rstore.entry_len e)
  let file_entry_bytes e = Wire.file_response_bytes (Rstore.entry_value e)

  let repair t =
    Rstore.repair t.mappings ~on_restore:(fun ~node e ->
        charge_maintenance t ~dst:node ~bytes:(mapping_entry_bytes e))
    + Rstore.repair t.files ~on_restore:(fun ~node e ->
          charge_maintenance t ~dst:node ~bytes:(file_entry_bytes e))

  let anti_entropy t =
    let on_exchange ~peer ~bytes = charge_maintenance t ~dst:peer ~bytes in
    let on_ship ~node ~bytes = charge_maintenance t ~dst:node ~bytes in
    let sm =
      Storage.Anti_entropy.run t.mappings ~entry_bytes:mapping_entry_bytes ~on_exchange
        ~on_ship ()
    in
    let sf =
      Storage.Anti_entropy.run t.files ~entry_bytes:file_entry_bytes ~on_exchange
        ~on_ship ()
    in
    let s = Storage.Anti_entropy.add sm sf in
    (match t.quorum_instruments with
    | None -> ()
    | Some qi ->
        let add c n = if n > 0 then Obs.Metrics.Counter.incr ~by:n c in
        Obs.Metrics.Counter.incr qi.ae_rounds;
        add qi.ae_exchanges s.Storage.Anti_entropy.exchanges;
        add qi.ae_digest_bytes s.Storage.Anti_entropy.digest_bytes;
        add qi.ae_shipped_entries s.Storage.Anti_entropy.entries_shipped;
        add qi.ae_shipped_bytes s.Storage.Anti_entropy.shipped_bytes;
        add qi.ae_full_state_bytes s.Storage.Anti_entropy.full_state_bytes);
    s.Storage.Anti_entropy.entries_shipped

  let drop_node_state t node =
    Rstore.drop_state t.mappings node;
    Rstore.drop_state t.files node

  (* A query is dead when nothing is reachable from it anymore: no file
     stored under its key and no index children left. *)
  let is_dead t q =
    let key = key_of t q in
    (not (Rstore.mem t.files key)) && Rstore.lookup t.mappings key = []

  let unpublish t ~scheme ~msd =
    ignore (Rstore.remove_key t.files (key_of t msd));
    let edges = Scheme.edges scheme msd in
    (* Remove edges whose child leads nowhere; repeat until a fixpoint so
       chains collapse bottom-up ("recursively delete the references"). *)
    let rec sweep () =
      let changed =
        List.fold_left
          (fun changed { Scheme.parent; child } ->
            if is_dead t child && remove_mapping t ~parent ~child then true else changed)
          false edges
      in
      if changed then sweep ()
    in
    sweep ()

  (* ---------------------------------------------------------------- *)
  (* Lookup. *)

  type step = File of file | Children of query list | Not_indexed

  (* Telemetry for one lookup step.  [hops] is measured only when someone
     is listening; spans carry the same wire-model byte counts the network
     accounting was charged, so trace totals and network totals agree. *)
  let observed t =
    (match t.instruments with Some _ -> true | None -> false)
    || match t.tracer with Some _ -> true | None -> false

  let measured_hops t key =
    if observed t then
      (* lint: allow catch-all-handler — hop telemetry is best-effort; a routing failure here must not fail the lookup *)
      try Dht.Resolver.route_hops t.resolver key with _ -> 0
    else 0

  let record_step t ?request_bytes ~query_string ~dst ~hops ~result_count
      ~response_bytes ~outcome () =
    let request_bytes =
      match request_bytes with
      | Some bytes -> bytes
      | None -> Wire.request_bytes query_string
    in
    (match t.instruments with
    | None -> ()
    | Some ins ->
        let counter =
          match (outcome : Obs.Trace.outcome) with
          | Msd_reached -> ins.steps_msd
          | Refined -> ins.steps_refined
          | Generalized -> ins.steps_generalized
          | Not_found -> ins.steps_not_found
        in
        Obs.Metrics.Counter.incr counter;
        Obs.Metrics.Histogram.observe_int ins.route_hops hops);
    (match t.tracer with
    | None -> ()
    | Some tracer ->
        Obs.Trace.span tracer ~query:query_string ~node:dst ~route_hops:hops
          ~result_count ~request_bytes ~response_bytes ~outcome ());
    if Obs.Log.enabled ~debug:true () then
      (Obs.Log.event ~debug:true "lookup_step"
         [
           ("query", Obs.Json.String query_string);
           ("node", Obs.Json.Int dst);
           ("outcome", Obs.Json.String (Obs.Trace.outcome_label outcome));
           ("results", Obs.Json.Int result_count);
         ]
      [@lint.allow "P3 — debug-gated log fields: the tuples exist only when --debug tracing is on"])

  let observe_retries t ~attempts =
    match t.instruments with
    | None -> ()
    | Some ins -> Obs.Metrics.Histogram.observe_int ins.lookup_retries (attempts - 1)

  (* What the replica answers over the wire; children travel with the
     reply's billed size, priced from the entries' cached lengths. *)
  type answer =
    | A_file of file
    | A_children of { children : query list; bytes : int }
    | A_empty

  let children_bytes entries = Wire.response_bytes_of_len ~len:Rstore.entry_len entries

  let children_answer entries ~bytes =
    (* lint: allow P4 — wire deserialization: the answer materializes its child queries once per answered probe *)
    A_children { children = List.map Rstore.entry_value entries; bytes }

  (* One user-system interaction, failure-tolerant: walk the replica list
     in order, one RPC call per replica.  A dead replica costs the
     request (timeout) and nothing else; a live replica that knows
     nothing answers empty and the walk moves on; the first live replica
     with an entry answers.  Bounded by the replication factor.  Under a
     fault plan each call additionally retries lost messages with
     backoff and may hedge to the next replica; with the zero plan and
     the node alive this is exactly the static single-probe lookup. *)
  let[@hot] lookup_step_plain t ~generalization ~query_string =
    let key = key_of_string_memo t query_string in
    let replicas = Rstore.replica_buf t.mappings key in
    let primary = Stdx.Arena.Int_buf.get replicas 0 in
    let request_bytes = Wire.request_bytes query_string in
    (* The remote side of the call: runs once per delivered request
       copy, so it must be (and is) a read-only probe. *)
    (* lint: allow P1 — RPC handler contract: Rpc.call takes a callback; one handler per lookup step *)
    let handler ~node =
      if not (Dht.Liveness.alive t.liveness node) then Dht.Rpc.No_response
      else
        match Rstore.entries_at t.files ~node key with
        | e :: _ ->
            let file = Rstore.entry_value e in
            Dht.Rpc.Reply
              { bytes = Wire.file_response_bytes file; value = A_file file }
        | [] -> (
            match Rstore.entries_at t.mappings ~node key with
            | [] -> Dht.Rpc.Reply { bytes = Wire.response_bytes []; value = A_empty }
            | entries ->
                let bytes = children_bytes entries in
                Dht.Rpc.Reply { bytes; value = children_answer entries ~bytes })
    in
    (* lint: allow P1 — replica-walk contract: walk_replicas takes the probe as a callback; one closure per lookup step *)
    let probe ~node ~next =
      (* Hedge to the next replica in placement order ([next] is [-1] on
         the last replica): it holds the same data, so its answer is as
         authoritative as the primary's. *)
      let hedge_dst = if next >= 0 then Some next else None in
      match
        Dht.Rpc.call t.rpc ~dst:node ?hedge_dst ~route_key:key ~request_bytes
          ~handler ()
      with
      | Dht.Rpc.Exhausted -> None
      | Dht.Rpc.Answered { value; node = responder } -> (
          match value with
          | A_file file ->
              if observed t then
                record_step t ~query_string ~dst:responder
                  ~hops:(measured_hops t key) ~result_count:1
                  ~response_bytes:(Wire.file_response_bytes file)
                  ~outcome:Obs.Trace.Msd_reached ();
              Some (File file)
          | A_children { children; bytes } ->
              if observed t then
                record_step t ~query_string ~dst:responder
                  ~hops:(measured_hops t key)
                  ~result_count:(List.length children)
                  ~response_bytes:bytes
                  ~outcome:
                    (if generalization then Obs.Trace.Generalized
                     else Obs.Trace.Refined)
                  ();
              Some (Children children)
          | A_empty ->
              if next < 0 then begin
                if observed t then
                  record_step t ~query_string ~dst:responder
                    ~hops:(measured_hops t key) ~result_count:0
                    ~response_bytes:(Wire.response_bytes [])
                    ~outcome:Obs.Trace.Not_found ();
                Some Not_indexed
              end
              else
                (* This replica may have rejoined after losing the entry;
                   a later replica can still hold it. *)
                None)
    in
    match Dht.Rpc.walk_replicas_buf ~replicas ~probe with
    | Some step, attempts ->
        observe_retries t ~attempts;
        step
    | None, attempts ->
        (* Every replica dead or unreachable: requests were paid, nobody
           answered. *)
        if observed t then
          record_step t ~query_string ~dst:primary ~hops:(measured_hops t key)
            ~result_count:0 ~response_bytes:0 ~outcome:Obs.Trace.Not_found ();
        observe_retries t ~attempts;
        Not_indexed

  (* Quorum lookup: walk the replica list like the plain path, but keep
     probing until [read_quorum] live replicas answered non-empty — an
     empty answer is still consulted (the replica may have rejoined
     after losing the entry and joins the reconcile) but does not count
     toward R.  The consulted states are then reconciled by version
     vector: dominance decides, diverged replicas are overwritten (read
     repair, billed as maintenance) and the merged state is the answer.
     Quorum responses carry their replica's version vectors on the wire
     ({!Wire.version_bytes}); the plain path bills nothing extra. *)
  let lookup_step_quorum t ~generalization ~query_string =
    let key = key_of_string_memo t query_string in
    let replicas = Rstore.replica_nodes t.mappings key in
    let primary = List.hd replicas in
    let request_bytes = Wire.request_bytes query_string in
    let r_needed = Rstore.read_quorum t.mappings in
    (* One replica's billed answer: its entry state plus the version
       vectors it carries on the wire.  Shared by the RPC handler and
       the walk's span accounting, so the step's span carries exactly
       the bytes the network was charged. *)
    let probe_state ~node =
      let version_bytes =
        Wire.version_bytes
          (Storage.Version.dots (Rstore.version_at t.files ~node key)
          + Storage.Version.dots (Rstore.version_at t.mappings ~node key))
      in
      match Rstore.entries_at t.files ~node key with
      | e :: _ ->
          let file = Rstore.entry_value e in
          (Wire.file_response_bytes file + version_bytes, A_file file)
      | [] -> (
          match Rstore.entries_at t.mappings ~node key with
          | [] -> (Wire.response_bytes [] + version_bytes, A_empty)
          | entries ->
              let bytes = children_bytes entries in
              (bytes + version_bytes, children_answer entries ~bytes))
    in
    let handler ~node =
      if not (Dht.Liveness.alive t.liveness node) then Dht.Rpc.No_response
      else
        let bytes, value = probe_state ~node in
        Dht.Rpc.Reply { bytes; value }
    in
    (* Consult replicas in placement order; a hedged answer may arrive
       from a later replica, which is then skipped when its turn comes.
       [resp_bytes] accumulates every consulted answer's billed bytes:
       unlike the plain path's single-exchange steps, a quorum step is
       one span covering the whole walk (the prefix scheme's
       covering-set spans set the precedent), so trace byte totals and
       network totals still agree. *)
    (* Monomorphic membership: [List.mem] would compare node ids with the
       polymorphic runtime equality. *)
    let rec already_consulted node = function
      | [] -> false
      | r :: rest -> Int.equal r node || already_consulted node rest
    in
    let rec walk responders first_nonempty nonempty attempts resp_bytes =
      function
      | [] -> (List.rev responders, first_nonempty, attempts, resp_bytes)
      | _ when nonempty >= r_needed ->
          (List.rev responders, first_nonempty, attempts, resp_bytes)
      | node :: rest ->
          if already_consulted node responders then
            walk responders first_nonempty nonempty attempts resp_bytes rest
          else begin
            let hedge_dst = match rest with next :: _ -> Some next | [] -> None in
            match
              Dht.Rpc.call t.rpc ~dst:node ?hedge_dst ~route_key:key ~request_bytes
                ~handler ()
            with
            | Dht.Rpc.Exhausted ->
                walk responders first_nonempty nonempty (attempts + 1) resp_bytes
                  rest
            | Dht.Rpc.Answered { value; node = responder } ->
                let resp_bytes =
                  resp_bytes + fst (probe_state ~node:responder)
                in
                let nonempty, first_nonempty =
                  match value with
                  | A_empty -> (nonempty, first_nonempty)
                  | A_file _ | A_children _ ->
                      ( nonempty + 1,
                        (match first_nonempty with
                        | Some _ as fn -> fn
                        | None -> Some responder) )
                in
                walk (responder :: responders) first_nonempty nonempty (attempts + 1)
                  resp_bytes rest
          end
    in
    let responders, first_nonempty, attempts, resp_bytes =
      walk [] None 0 0 0 replicas
    in
    observe_retries t ~attempts;
    (match t.quorum_instruments with
    | None -> ()
    | Some qi -> Obs.Metrics.Counter.incr qi.q_reads);
    match responders with
    | [] ->
        (* Every replica dead or unreachable: requests were paid, nobody
           answered. *)
        if observed t then
          record_step t ~request_bytes:(attempts * request_bytes) ~query_string
            ~dst:primary ~hops:(measured_hops t key) ~result_count:0
            ~response_bytes:0 ~outcome:Obs.Trace.Not_found ();
        Not_indexed
    | first :: _ ->
        let files, vf, repairs_f =
          Rstore.quorum_read t.files ~key ~nodes:responders
        in
        let children, vm, repairs_m =
          Rstore.quorum_read t.mappings ~key ~nodes:responders
        in
        let charge_repairs entry_bytes =
          List.iter (fun (node, gained) ->
              List.iter
                (fun e -> charge_maintenance t ~dst:node ~bytes:(entry_bytes e))
                gained)
        in
        charge_repairs file_entry_bytes repairs_f;
        charge_repairs mapping_entry_bytes repairs_m;
        (match t.quorum_instruments with
        | None -> ()
        | Some qi ->
            let repaired = List.length repairs_f + List.length repairs_m in
            if repaired > 0 then
              Obs.Metrics.Counter.incr ~by:repaired qi.q_read_repairs;
            (* Stale iff a read of every live replica would have seen a
               strictly newer history than this quorum did (oracle view,
               no messaging). *)
            let stale =
              Storage.Version.compare vf (Rstore.live_merged_version t.files key)
              = Storage.Version.Dominated
              || Storage.Version.compare vm
                   (Rstore.live_merged_version t.mappings key)
                 = Storage.Version.Dominated
            in
            if stale then Obs.Metrics.Counter.incr qi.q_stale_reads);
        let step, result_count, outcome =
          match files with
          | file :: _ -> (File file, 1, Obs.Trace.Msd_reached)
          | [] -> (
              match children with
              | [] -> (Not_indexed, 0, Obs.Trace.Not_found)
              | cs ->
                  ( Children cs,
                    List.length cs,
                    if generalization then Obs.Trace.Generalized
                    else Obs.Trace.Refined ))
        in
        if observed t then
          record_step t ~request_bytes:(attempts * request_bytes) ~query_string
            ~dst:(Option.value first_nonempty ~default:first)
            ~hops:(measured_hops t key) ~result_count ~response_bytes:resp_bytes
            ~outcome ();
        step

  (* Not marked [@hot] despite sitting on the walk's probe path: hotness
     would propagate into the quorum branch, whose reconcile is
     deliberately list-shaped.  The plain branch carries its own
     annotation. *)
  let lookup_step_rendered_at t ~generalization ~rendered =
    if t.quorum_enabled then
      lookup_step_quorum t ~generalization ~query_string:rendered
    else lookup_step_plain t ~generalization ~query_string:rendered

  let lookup_step_at t ~generalization q =
    lookup_step_rendered_at t ~generalization ~rendered:(Q.to_string q)

  let lookup_step_rendered t ~rendered (_ : Q.t) =
    lookup_step_rendered_at t ~generalization:false ~rendered

  let lookup_step t q = lookup_step_at t ~generalization:false q

  let mapping_children t q = Rstore.lookup t.mappings (key_of t q)

  (* ---------------------------------------------------------------- *)
  (* Automated search: drive the resumable {!Lookup} machines to
     completion, answering every probe synchronously.  The machines
     reproduce the historical recursive searches step for step; this
     module only supplies the probe loop. *)

  module Lookup_m = Lookup.Make (Q)

  let count interactions = match interactions with None -> () | Some r -> incr r

  let answer_of_step : step -> Lookup_m.answer = function
    | File file -> Lookup_m.File file
    | Children children -> Lookup_m.Children children
    | Not_indexed -> Lookup_m.Not_indexed

  let drive interactions t machine =
    let step ~generalization q =
      count interactions;
      answer_of_step (lookup_step_at t ~generalization q)
    in
    (Lookup_m.drive ~step machine).Lookup_m.files

  (* Per-query histograms: run the search with a private interaction
     counter, observe it and the result-set size, then credit the caller's
     counter as before. *)
  let with_query_instruments t interactions f =
    match t.instruments with
    | None -> f interactions
    | Some ins ->
        let local = ref 0 in
        let results = f (Some local) in
        (match interactions with Some r -> r := !r + !local | None -> ());
        Obs.Metrics.Histogram.observe_int ins.interactions_per_query !local;
        Obs.Metrics.Histogram.observe_int ins.result_set_size (List.length results);
        results

  let search ?interactions ?max_results t q =
    with_query_instruments t interactions (fun interactions ->
        drive interactions t (Lookup_m.search ?max_results q))

  let search_with_generalization ?interactions ?max_results ?generalization_budget
      t q =
    with_query_instruments t interactions (fun interactions ->
        drive interactions t
          (Lookup_m.search_with_generalization ?max_results
             ?generalization_budget q))

  (* ---------------------------------------------------------------- *)
  (* Introspection. *)

  let mapping_totals t = Rstore.entry_totals t.mappings mapping_entry_bytes
  let mapping_count t = fst (mapping_totals t)
  let index_bytes t = snd (mapping_totals t)
  let index_key_count t = Rstore.key_count t.mappings

  let iter_mappings t f =
    Rstore.fold t.mappings ~init:() ~f:(fun () key children ->
        List.iter (fun child -> f ~parent_key:key child) children)

  let entry_length_mismatches t =
    let audit store render =
      let found = ref [] in
      Rstore.iter_held store (fun ~node:_ _key e ->
          let rendered = render (Rstore.entry_value e) in
          if String.length rendered <> Rstore.entry_len e then
            found := (rendered, Rstore.entry_len e) :: !found);
      List.rev !found
    in
    audit t.mappings Q.to_string @ audit t.files (fun (file : file) -> file.name)

  let keys_per_node t =
    let index_keys = Rstore.keys_per_node t.mappings in
    let file_keys = Rstore.keys_per_node t.files in
    Array.mapi (fun i n -> n + file_keys.(i)) index_keys

  let entries_per_node t =
    let index_entries = Rstore.entries_per_node t.mappings in
    let file_keys = Rstore.keys_per_node t.files in
    Array.mapi (fun i n -> n + file_keys.(i)) index_entries

  let file_count t = Rstore.key_count t.files

  let file_bytes t =
    snd (Rstore.entry_totals t.files (fun e -> (Rstore.entry_value e : file).size_bytes))

  let files_per_node t = Rstore.keys_per_node t.files
end
