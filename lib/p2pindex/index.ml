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

module type S = Index_sig.S

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

  (* One parent key of the plan, as a republish round writes it: its
     distinct planned children, by first planned write, oldest first —
     read for their values and lengths only — and each one's planned
     edge count, in the same order ([||] while every count is one). *)
  type group = {
    key : Key.t;
    parent_len : int;  (** The parent's rendered length. *)
    mutable children : Q.t Rstore.entry array;  (** The first [size] are the children. *)
    mutable counts : int array;
    mutable size : int;
  }

  (* One published document: its file write, and what derives its
     edges again when the plan is rebuilt. *)
  type planned = {
    file_key : Key.t;
    file : file;
    request_bytes : int;  (** The file write's billed request. *)
    msd : Q.t;
    scheme : Q.t Scheme.t;
  }

  (* Open addressing over tagged values: slot [i] holds
     [(tag lsl 32) lor (v + 1)], 0 marking it free, with a tag below
     2^30 and a value below 2^32 - 1.  The slots are a power of two,
     kept at most half full.  Equal tags may stand for different items,
     so the caller compares the candidates a probe meets.

     A tag stands for a child of a group: the group plus the child's
     [Q.hash], modulo 2^30.  Equal children hash alike, so two equal
     children whose tags match are in the same group: the comparison
     never needs to read the group. *)
  module Tags = struct
    type t = { mutable slots : int array; mutable count : int }

    (* A power of two at least [2n], and at least 16. *)
    let room n =
      let rec pow2 k = if k >= 2 * n then k else pow2 (2 * k) in
      pow2 16

    let create n = { slots = Array.make (room n) 0; count = 0 }
    let mask t = Array.length t.slots - 1

    let tag ~group ~hash = (group + hash) land 0x3FFF_FFFF

    let start t tag = (tag * 0x9E3779B1) land mask t
    let next t i = (i + 1) land mask t

    (* The first slot from [i] tagged [tag], or the first free one. *)
    let rec find t tag i =
      let x = t.slots.(i) in
      if x = 0 || x lsr 32 = tag then i else find t tag (next t i)

    (* Slot [i]'s value, -1 when it is free. *)
    let value t i = (t.slots.(i) land 0xFFFF_FFFF) - 1

    let rec free_from t i = if t.slots.(i) = 0 then i else free_from t (next t i)

    let rec add t tag v =
      t.slots.(free_from t (start t tag)) <- (tag lsl 32) lor (v + 1);
      t.count <- t.count + 1;
      if 2 * t.count > Array.length t.slots then grow t

    and grow t =
      let old = t.slots in
      t.slots <- Array.make (2 * Array.length old) 0;
      t.count <- 0;
      Array.iter (fun x -> if x <> 0 then add t (x lsr 32) ((x land 0xFFFF_FFFF) - 1)) old
  end

  (* What a batch meeting planned keys finds them by: each group's
     number, by key, and each planned child's place in its group, by
     (group number, its [Q.hash]). *)
  type lookup = { by_key : int Key.Table.t; places : Tags.t }

  type plan = {
    mutable docs : planned array;  (** In publication order. *)
    mutable doc_count : int;
    mutable groups : group array;  (** In first-planned order. *)
    mutable group_count : int;
    mutable lookup : lookup option;  (** Made when a batch meets a planned key. *)
  }

  type t = {
    resolver : Dht.Resolver.t;
    rpc : Dht.Rpc.t;
    liveness : Dht.Liveness.t;
    clock : unit -> float;
    ttl : float;
    quorum_enabled : bool;
    read_quorum : int;
    write_quorum : int;
    mappings : Q.t Rstore.t;
    files : file Rstore.t;
    plan : plan option;  (* Only when republish rounds will run. *)
    consulted : Stdx.Int_buf.t;
        (* The replicas a quorum lookup step heard from, in answer order. *)
    mutable last_rendered : string;
    mutable last_key : Key.t;
        (* The last rendered query hashed, and its key (see
           {!key_of_rendered}). *)
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

  let create ?rpc ?metrics ?tracer ?(replication = 1) ?read_quorum ?write_quorum ?liveness
      ?(clock = fun () -> 0.0) ?(ttl = infinity) ?(republished = ttl < infinity) ~resolver () =
    if not (ttl > 0.) then invalid_arg "Index.create: ttl must be > 0";
    let liveness =
      match liveness with
      | Some l -> l
      | None -> Dht.Liveness.create ~node_count:(Dht.Resolver.node_count resolver)
    in
    (* By default a private zero-plan channel that bills nothing. *)
    let rpc = match rpc with Some r -> r | None -> Dht.Rpc.create () in
    let quorum_enabled = read_quorum <> None || write_quorum <> None in
    let read_quorum = Option.value ~default:1 read_quorum in
    let write_quorum = Option.value ~default:replication write_quorum in
    let quorum_instruments =
      if quorum_enabled then Option.map make_quorum_instruments metrics else None
    in
    let on_write_acks =
      Option.map
        (fun qi ~acks ->
          Obs.Metrics.Counter.incr qi.q_writes;
          if acks < write_quorum then Obs.Metrics.Counter.incr qi.q_write_failures)
        quorum_instruments
    in
    (* The stores reject a replication below 1 first. *)
    let mappings = Rstore.create ~resolver ~replication ?on_write_acks ~liveness ~clock () in
    let files = Rstore.create ~resolver ~replication ?on_write_acks ~liveness ~clock () in
    if read_quorum < 1 || read_quorum > replication then
      invalid_arg "Index.create: read_quorum outside [1, replication]";
    if write_quorum < 1 || write_quorum > replication then
      invalid_arg "Index.create: write_quorum outside [1, replication]";
    {
      resolver;
      rpc;
      liveness;
      clock;
      ttl;
      quorum_enabled;
      read_quorum;
      write_quorum;
      mappings;
      files;
      plan =
        (if republished then
           Some
             {
               docs = [||];
               doc_count = 0;
               groups = [||];
               group_count = 0;
               lookup = None;
             }
         else None);
      consulted = Stdx.Int_buf.create ~capacity:replication ();
      last_rendered = "";
      last_key = Key.of_string "";
      metrics;
      instruments = Option.map make_instruments metrics;
      quorum_instruments;
      tracer;
    }

  let resolver t = t.resolver
  let rpc t = t.rpc
  let replication t = Rstore.replication t.mappings
  let read_quorum t = t.read_quorum
  let write_quorum t = t.write_quorum
  let liveness t = t.liveness

  let metrics t = t.metrics
  let tracer t = t.tracer

  let key_of_query q = Key.of_string (Q.to_string q)

  let node_of_query t q = Dht.Resolver.responsible t.resolver (key_of_query q)

  (* A session step renders its query once and hands that one string to
     the liveness probe and then to the lookup step, so the index keeps
     the last string it hashed beside its key: the step computes one
     digest.  Any other string is hashed and kept in its place. *)
  let[@hot] key_of_rendered t s =
    if String.equal s t.last_rendered then t.last_key
    else begin
      let key = Key.of_string s in
      t.last_rendered <- s;
      t.last_key <- key;
      key
    end

  let[@hot] node_of_string t s = Dht.Resolver.responsible t.resolver (key_of_rendered t s)

  (* The key's replica set, from whichever store registered it: the two
     stores share their resolver, and a registered key's set is read off
     its slot without resolving it again. *)
  let[@hot] replicas_of t key =
    if Rstore.registered t.files key then Rstore.replica_buf t.files key
    else Rstore.replica_buf t.mappings key

  let[@hot] live_node_of_string t s =
    Dht.Liveness.first_live_buf t.liveness (replicas_of t (key_of_rendered t s))

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
    Dht.Rpc.send t.rpc ~dst ~bytes ~category:Dht.Network.Maintenance

  (* One maintenance message per live node of a replica set, here of
     [key]'s — with replication 1 and everything alive this is the
     single primary-bound message the static index charged. *)
  let charge_live t replicas ~bytes =
    for i = 0 to Stdx.Int_buf.length replicas - 1 do
      let dst = Stdx.Int_buf.unsafe_get replicas i in
      if Dht.Liveness.alive t.liveness dst then charge_maintenance t ~dst ~bytes
    done


  (* ---------------------------------------------------------------- *)
  (* Publication. *)

  let check_covers ~render parent child =
    if not (Q.covers parent child) then
      raise (Covering_violation { parent = render parent; child = render child })

  let insert_mapping t ~parent ~child =
    check_covers ~render:Q.to_string parent child;
    let parent_string = Q.to_string parent in
    let key = Key.of_string parent_string in
    let len = String.length (Q.to_string child) in
    let added =
      Rstore.insert_unique ~expires_at:(entry_expiry t) ~equal:Q.equal t.mappings ~key ~len child
    in
    if added then
      charge_live t (Rstore.replica_buf t.mappings key)
        ~bytes:(Wire.cache_install_bytes_of_len (String.length parent_string) len);
    added

  let remove_mapping t ~parent ~child =
    let key = key_of_query parent in
    Rstore.remove t.mappings ~key (Q.equal child) > 0

  (* A stored file's cached length is its name's: the name is what a
     file reply carries ({!Wire.file_response_bytes}). *)
  let file_len (file : file) = String.length file.name

  let write_file t ~key ~request_bytes file =
    ignore (Rstore.remove_key t.files key);
    Rstore.insert ~expires_at:(entry_expiry t) t.files ~key ~len:(file_len file) file;
    charge_live t (Rstore.replica_buf t.files key) ~bytes:request_bytes

  let store_file t ~msd file =
    let msd_string = Q.to_string msd in
    write_file t ~key:(Key.of_string msd_string) ~request_bytes:(Wire.request_bytes msd_string)
      file

  (* Publication stages every scheme edge of a batch of documents under
     its rendered parent, then each parent key takes one store write
     ({!Rstore.insert_entries}).  Each distinct parent is hashed once;
     its children are deduplicated by cached length and [Q.equal], as a
     run of one-entry writes would refresh them, so the write leaves
     what the per-edge sequence would have left, on any key, and bills
     each new child once per live replica.

     The staged groups are columns indexed by group id, in first-seen
     order, found by a [Tags] table from the hash of the parent's
     rendering to the group id; [String.equal] decides between parents
     whose hashes match.  A group keeps only what its write needs: the
     key, the parent (for its length), the edge count, the distinct
     children as store entries, newest first — an empty replica's list
     itself — and their number and lengths' sum, which the write states
     instead of walking the list.  The children of every group are
     numbered batch-wide, in staging order, and found by one [Tags]
     index from (group, the child's [Q.hash]) to the child's number;
     the cached length and [Q.equal] decide between children whose tags
     match.  Everything but the entries is dropped once the batch is
     written. *)

  (* [a] in an array of [room], [fill] padding it. *)
  let resize a room fill =
    let a' = Array.make room fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  (* Arrays that double when full. *)
  let extend a fill = resize a (2 * Array.length a) fill

  (* One query value of the document being staged, memoized by
     identity: a descriptor's edges share their query values — a child
     is often the next edge's parent, and the descriptor itself is the
     last child of several — so each distinct value is rendered once,
     its parent group looked up once and its [Q.hash] taken once
     ([group] and [hash] are -1 until then). *)
  type rendered = { query : Q.t; string : string; mutable group : int; mutable hash : int }

  type batch = {
    ids : Tags.t;  (** The hash of each group's parent to its id. *)
    mutable parents : string array;
    mutable keys : Key.t array;
    mutable writes : int array;  (** Edges staged. *)
    mutable children : Q.t Rstore.entry list array;
    mutable sizes : int array;  (** Distinct children staged. *)
    mutable lens : int array;  (** Their lengths' sum. *)
    mutable newest : int array;
        (** Under a plan: each group's newest child's number, -1 for none. *)
    mutable groups : int;
    places : Tags.t;  (** (group, child hash) to child number. *)
    mutable entries : Q.t Rstore.entry array;  (** By child number. *)
    mutable previous : int array;
        (** Under a plan, by child number: the number of the child staged
            before it in its group, -1 for none. *)
    mutable planned : int array;
        (** By child number: its planned edges — under a plan, the edges
            of every document staged whole. *)
    mutable child_count : int;
    mutable memo : rendered list;  (** The document being staged's values. *)
    staged : Stdx.Int_buf.t;  (** The document being staged: each edge's child. *)
    order : Stdx.Int_buf.t;  (** A group's children's numbers, newest first. *)
    planning : bool;
    expires_at : float;  (** Every entry of a batch is stamped alike. *)
  }

  (* Room for [capacity] groups, and for the children three groups
     of the bibliographic schemes stage in four documents' edges: the
     tables and columns seldom grow. *)
  let create_batch t ~capacity ~planning =
    {
      ids = Tags.create (3 * capacity / 4);
      parents = Array.make capacity "";
      keys = Array.make capacity Key.zero;
      writes = Array.make capacity 0;
      children = Array.make capacity [];
      sizes = Array.make capacity 0;
      lens = Array.make capacity 0;
      newest = (if planning then Array.make capacity (-1) else [||]);
      groups = 0;
      places = Tags.create (3 * capacity / 2);
      entries = [||];
      previous = [||];
      planned = [||];
      child_count = 0;
      memo = [];
      staged = Stdx.Int_buf.create ();
      order = Stdx.Int_buf.create ();
      planning;
      expires_at = entry_expiry t;
    }

  let grow_columns b =
    b.parents <- extend b.parents "";
    b.keys <- extend b.keys Key.zero;
    b.writes <- extend b.writes 0;
    b.children <- extend b.children [];
    b.sizes <- extend b.sizes 0;
    b.lens <- extend b.lens 0;
    if b.planning then b.newest <- extend b.newest (-1)

  (* The id of the group whose parent is [s], hashed [h], or -1. *)
  let rec staged_group b h s i =
    let i = Tags.find b.ids h i in
    match Tags.value b.ids i with
    | -1 -> -1
    | g when String.equal b.parents.(g) s -> g
    | _ -> staged_group b h s (Tags.next b.ids i)

  (* The id of [parent_string]'s group, created (and its key hashed) on
     first sight. *)
  let group_of b parent_string =
    let h = Hashtbl.hash parent_string in
    match staged_group b h parent_string (Tags.start b.ids h) with
    | -1 ->
        let g = b.groups in
        if g = Array.length b.parents then grow_columns b;
        b.parents.(g) <- parent_string;
        b.keys.(g) <- Key.of_string parent_string;
        b.groups <- g + 1;
        Tags.add b.ids h g;
        g
    | g -> g

  let rec memoized q = function
    | [] -> raise Not_found
    (* lint: allow D3 — the memo is by identity: a document's edges share their query values *)
    | r :: rest -> if r.query == q then r else memoized q rest

  (* [q]'s rendering in the document being staged. *)
  let rendering b q =
    match memoized q b.memo with
    | r -> r
    | exception Not_found ->
        let r = { query = q; string = Q.to_string q; group = -1; hash = -1 } in
        b.memo <- r :: b.memo;
        r

  let parent_group b r =
    if r.group < 0 then r.group <- group_of b r.string;
    r.group

  let query_hash q = Q.hash q land 0x3FFF_FFFF

  let child_hash r =
    if r.hash < 0 then r.hash <- query_hash r.query;
    r.hash

  let same_child child len e = Rstore.entry_len e = len && Q.equal (Rstore.entry_value e) child

  (* The number of the staged child keyed [k] equal to [child], or -1. *)
  let rec staged_child b k child len i =
    let i = Tags.find b.places k i in
    match Tags.value b.places i with
    | -1 -> -1
    | n when same_child child len b.entries.(n) -> n
    | _ -> staged_child b k child len (Tags.next b.places i)


  (* Stage one edge's child under group [g]; returns the child's number:
     an equal child's, staged earlier, or a new one's. *)
  let stage_child b g r =
    b.writes.(g) <- b.writes.(g) + 1;
    let hash = child_hash r and len = String.length r.string in
    let k = Tags.tag ~group:g ~hash in
    match staged_child b k r.query len (Tags.start b.places k) with
    | -1 ->
        let n = b.child_count in
        let entry = Rstore.make_entry ~expires_at:b.expires_at ~len r.query in
        if n = Array.length b.entries then begin
          let room = Stdlib.max (2 * Array.length b.parents) (2 * n) in
          b.entries <- resize b.entries room entry;
          if b.planning then begin
            b.previous <- resize b.previous room 0;
            b.planned <- resize b.planned room 0
          end
        end;
        b.entries.(n) <- entry;
        if b.planning then begin
          b.previous.(n) <- b.newest.(g);
          b.newest.(g) <- n
        end;
        b.child_count <- n + 1;
        Tags.add b.places k n;
        b.children.(g) <- entry :: b.children.(g);
        b.sizes.(g) <- b.sizes.(g) + 1;
        b.lens.(g) <- b.lens.(g) + len;
        n
    | n -> n

  (* Stage a document's edges; under a plan, once every edge is staged,
     count each one towards its child's planned edges. *)
  let stage_edges b ~scheme ~msd ~msd_string =
    b.memo <- [ { query = msd; string = msd_string; group = -1; hash = -1 } ];
    Stdx.Int_buf.clear b.staged;
    Scheme.iter_edges scheme msd (fun parent child ->
        if not (Q.covers parent child) then
          raise
            (Covering_violation
               { parent = (rendering b parent).string; child = (rendering b child).string });
        let g = parent_group b (rendering b parent) in
        let n = stage_child b g (rendering b child) in
        if b.planning then Stdx.Int_buf.push b.staged n);
    for i = 0 to Stdx.Int_buf.length b.staged - 1 do
      let n = Stdx.Int_buf.unsafe_get b.staged i in
      b.planned.(n) <- b.planned.(n) + 1
    done

  (* ---------------------------------------------------------------- *)
  (* The publication plan: what soft-state refresh replays.  On an
     index created [~republished] (by default, under a finite TTL),
     publication records each document — its file write, its descriptor
     and its scheme — and each parent key's group: its key (the one the
     batch hashed, shared with it), its rendered length, and its
     distinct children as they were staged, with their edge counts — so
     a republish round rewrites them without rendering, hashing or
     staging anything again. *)

  (* Record [doc], with room made for the [more] documents of its batch
     after it: the document column grows at most once a batch, and at
     least doubles. *)
  let plan_doc (p : plan) ~more doc =
    let d = p.doc_count in
    if d = Array.length p.docs then begin
      let grown = Array.make (Stdlib.max (d + 1 + more) (2 * d)) doc in
      Array.blit p.docs 0 grown 0 d;
      p.docs <- grown
    end;
    p.docs.(d) <- doc;
    p.doc_count <- d + 1

  let count (grp : group) j = if Array.length grp.counts = 0 then 1 else grp.counts.(j)

  (* Planned child [j] of group number [number] joins the lookup's
     places. *)
  let add_place (lookup : lookup) number (grp : group) j =
    let hash = query_hash (Rstore.entry_value grp.children.(j)) in
    Tags.add lookup.places (Tags.tag ~group:number ~hash) j

  (* The plan's lookup, made on first use: the first batch of a plan
     meets no planned key and needs none. *)
  let plan_lookup (p : plan) =
    match p.lookup with
    | Some lookup -> lookup
    | None ->
        let children = ref 0 in
        for i = 0 to p.group_count - 1 do
          children := !children + p.groups.(i).size
        done;
        let lookup =
          { by_key = Key.Table.create (2 * p.group_count); places = Tags.create !children }
        in
        for i = 0 to p.group_count - 1 do
          let grp = p.groups.(i) in
          Key.Table.add lookup.by_key grp.key i;
          for j = 0 to grp.size - 1 do
            add_place lookup i grp j
          done
        done;
        p.lookup <- Some lookup;
        lookup

  (* [grp]'s counts, spelt out if they were all ones. *)
  let explicit_counts (grp : group) =
    if Array.length grp.counts = 0 then grp.counts <- Array.make (Array.length grp.children) 1

  (* Append a child with [c] planned edges to [grp]. *)
  let plan_child (grp : group) e c =
    let j = grp.size in
    if j = Array.length grp.children then begin
      let room = Stdlib.max 4 (2 * j) in
      grp.children <- resize grp.children room e;
      if Array.length grp.counts > 0 then grp.counts <- resize grp.counts room 1
    end;
    grp.children.(j) <- e;
    if c <> 1 then explicit_counts grp;
    if Array.length grp.counts > 0 then grp.counts.(j) <- c;
    grp.size <- j + 1

  (* The place of [grp]'s planned child keyed [k] equal to [e]'s value,
     or -1. *)
  let rec planned_child places (grp : group) k e i =
    let i = Tags.find places k i in
    match Tags.value places i with
    | -1 -> -1
    | j when same_child (Rstore.entry_value e) (Rstore.entry_len e) grp.children.(j) -> j
    | _ -> planned_child places grp k e (Tags.next places i)

  (* A new plan group for batch group [g], with room for its [n]
     planned children. *)
  let add_group (p : plan) b g ~n =
    let grp =
      {
        key = b.keys.(g);
        parent_len = String.length b.parents.(g);
        children = Array.make n b.entries.(b.newest.(g));
        counts = [||];
        size = 0;
      }
    in
    if p.group_count = Array.length p.groups then
      p.groups <- resize p.groups (Stdlib.max 64 (2 * p.group_count)) grp;
    p.groups.(p.group_count) <- grp;
    p.group_count <- p.group_count + 1;
    Option.iter (fun lookup -> Key.Table.add lookup.by_key grp.key (p.group_count - 1)) p.lookup;
    p.group_count - 1

  (* Group [g]'s planned children, oldest first, join the plan group of
     its key: a key new to the plan takes them as they are; otherwise a
     child the group planned before keeps its place and adds its count,
     and a new one is the group's newest.  [known]: the plan may hold
     the key already. *)
  let plan_staged (p : plan) b g ~known =
    let order = b.order in
    Stdx.Int_buf.clear order;
    let n = ref 0 and child = ref b.newest.(g) in
    while !child >= 0 do
      Stdx.Int_buf.push order !child;
      if b.planned.(!child) > 0 then incr n;
      child := b.previous.(!child)
    done;
    if !n > 0 then begin
      let number =
        if known then
          Option.value ~default:(-1) (Key.Table.find_opt (plan_lookup p).by_key b.keys.(g))
        else -1
      in
      let number = if number >= 0 then number else add_group p b g ~n:!n in
      let grp = p.groups.(number) in
      for i = Stdx.Int_buf.length order - 1 downto 0 do
        let child = Stdx.Int_buf.unsafe_get order i in
        let c = b.planned.(child) in
        if c > 0 then begin
          let e = b.entries.(child) in
          match p.lookup with
          | None -> plan_child grp e c
          | Some lookup -> (
              let k = Tags.tag ~group:number ~hash:(query_hash (Rstore.entry_value e)) in
              match planned_child lookup.places grp k e (Tags.start lookup.places k) with
              | -1 ->
                  plan_child grp e c;
                  Tags.add lookup.places k (grp.size - 1)
              | j ->
                  explicit_counts grp;
                  grp.counts.(j) <- grp.counts.(j) + c)
        end
      done
    end

  let rec charge_installs t ~dst ~parent_len = function
    | [] -> ()
    | e :: rest ->
        charge_maintenance t ~dst
          ~bytes:(Wire.cache_install_bytes_of_len parent_len (Rstore.entry_len e));
        charge_installs t ~dst ~parent_len rest

  (* Built once, not per write. *)
  let mapping_equal = Some Q.equal

  (* One write per staged key, in first-seen order, billed at every live
     replica of the replica set the write resolved; under a plan, the
     key's planned children then join the plan. *)
  let flush t b =
    let known = match t.plan with Some p -> p.group_count > 0 | None -> false in
    Rstore.reserve t.mappings b.groups;
    for g = 0 to b.groups - 1 do
      let fresh, replicas =
        Rstore.insert_entries ~equal:mapping_equal t.mappings ~key:b.keys.(g)
          ~writes:b.writes.(g) ~floor:b.expires_at ~count:b.sizes.(g) ~lens:b.lens.(g)
          b.children.(g)
      in
      let parent_len = String.length b.parents.(g) in
      for i = 0 to Stdx.Int_buf.length replicas - 1 do
        let dst = Stdx.Int_buf.unsafe_get replicas i in
        if Dht.Liveness.alive t.liveness dst then
          charge_installs t ~dst ~parent_len fresh
      done;
      Option.iter (fun p -> plan_staged p b g ~known) t.plan
    done

  let publish_batch t ~scheme ~msd ~file docs =
    (* Room for four groups a document, about what the bibliographic
       schemes stage, so the columns seldom grow. *)
    let b =
      create_batch t ~capacity:(Stdlib.max 16 (4 * Array.length docs))
        ~planning:(Option.is_some t.plan)
    in
    Rstore.reserve t.files (Array.length docs);
    let stage i doc =
      let msd = msd doc and file = file doc in
      let msd_string = Q.to_string msd in
      let key = Key.of_string msd_string and request_bytes = Wire.request_bytes msd_string in
      write_file t ~key ~request_bytes file;
      stage_edges b ~scheme ~msd ~msd_string;
      Option.iter
        (fun p ->
          plan_doc p ~more:(Array.length docs - 1 - i) { file_key = key; file; request_bytes; msd; scheme })
        t.plan
    in
    (* A covering violation stops the batch where the per-edge sequence
       would have stopped: after the edges before it were written.  The
       document it stopped in stays out of the plan. *)
    match Array.iteri stage docs with
    | () -> flush t b
    | exception (Covering_violation _ as e) ->
        flush t b;
        raise e

  let publish t ~scheme ~msd file =
    publish_batch t ~scheme ~msd:(fun () -> msd) ~file:(fun () -> file) [| () |]

  (* ---------------------------------------------------------------- *)
  (* Republication: the plan replayed.  Each file is refreshed in place,
     document by document, then each planned parent key takes one write
     of fresh entries for its planned children, carrying the key's
     planned edge count, and every planned edge is billed at every live
     replica of the replica set the write resolved, whether or not the
     replica held the entry.  That is the per-edge round it stands for
     (DESIGN.md §13, "Soft-state rounds from the publication plan"). *)

  (* Every planned edge of a group, billed to [dst]: each child's bytes
     once per edge writing it, newest child first. *)
  let charge_planned t ~dst grp =
    for j = grp.size - 1 downto 0 do
      let bytes = Wire.cache_install_bytes_of_len grp.parent_len (Rstore.entry_len grp.children.(j)) in
      for _ = 1 to count grp j do
        charge_maintenance t ~dst ~bytes
      done
    done

  let republish t =
    match t.plan with
    | None -> invalid_arg "Index.republish: the index records no publication plan"
    | Some p ->
        let expires_at = entry_expiry t in
        for d = 0 to p.doc_count - 1 do
          let doc = p.docs.(d) in
          ignore
            (Rstore.insert_unique ~expires_at ~equal:( = ) t.files ~key:doc.file_key
               ~len:(file_len doc.file) doc.file
              : bool);
          charge_live t (Rstore.replica_buf t.files doc.file_key) ~bytes:doc.request_bytes
        done;
        for g = 0 to p.group_count - 1 do
          let grp = p.groups.(g) in
          let entries = ref [] and writes = ref 0 and lens = ref 0 in
          for j = 0 to grp.size - 1 do
            let e = grp.children.(j) in
            let len = Rstore.entry_len e in
            entries := Rstore.make_entry ~expires_at ~len (Rstore.entry_value e) :: !entries;
            writes := !writes + count grp j;
            lens := !lens + len
          done;
          match !entries with
          | [] -> ()
          | entries ->
              let _fresh, replicas =
                Rstore.insert_entries ~equal:mapping_equal t.mappings ~key:grp.key ~writes:!writes
                  ~floor:expires_at ~count:grp.size ~lens:!lens entries
              in
              for i = 0 to Stdx.Int_buf.length replicas - 1 do
                let dst = Stdx.Int_buf.unsafe_get replicas i in
                if Dht.Liveness.alive t.liveness dst then charge_planned t ~dst grp
              done
        done

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
    let key = key_of_query q in
    (not (Rstore.mem t.files key)) && Rstore.lookup t.mappings key = []

  (* The plan's groups, derived again from its documents: each
     document's edges staged in publication order, as publication staged
     them. *)
  let replan t (p : plan) =
    p.groups <- [||];
    p.group_count <- 0;
    p.lookup <- None;
    let b = create_batch t ~capacity:(Stdlib.max 16 (4 * p.doc_count)) ~planning:true in
    for d = 0 to p.doc_count - 1 do
      let { msd; scheme; _ } = p.docs.(d) in
      stage_edges b ~scheme ~msd ~msd_string:(Q.to_string msd)
    done;
    for g = 0 to b.groups - 1 do
      plan_staged p b g ~known:false
    done

  (* An unpublished document leaves the plan, so no round brings it
     back; the groups are derived again from the documents left, so
     each child keeps the place of its first remaining write. *)
  let unplan t key =
    match t.plan with
    | None -> ()
    | Some p ->
        let kept = ref 0 in
        for d = 0 to p.doc_count - 1 do
          let doc = p.docs.(d) in
          if not (Key.equal doc.file_key key) then begin
            p.docs.(!kept) <- doc;
            incr kept
          end
        done;
        if !kept < p.doc_count then begin
          p.doc_count <- !kept;
          replan t p
        end

  let unpublish t ~scheme ~msd =
    let key = key_of_query msd in
    ignore (Rstore.remove_key t.files key);
    unplan t key;
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

  let measured_hops t key = if observed t then Dht.Resolver.route_hops t.resolver key else 0

  let record_step t ~request_bytes ~query_string ~dst ~hops ~result_count
      ~response_bytes ~outcome () =
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

  let children_answer st =
    let bytes =
      Wire.response_bytes_of_totals ~count:(Rstore.state_count st) ~lens:(Rstore.state_lens st)
    in
    (* lint: allow P4 — wire deserialization: the answer materializes its child queries once per answered probe *)
    A_children { children = List.map Rstore.entry_value (Rstore.state_entries st); bytes }

  (* What one replica holds under [key]: read-only, so a duplicated
     request may run it twice.  A reply is priced from the state's kept
     totals. *)
  let answer_at t ~node key =
    match Rstore.entries_at t.files ~node key with
    | e :: _ -> A_file (Rstore.entry_value e)
    | [] -> (
        let st = Rstore.live_state t.mappings ~node key in
        match Rstore.state_entries st with [] -> A_empty | _ :: _ -> children_answer st)

  (* Under quorum, every answer carries its replica's version vectors. *)
  let version_bytes t ~node key =
    Wire.version_bytes
      (Storage.Version.dots (Rstore.version_at t.files ~node key)
      + Storage.Version.dots (Rstore.version_at t.mappings ~node key))

  (* The bytes a replica's answer is billed, on the wire and in the
     step's span alike: under quorum, its version vectors too. *)
  let billed_bytes t ~node key answer =
    let bytes =
      match answer with
      | A_file file -> Wire.file_response_bytes file
      | A_children { bytes; _ } -> bytes
      | A_empty -> Wire.response_bytes []
    in
    if t.quorum_enabled then bytes + version_bytes t ~node key else bytes

  (* ---------------------------------------------------------------- *)
  (* The quorum side of a lookup step: the replicas it heard from and
     their reconcile.  None of it runs on an index created without a
     quorum parameter. *)

  let rec consulted_from buf node i =
    i < Stdx.Int_buf.length buf
    && (Stdx.Int_buf.unsafe_get buf i = node || consulted_from buf node (i + 1))

  (* Remember a replica that answered, once, in answer order: a hedge
     target that answered empty may answer again. *)
  let note_consulted t node =
    if not (consulted_from t.consulted node 0) then
      Stdx.Int_buf.push t.consulted node

  (* Bill read repair: each gained entry shipped to its replica. *)
  let rec charge_gained t entry_bytes ~node = function
    | [] -> ()
    | e :: gained ->
        charge_maintenance t ~dst:node ~bytes:(entry_bytes e);
        charge_gained t entry_bytes ~node gained

  let rec charge_repairs t entry_bytes = function
    | [] -> ()
    | (node, gained) :: rest ->
        charge_gained t entry_bytes ~node gained;
        charge_repairs t entry_bytes rest

  let dominated a b =
    match Storage.Version.compare a b with
    | Storage.Version.Dominated -> true
    | Storage.Version.Eq | Storage.Version.Dominates | Storage.Version.Concurrent ->
        false

  (* Reconcile the consulted replicas by version vector: dominance
     decides, diverged replicas are overwritten (read repair, billed as
     maintenance) and the merged state is the step's answer. *)
  let reconcile t key =
    (match t.quorum_instruments with
    | None -> ()
    | Some qi -> Obs.Metrics.Counter.incr qi.q_reads);
    if Stdx.Int_buf.length t.consulted = 0 then Not_indexed
    else begin
      let nodes = Stdx.Int_buf.to_list t.consulted in
      let files, vf, repairs_f = Rstore.quorum_read t.files ~key ~nodes in
      let children, vm, repairs_m = Rstore.quorum_read t.mappings ~key ~nodes in
      charge_repairs t file_entry_bytes repairs_f;
      charge_repairs t mapping_entry_bytes repairs_m;
      (match t.quorum_instruments with
      | None -> ()
      | Some qi ->
          let repaired = List.length repairs_f + List.length repairs_m in
          if repaired > 0 then Obs.Metrics.Counter.incr ~by:repaired qi.q_read_repairs;
          (* Stale iff a read of every live replica would have seen a
             strictly newer history than this quorum did (oracle view,
             no messaging). *)
          if
            dominated vf (Rstore.live_merged_version t.files key)
            || dominated vm (Rstore.live_merged_version t.mappings key)
          then Obs.Metrics.Counter.incr qi.q_stale_reads);
      match files with
      | file :: _ -> File file
      | [] -> ( match children with [] -> Not_indexed | cs -> Children cs)
    end

  let step_results = function
    | File _ -> 1
    | Children children -> List.length children
    | Not_indexed -> 0

  let step_outcome ~generalization = function
    | File _ -> Obs.Trace.Msd_reached
    | Children _ -> if generalization then Obs.Trace.Generalized else Obs.Trace.Refined
    | Not_indexed -> Obs.Trace.Not_found

  (* One user-system interaction, failure-tolerant: one walk over the
     key's replica set in placement order, one RPC call per replica,
     until [needed] replicas answered non-empty.  A dead replica costs
     the request (timeout) and nothing else; a live replica that knows
     nothing answers empty and the walk moves on, since it may have
     rejoined after losing the entry.  Under a fault plan each call
     additionally retries lost messages with backoff and may hedge to
     the next replica, which holds the same data.  A replica is skipped
     only when it already answered non-empty — a won hedge — so each
     replica counts toward [needed] at most once, and a hedge target
     that answered empty is asked again when its turn comes.  With the
     zero plan, replication 1 and no quorum this is exactly the static
     single-probe lookup. *)
  let[@hot] lookup_step_at t ~generalization ~query_string =
    let key = key_of_rendered t query_string in
    let replicas = replicas_of t key in
    let n = Stdx.Int_buf.length replicas in
    let primary = Stdx.Int_buf.get replicas 0 in
    let request_bytes = Wire.request_bytes query_string in
    let quorum = t.quorum_enabled in
    let needed = if quorum then t.read_quorum else 1 in
    if quorum then Stdx.Int_buf.clear t.consulted;
    (* The remote side of the call: runs once per delivered request
       copy, so it must be (and is) a read-only probe. *)
    (* lint: allow P1 — RPC handler contract: Rpc.call takes a callback; one handler per lookup step *)
    let handler ~node =
      if not (Dht.Liveness.alive t.liveness node) then Dht.Rpc.No_response
      else
        let value = answer_at t ~node key in
        Dht.Rpc.Reply { bytes = billed_bytes t ~node key value; value }
    in
    let i = ref 0 and attempts = ref 0 and found = ref 0 and resp_bytes = ref 0 in
    (* [last_found] is the latest replica to answer non-empty: the only
       one the next position can repeat, as a won hedge. *)
    let first = ref (-1) and first_found = ref (-1) and last_found = ref (-1) in
    let answer = ref A_empty in
    while !i < n && !found < needed do
      let node = Stdx.Int_buf.unsafe_get replicas !i in
      incr i;
      if node <> !last_found then begin
        let hedge_dst =
          if !i < n then Some (Stdx.Int_buf.unsafe_get replicas !i) else None
        in
        incr attempts;
        match
          Dht.Rpc.call t.rpc ~dst:node ?hedge_dst ~route_key:key ~request_bytes
            ~handler ()
        with
        | Dht.Rpc.Exhausted -> ()
        | Dht.Rpc.Answered { value; node = responder } -> (
            resp_bytes := !resp_bytes + billed_bytes t ~node:responder key value;
            if quorum then note_consulted t responder;
            if !first < 0 then first := responder;
            match value with
            | A_empty -> ()
            | A_file _ | A_children _ ->
                incr found;
                last_found := responder;
                if !first_found < 0 then begin
                  first_found := responder;
                  answer := value
                end)
      end
    done;
    observe_retries t ~attempts:!attempts;
    let step =
      if quorum then reconcile t key
      else
        match !answer with
        | A_file file -> File file
        | A_children { children; _ } -> Children children
        | A_empty -> Not_indexed
    in
    (* One span for the whole walk (the prefix scheme's covering-set
       spans set the precedent), so trace byte totals and network totals
       agree. *)
    if observed t then begin
      let dst =
        if !first_found >= 0 then !first_found else if !first >= 0 then !first else primary
      in
      record_step t ~request_bytes:(!attempts * request_bytes) ~query_string ~dst
        ~hops:(measured_hops t key) ~result_count:(step_results step)
        ~response_bytes:!resp_bytes ~outcome:(step_outcome ~generalization step) ()
    end;
    step

  let lookup_step_rendered t ~rendered (_ : Q.t) =
    lookup_step_at t ~generalization:false ~query_string:rendered

  let lookup_step t q = lookup_step_at t ~generalization:false ~query_string:(Q.to_string q)

  (* ---------------------------------------------------------------- *)
  (* Automated search: breadth-first over the query DAG, one
     {!lookup_step_at} per unvisited query, each counted as one
     interaction. *)

  module Query_set = Set.Make (Q)

  let count interactions = match interactions with None -> () | Some r -> incr r

  let probe t interactions ~generalization q =
    count interactions;
    lookup_step_at t ~generalization ~query_string:(Q.to_string q)

  (* Expand [start] breadth-first, collecting files in discovery order.
     [keep] filters children as they are pushed (and files as they are
     found); a repeated query is skipped without a probe. *)
  let bfs ~probe ~keep start =
    let queue = Queue.of_seq (List.to_seq start) in
    let rec go visited found =
      if Queue.is_empty queue then List.rev found
      else
        let q = Queue.pop queue in
        if Query_set.mem q visited then go visited found
        else
          let visited = Query_set.add q visited in
          match probe ~generalization:false q with
          | File file when keep q -> go visited ((q, file) :: found)
          | File _ | Not_indexed -> go visited found
          | Children children ->
              List.iter (fun child -> if keep child then Queue.push child queue) children;
              go visited found
    in
    go Query_set.empty []

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

  let search ?interactions t q =
    with_query_instruments t interactions (fun interactions ->
        bfs ~probe:(probe t interactions) ~keep:(fun _ -> true) [ q ])

  (* Probes of distinct generalizations one search may spend before it
     gives up on an unindexed query. *)
  let generalization_budget = 64

  let search_with_generalization ?interactions t q =
    with_query_instruments t interactions (fun interactions ->
        let probe = probe t interactions in
        (* Specialize back down from an indexed generalization, following
           only children compatible with [q] and keeping the files it
           covers. *)
        let specialize children =
          bfs ~probe ~keep:(Q.compatible q) (List.filter (Q.compatible q) children)
          |> List.filter (fun (msd, _file) -> Q.covers q msd)
        in
        match probe ~generalization:false q with
        | File file -> [ (q, file) ]
        | Children children -> bfs ~probe ~keep:(fun _ -> true) children
        | Not_indexed ->
            (* Generalize breadth-first until a generalization answers
               with children or with a file [q] covers; only unvisited
               queries spend the budget. *)
            let queue = Queue.of_seq (List.to_seq (Q.generalizations q)) in
            let rec generalize visited budget =
              if budget <= 0 || Queue.is_empty queue then []
              else
                let g = Queue.pop queue in
                if Query_set.mem g visited then generalize visited budget
                else
                  match probe ~generalization:true g with
                  | File file when Q.covers q g -> [ (g, file) ]
                  | Children children -> specialize children
                  | File _ | Not_indexed ->
                      List.iter (fun g' -> Queue.push g' queue) (Q.generalizations g);
                      generalize (Query_set.add g visited) (budget - 1)
            in
            generalize Query_set.empty generalization_budget)

  (* ---------------------------------------------------------------- *)
  (* Introspection. *)

  let mapping_totals t =
    let count, lens = Rstore.len_totals t.mappings in
    (count, Wire.stored_bytes_of_totals ~count ~lens)
  let mapping_count t = fst (mapping_totals t)
  let index_bytes t = snd (mapping_totals t)

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

  let mapping_store t = t.mappings
  let file_store t = t.files
end
