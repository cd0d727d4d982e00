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

  (* One published document, as republication replays it (see
     {!republish}). *)
  type planned = {
    file_key : Key.t;
    file : file;
    request_bytes : int;  (** The file write's billed request. *)
    groups : int array;  (** Per scheme edge, in edge order: the parent's plan group. *)
    children : Q.t Rstore.entry array;
        (** Per scheme edge: the entry publication staged for its child —
            read for its value and length only. *)
  }

  type plan = {
    mutable docs : planned array;  (** In publication order. *)
    mutable doc_count : int;
    mutable group_keys : Key.t array;  (** Per plan group: the parent's key. *)
    mutable parent_lens : int array;  (** Per plan group: the parent's rendered length. *)
    mutable group_count : int;
    mutable key_ids : int array;
        (** Slots over [group_keys] (see {!find_name}). *)
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
    plan : plan option;  (* Only when republish rounds will run. *)
    consulted : Stdx.Int_buf.t;
        (* The replicas a quorum lookup step heard from, in answer order. *)
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
      plan =
        (if republished then
           Some
             {
               docs = [||];
               doc_count = 0;
               group_keys = Array.make 64 Key.zero;
               parent_lens = Array.make 64 0;
               group_count = 0;
               key_ids = Array.make 128 0;
             }
         else None);
      consulted = Stdx.Int_buf.create ~capacity:replication ();
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
    for i = 0 to Stdx.Int_buf.length replicas - 1 do
      let dst = Stdx.Int_buf.unsafe_get replicas i in
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

  let check_covers ~render parent child =
    if not (Q.covers parent child) then
      raise (Covering_violation { parent = render parent; child = render child })

  let insert_mapping t ~parent ~child =
    check_covers ~render:Q.to_string parent child;
    let parent_string = Q.to_string parent in
    let key = key_of_string_memo t parent_string in
    let len = String.length (Q.to_string child) in
    let added =
      Rstore.insert_unique ~expires_at:(entry_expiry t) ~equal:Q.equal t.mappings ~key ~len child
    in
    if added then
      charge_live_replicas t ~key
        ~bytes:(Wire.cache_install_bytes_of_len (String.length parent_string) len);
    added

  let remove_mapping t ~parent ~child =
    let key = key_of t parent in
    Rstore.remove t.mappings ~key (Q.equal child) > 0

  (* A stored file's cached length is its name's: the name is what a
     file reply carries ({!Wire.file_response_bytes}). *)
  let file_len (file : file) = String.length file.name

  (* Publication hashes its strings directly: the key memo is left to
     the query strings lookups see. *)
  let write_file t ~key ~request_bytes file =
    ignore (Rstore.remove_key t.files key);
    Rstore.insert ~expires_at:(entry_expiry t) t.files ~key ~len:(file_len file) file;
    charge_live_replicas t ~key ~bytes:request_bytes

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
     order, behind an open-addressing table over the parent strings.  A
     group keeps only what its write needs: the key, the parent (for its
     length), the edge count and the distinct children as store entries,
     newest first — an empty replica's list itself.  Children are
     compared by a list scan; a group past [dedupe_threshold] children
     also keeps the hashes of their renderings, so that a child whose
     hash is new is known new without a scan.  Everything but the
     entries is dropped once the batch is written. *)

  (* Open addressing over non-negative ints: a slot holds [v + 1] and 0
     marks it free; a table is a power of two, kept at most half full,
     and a value's first slot is its low bits. *)
  module Slots = struct
    let create n =
      let rec pow2 k = if k >= 2 * n then k else pow2 (2 * k) in
      Array.make (pow2 16) 0

    let mask slots = Array.length slots - 1

    (* The slot holding [v], or the free slot it would go to. *)
    let rec find slots v i =
      match slots.(i) with
      | 0 -> i
      | x when x = v + 1 -> i
      | _ -> find slots v ((i + 1) land mask slots)

    let mem slots v = slots.(find slots v (v land mask slots)) <> 0
    let add slots v = slots.(find slots v (v land mask slots)) <- v + 1

    let grow slots =
      let bigger = Array.make (2 * Array.length slots) 0 in
      Array.iter (fun x -> if x <> 0 then add bigger (x - 1)) slots;
      bigger
  end

  (* A table of names is [Slots] over ids: a slot holding [v + 1] stands
     for [names.(v)], a column of parent strings (a batch) or parent
     keys (the plan).  [find_name] returns the slot holding [s]'s id, or
     the free slot its id would go to. *)
  let rec find_name equal ids names s i =
    match ids.(i) with
    | 0 -> i
    | x when equal names.(x - 1) s -> i
    | _ -> find_name equal ids names s ((i + 1) land Slots.mask ids)

  let parent_slot ids parents s =
    find_name String.equal ids parents s (Hashtbl.hash s land Slots.mask ids)

  let key_slot ids keys k = find_name Key.equal ids keys k (Key.prefix56 k land Slots.mask ids)

  (* Puts id [n - 1], the newest of [n] names, in free slot [slot];
     returns [ids], or a table twice its size once it is more than half
     full. *)
  let add_name name_slot ids names ~slot n =
    ids.(slot) <- n;
    if 2 * n > Array.length ids then begin
      let ids = Array.make (2 * Array.length ids) 0 in
      for v = 0 to n - 1 do
        ids.(name_slot ids names names.(v)) <- v + 1
      done;
      ids
    end
    else ids

  (* The rendering hashes of one group's children. *)
  type hashes = { mutable table : int array; mutable size : int }

  let add_hash hs h =
    if 2 * (hs.size + 1) > Array.length hs.table then hs.table <- Slots.grow hs.table;
    Slots.add hs.table h;
    hs.size <- hs.size + 1

  let dedupe_threshold = 16

  (* Arrays that double when full; [fill] pads the new half. *)
  let extend a fill =
    let a' = Array.make (2 * Array.length a) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  type batch = {
    mutable ids : int array;  (** Slots over [parents]' hashes: group id + 1. *)
    mutable parents : string array;
    mutable keys : Key.t array;
    mutable writes : int array;  (** Edges staged. *)
    mutable children : Q.t Rstore.entry list array;
    mutable hashes : hashes option array;
    mutable plan_groups : int array;
        (** The group's id in the plan; empty without a plan, and
            [extend] keeps it so. *)
    mutable groups : int;
    expires_at : float;  (** Every entry of a batch is stamped alike. *)
  }

  let create_batch t ~capacity =
    {
      ids = Slots.create capacity;
      parents = Array.make capacity "";
      keys = Array.make capacity Key.zero;
      writes = Array.make capacity 0;
      children = Array.make capacity [];
      hashes = Array.make capacity None;
      plan_groups = (match t.plan with Some _ -> Array.make capacity 0 | None -> [||]);
      groups = 0;
      expires_at = entry_expiry t;
    }

  let grow_columns b =
    b.parents <- extend b.parents "";
    b.keys <- extend b.keys Key.zero;
    b.writes <- extend b.writes 0;
    b.children <- extend b.children [];
    b.hashes <- extend b.hashes None;
    b.plan_groups <- extend b.plan_groups 0

  (* ---------------------------------------------------------------- *)
  (* The publication plan: what soft-state refresh replays.  On an
     index created [~republished] (by default, under a finite TTL),
     publication records each document it writes — its file
     write, and per scheme edge the parent's group and the child as it
     was staged — so a republish round rewrites them without rendering,
     hashing or staging anything again.  A group is one parent key with
     its rendered length; a child is the entry the group's dedupe kept,
     whose value is the one the store holds, so a round finds repeated
     children by identity. *)

  (* The plan group of a parent key, created on first sight. *)
  let plan_group (p : plan) ~key ~parent_len =
    let i = key_slot p.key_ids p.group_keys key in
    match p.key_ids.(i) with
    | 0 ->
        let g = p.group_count in
        if g = Array.length p.group_keys then begin
          p.group_keys <- extend p.group_keys Key.zero;
          p.parent_lens <- extend p.parent_lens 0
        end;
        p.group_keys.(g) <- key;
        p.parent_lens.(g) <- parent_len;
        p.group_count <- g + 1;
        p.key_ids <- add_name key_slot p.key_ids p.group_keys ~slot:i p.group_count;
        g
    | x -> x - 1

  (* The document column's filler.  A large array made with a young
     filler forces a minor collection, so the filler is made once, with
     the functor. *)
  let no_doc =
    {
      file_key = Key.zero;
      file = { Storage.Block_store.name = ""; size_bytes = 0 };
      request_bytes = 0;
      groups = [||];
      children = [||];
    }

  (* The document column grows at most once a batch, to room for [docs]
     more, and at least doubles. *)
  let reserve_docs (p : plan) docs =
    let d = p.doc_count in
    if d + docs > Array.length p.docs then begin
      let grown = Array.make (Stdlib.max (d + docs) (2 * d)) no_doc in
      Array.blit p.docs 0 grown 0 d;
      p.docs <- grown
    end

  let plan_doc (p : plan) doc =
    p.docs.(p.doc_count) <- doc;
    p.doc_count <- p.doc_count + 1

  (* The id of [parent_string]'s group, created (and its key hashed) on
     first sight. *)
  let group_of t b parent_string =
    let i = parent_slot b.ids b.parents parent_string in
    match b.ids.(i) with
    | 0 ->
        let g = b.groups in
        if g = Array.length b.parents then grow_columns b;
        let key = Key.of_string parent_string in
        b.parents.(g) <- parent_string;
        b.keys.(g) <- key;
        (match t.plan with
        | Some p -> b.plan_groups.(g) <- plan_group p ~key ~parent_len:(String.length parent_string)
        | None -> ());
        b.groups <- g + 1;
        b.ids <- add_name parent_slot b.ids b.parents ~slot:i b.groups;
        g
    | x -> x - 1

  (* The staged entries from the one holding [child] on; [] when none
     does. *)
  let rec find_child child len = function
    | [] -> []
    | e :: rest as entries ->
        if Rstore.entry_len e = len && Q.equal (Rstore.entry_value e) child then entries
        else find_child child len rest

  let child_hash (s : string) = Hashtbl.hash s

  let hash_children children =
    let hs = { table = Slots.create (2 * dedupe_threshold); size = 0 } in
    List.iter (fun e -> add_hash hs (child_hash (Q.to_string (Rstore.entry_value e)))) children;
    hs

  (* Stage one edge's child under group [g]; returns the entry the group
     keeps for it — an equal child's, staged earlier, or a new one. *)
  let stage_child b g ~child_string child =
    let len = String.length child_string in
    b.writes.(g) <- b.writes.(g) + 1;
    let children = b.children.(g) in
    let staged =
      match b.hashes.(g) with
      | None -> find_child child len children
      | Some hs ->
          if Slots.mem hs.table (child_hash child_string) then find_child child len children
          else []
    in
    match staged with
    | e :: _ -> e
    | [] ->
        let e = Rstore.make_entry ~expires_at:b.expires_at ~len child in
        let children = e :: children in
        b.children.(g) <- children;
        (match b.hashes.(g) with
        | Some hs -> add_hash hs (child_hash child_string)
        | None ->
            if List.compare_length_with children dedupe_threshold > 0 then
              b.hashes.(g) <- Some (hash_children children));
        e

  (* Stage a document's edges; under a plan, also record them, with its
     file write, once every edge is staged. *)
  let stage_doc t b ~scheme ~msd ~key ~request_bytes file =
    let render = edge_renderer () in
    let edges = Scheme.edges scheme msd in
    match t.plan with
    | None ->
        List.iter
          (fun { Scheme.parent; child } ->
            check_covers ~render parent child;
            let g = group_of t b (render parent) in
            ignore (stage_child b g ~child_string:(render child) child : Q.t Rstore.entry))
          edges
    | Some p ->
        let n = List.length edges in
        let groups = Array.make n 0 and children = ref [||] in
        List.iteri
          (fun i { Scheme.parent; child } ->
            check_covers ~render parent child;
            let g = group_of t b (render parent) in
            let e = stage_child b g ~child_string:(render child) child in
            if i = 0 then children := Array.make n e else !children.(i) <- e;
            groups.(i) <- b.plan_groups.(g))
          edges;
        plan_doc p { file_key = key; file; request_bytes; groups; children = !children }

  let rec charge_installs t ~dst ~parent_len ~len = function
    | [] -> ()
    | x :: rest ->
        charge_maintenance t ~dst ~bytes:(Wire.cache_install_bytes_of_len parent_len (len x));
        charge_installs t ~dst ~parent_len ~len rest

  (* Built once, not per write. *)
  let mapping_equal = Some Q.equal

  (* One write per staged key, in first-seen order, billed at every live
     replica of the replica set the write resolved. *)
  let flush t b =
    for g = 0 to b.groups - 1 do
      let fresh, replicas =
        Rstore.insert_entries ~equal:mapping_equal t.mappings ~key:b.keys.(g)
          ~writes:b.writes.(g) b.children.(g)
      in
      let parent_len = String.length b.parents.(g) in
      for i = 0 to Stdx.Int_buf.length replicas - 1 do
        let dst = Stdx.Int_buf.unsafe_get replicas i in
        if Dht.Liveness.alive t.liveness dst then
          charge_installs t ~dst ~parent_len ~len:Rstore.entry_len fresh
      done
    done

  let publish_batch t ~scheme ~msd ~file docs =
    (* Room for four groups a document, about what the bibliographic
       schemes stage, so the columns seldom grow. *)
    let b = create_batch t ~capacity:(Stdlib.max 16 (4 * Array.length docs)) in
    Option.iter (fun p -> reserve_docs p (Array.length docs)) t.plan;
    let stage doc =
      let msd = msd doc and file = file doc in
      let msd_string = Q.to_string msd in
      let key = Key.of_string msd_string and request_bytes = Wire.request_bytes msd_string in
      write_file t ~key ~request_bytes file;
      stage_doc t b ~scheme ~msd ~key ~request_bytes file
    in
    (* A covering violation stops the batch where the per-edge sequence
       would have stopped: after the edges before it were written.  The
       document it stopped in stays out of the plan. *)
    match Array.iter stage docs with
    | () -> flush t b
    | exception (Covering_violation _ as e) ->
        flush t b;
        raise e

  let publish t ~scheme ~msd file =
    publish_batch t ~scheme ~msd:(fun () -> msd) ~file:(fun () -> file) [| () |]

  (* ---------------------------------------------------------------- *)
  (* Republication: the plan replayed in publication order, eight
     documents a batch.  A batch refreshes its documents' files, then
     regroups their edges by plan group, in first-seen order, and makes
     one write per group with fresh entries — deduplicated by identity
     first, as the plan's children are the values the store holds, and
     by length and [Q.equal] for a child an earlier publication batch
     staged apart — billing every edge at every live replica.  A
     republished entry is almost always a refresh, so what a batch
     builds is garbage once written: batches of eight documents let it
     die in the minor heap (EXPERIMENTS.md, "Grouped republication"). *)

  let republish_docs = 8

  (* A round's regrouping columns, indexed by batch group; [edge_lens]
     holds each group's edges' child lengths, newest first. *)
  type round = {
    slots : int array;  (** Plan group id -> its batch group + 1; 0 when not staged. *)
    mutable gids : int array;  (** Batch group -> its plan group. *)
    mutable round_writes : int array;
    mutable round_children : Q.t Rstore.entry list array;
    mutable edge_lens : int list array;
    mutable round_groups : int;
  }

  let create_round (p : plan) =
    let capacity = 64 in
    {
      slots = Array.make p.group_count 0;
      gids = Array.make capacity 0;
      round_writes = Array.make capacity 0;
      round_children = Array.make capacity [];
      edge_lens = Array.make capacity [];
      round_groups = 0;
    }

  let round_group r gid =
    match r.slots.(gid) with
    | 0 ->
        let g = r.round_groups in
        if g = Array.length r.gids then begin
          r.gids <- extend r.gids 0;
          r.round_writes <- extend r.round_writes 0;
          r.round_children <- extend r.round_children [];
          r.edge_lens <- extend r.edge_lens []
        end;
        r.gids.(g) <- gid;
        r.slots.(gid) <- g + 1;
        r.round_groups <- g + 1;
        g
    | s -> s - 1

  let rec holds_planned child len = function
    | [] -> false
    | e :: rest ->
        (* lint: allow D3 — the plan's children are the staged values themselves; the structural test follows *)
        Rstore.entry_value e == child
        || (Rstore.entry_len e = len && Q.equal (Rstore.entry_value e) child)
        || holds_planned child len rest

  let replay_batch t (p : plan) r ~lo ~hi =
    let expires_at = entry_expiry t in
    for d = lo to hi - 1 do
      let doc = p.docs.(d) in
      ignore
        (Rstore.insert_unique ~expires_at ~equal:( = ) t.files ~key:doc.file_key
           ~len:(file_len doc.file) doc.file
          : bool);
      charge_live_replicas t ~key:doc.file_key ~bytes:doc.request_bytes
    done;
    for d = lo to hi - 1 do
      let doc = p.docs.(d) in
      for i = 0 to Array.length doc.groups - 1 do
        let g = round_group r doc.groups.(i) in
        let child = Rstore.entry_value doc.children.(i) and len = Rstore.entry_len doc.children.(i) in
        r.round_writes.(g) <- r.round_writes.(g) + 1;
        r.edge_lens.(g) <- len :: r.edge_lens.(g);
        if not (holds_planned child len r.round_children.(g)) then
          r.round_children.(g) <- Rstore.make_entry ~expires_at ~len child :: r.round_children.(g)
      done
    done;
    for g = 0 to r.round_groups - 1 do
      let gid = r.gids.(g) in
      let _fresh, replicas =
        Rstore.insert_entries ~equal:mapping_equal t.mappings ~key:p.group_keys.(gid)
          ~writes:r.round_writes.(g) r.round_children.(g)
      in
      let parent_len = p.parent_lens.(gid) in
      for i = 0 to Stdx.Int_buf.length replicas - 1 do
        let dst = Stdx.Int_buf.unsafe_get replicas i in
        if Dht.Liveness.alive t.liveness dst then
          charge_installs t ~dst ~parent_len ~len:Fun.id r.edge_lens.(g)
      done;
      r.slots.(gid) <- 0;
      r.round_writes.(g) <- 0;
      r.round_children.(g) <- [];
      r.edge_lens.(g) <- []
    done;
    r.round_groups <- 0

  let republish t =
    match t.plan with
    | None -> invalid_arg "Index.republish: the index records no publication plan"
    | Some p ->
        let r = create_round p in
        let n = p.doc_count in
        for c = 0 to (n - 1) / republish_docs do
          let lo = c * republish_docs in
          replay_batch t p r ~lo ~hi:(Stdlib.min n (lo + republish_docs))
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
    let key = key_of t q in
    (not (Rstore.mem t.files key)) && Rstore.lookup t.mappings key = []

  (* An unpublished document leaves the plan, so no round brings it
     back. *)
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
        p.doc_count <- !kept

  let unpublish t ~scheme ~msd =
    let key = key_of t msd in
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

  let measured_hops t key =
    if observed t then
      (* lint: allow catch-all-handler — hop telemetry is best-effort; a routing failure here must not fail the lookup *)
      try Dht.Resolver.route_hops t.resolver key with _ -> 0
    else 0

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

  let children_answer entries =
    let bytes = Wire.response_bytes_of_len ~len:Rstore.entry_len entries in
    (* lint: allow P4 — wire deserialization: the answer materializes its child queries once per answered probe *)
    A_children { children = List.map Rstore.entry_value entries; bytes }

  (* What one replica holds under [key]: read-only, so a duplicated
     request may run it twice. *)
  let answer_at t ~node key =
    match Rstore.entries_at t.files ~node key with
    | e :: _ -> A_file (Rstore.entry_value e)
    | [] -> (
        match Rstore.entries_at t.mappings ~node key with
        | [] -> A_empty
        | entries -> children_answer entries)

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
    let key = key_of_string_memo t query_string in
    let replicas = Rstore.replica_buf t.mappings key in
    let n = Stdx.Int_buf.length replicas in
    let primary = Stdx.Int_buf.get replicas 0 in
    let request_bytes = Wire.request_bytes query_string in
    let quorum = t.quorum_enabled in
    let needed = if quorum then Rstore.read_quorum t.mappings else 1 in
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
     found); a repeated query is skipped without a probe; the search stops
     once [max_results] files are in hand. *)
  let bfs ~probe ~keep ~max_results start =
    let queue = Queue.of_seq (List.to_seq start) in
    let rec go visited count found =
      if count >= max_results || Queue.is_empty queue then List.rev found
      else
        let q = Queue.pop queue in
        if Query_set.mem q visited then go visited count found
        else
          let visited = Query_set.add q visited in
          match probe ~generalization:false q with
          | File file when keep q -> go visited (count + 1) ((q, file) :: found)
          | File _ | Not_indexed -> go visited count found
          | Children children ->
              List.iter (fun child -> if keep child then Queue.push child queue) children;
              go visited count found
    in
    go Query_set.empty 0 []

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

  let search ?interactions ?(max_results = max_int) t q =
    with_query_instruments t interactions (fun interactions ->
        bfs ~probe:(probe t interactions) ~keep:(fun _ -> true) ~max_results [ q ])

  let search_with_generalization ?interactions ?(max_results = max_int)
      ?(generalization_budget = 64) t q =
    with_query_instruments t interactions (fun interactions ->
        let probe = probe t interactions in
        (* Specialize back down from an indexed generalization, following
           only children compatible with [q] and keeping the files it
           covers. *)
        let specialize children =
          bfs ~probe ~keep:(Q.compatible q) ~max_results
            (List.filter (Q.compatible q) children)
          |> List.filter (fun (msd, _file) -> Q.covers q msd)
        in
        match probe ~generalization:false q with
        | File file -> [ (q, file) ]
        | Children children -> bfs ~probe ~keep:(fun _ -> true) ~max_results children
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

  let mapping_totals t = Rstore.entry_totals t.mappings mapping_entry_bytes
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
