(* The quorum layer's contract: version vectors form a join-semilattice
   (so anti-entropy converges in any exchange order), tombstones keep a
   remove from being resurrected by repair or anti-entropy, the
   anti-entropy state comparison agrees exactly when the canonical
   renderings agree, quorum reads reconcile and read-repair divergence
   exactly as the original quadratic reconcile did, and at the runner level the
   inactive quorum block degenerates byte-for-byte to the historical
   first-live-replica run while raising R monotonically masks stale
   reads under churn. *)

module Key = Hashing.Key
module Version = Storage.Version
module Replicated = Storage.Replicated_store
module Anti_entropy = Storage.Anti_entropy

let resolver n =
  Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:5L ~node_count:n ())

let k s = Key.of_string s

(* These stores never price traffic through the index, so entries carry a
   nominal length. *)

let values entries = List.map Replicated.entry_value entries

let held_values store ~node key = values (Replicated.held_entries store ~node key)

(* ------------------------------------------------------------------ *)
(* Version vectors: semilattice laws and causal comparison. *)

(* Vectors are abstract; build them the only way writes do — by bumping
   actor dots — from a generated (actor, bumps) event list. *)
let vec_of events =
  List.fold_left
    (fun v (actor, bumps) ->
      let rec go v i = if i = 0 then v else go (Version.bump v ~actor) (i - 1) in
      go v bumps)
    Version.zero events

let events_arb =
  QCheck.(
    set_print
      (fun evs -> Version.to_string (vec_of evs))
      (small_list (pair (int_bound 8) (int_range 1 4))))

let version_merge_commutative =
  QCheck.Test.make ~name:"merge is commutative" ~count:300
    QCheck.(pair events_arb events_arb)
    (fun (ea, eb) ->
      let a = vec_of ea and b = vec_of eb in
      Version.equal (Version.merge a b) (Version.merge b a))

let version_merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:300
    QCheck.(triple events_arb events_arb events_arb)
    (fun (ea, eb, ec) ->
      let a = vec_of ea and b = vec_of eb and c = vec_of ec in
      Version.equal
        (Version.merge a (Version.merge b c))
        (Version.merge (Version.merge a b) c))

let version_merge_idempotent =
  QCheck.Test.make ~name:"merge is idempotent" ~count:300 events_arb
    (fun ea ->
      let a = vec_of ea in
      Version.equal (Version.merge a a) a)

let version_merge_is_upper_bound =
  QCheck.Test.make ~name:"merge dominates both arguments" ~count:300
    QCheck.(pair events_arb events_arb)
    (fun (ea, eb) ->
      let a = vec_of ea and b = vec_of eb in
      let m = Version.merge a b in
      Version.well_formed m
      && Version.dominates_or_eq m a
      && Version.dominates_or_eq m b)

let version_render_faithful =
  QCheck.Test.make ~name:"to_string equality coincides with equal" ~count:300
    QCheck.(pair events_arb events_arb)
    (fun (ea, eb) ->
      let a = vec_of ea and b = vec_of eb in
      Version.equal a b = String.equal (Version.to_string a) (Version.to_string b))

let relation = function
  | Version.Eq -> "eq"
  | Version.Dominates -> "dominates"
  | Version.Dominated -> "dominated"
  | Version.Concurrent -> "concurrent"

let version_compare_units () =
  let a = Version.bump Version.zero ~actor:0 in
  let b = Version.bump Version.zero ~actor:1 in
  Alcotest.(check string) "zero = zero" "eq" (relation (Version.compare Version.zero Version.zero));
  Alcotest.(check string) "a = a" "eq" (relation (Version.compare a a));
  Alcotest.(check string) "one bump dominates zero" "dominates"
    (relation (Version.compare a Version.zero));
  Alcotest.(check string) "zero dominated by one bump" "dominated"
    (relation (Version.compare Version.zero a));
  Alcotest.(check string) "disjoint actors are concurrent" "concurrent"
    (relation (Version.compare a b));
  Alcotest.(check string) "merge dominates a branch" "dominates"
    (relation (Version.compare (Version.merge a b) a));
  Alcotest.(check int) "counter reads the dot" 1 (Version.counter a ~actor:0);
  Alcotest.(check int) "absent actor counts zero" 0 (Version.counter a ~actor:7);
  Alcotest.(check int) "zero has no dots" 0 (Version.dots Version.zero);
  Alcotest.(check int) "two actors, two dots" 2 (Version.dots (Version.merge a b));
  Alcotest.(check bool) "negative actor rejected" true
    (try ignore (Version.bump Version.zero ~actor:(-1) : Version.t); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Generated replica histories.  One key on a three-replica store with a
   virtual clock: ops fail, revive and wipe replicas, write (plain
   inserts, unique inserts that refresh, removes) with mixed TTLs,
   advance the clock and run quorum reads on replica subsets.  Sleeping
   replicas give dominated and concurrent versions, a wiped replica
   rewritten by a refresh gives equal versions over diverged content,
   plain inserts give duplicate values, and refreshes give differing
   expiries.  Values of one length but different content exercise the
   length-first membership tests. *)

type op =
  | Fail of int
  | Revive of int
  | Wipe of int
  | Insert of string * float
  | Insert_unique of string * float
  | Remove of string
  | Advance of float
  | Read of int list

let show_op = function
  | Fail i -> Printf.sprintf "fail %d" i
  | Revive i -> Printf.sprintf "revive %d" i
  | Wipe i -> Printf.sprintf "wipe %d" i
  | Insert (v, ttl) -> Printf.sprintf "insert %s ttl %g" v ttl
  | Insert_unique (v, ttl) -> Printf.sprintf "insert_unique %s ttl %g" v ttl
  | Remove v -> Printf.sprintf "remove %s" v
  | Advance dt -> Printf.sprintf "advance %g" dt
  | Read l -> "read [" ^ String.concat ";" (List.map string_of_int l) ^ "]"

let history_arb =
  let open QCheck.Gen in
  let replica = int_bound 2 in
  let value = map (Array.get [| "a"; "bb"; "cc"; "ddd"; "e" |]) (int_bound 4) in
  let ttl = map (Array.get [| 1.0; 5.0; 20.0; infinity |]) (int_bound 3) in
  let op =
    frequency
      [
        (2, map (fun i -> Fail i) replica);
        (3, map (fun i -> Revive i) replica);
        (1, map (fun i -> Wipe i) replica);
        (4, map2 (fun v t -> Insert (v, t)) value ttl);
        (4, map2 (fun v t -> Insert_unique (v, t)) value ttl);
        (2, map (fun v -> Remove v) value);
        (2, map (fun dt -> Advance (float_of_int dt)) (int_range 1 8));
        (3, map (fun l -> Read (List.sort_uniq Int.compare l)) (list_size (int_range 1 3) replica));
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    (list_size (int_range 1 40) op)

let history_key = k "history"

(* Replay [ops]; [on_read] judges every read (it performs the read) and
   [after] the store after every op.  True when every judgement holds. *)
let replay
    ?(on_read =
      fun store ~now:_ ~nodes ->
        ignore (Replicated.quorum_read store ~key:history_key ~nodes);
        true) ?(after = fun _ ~now:_ ~replicas:_ -> true) ops =
  let now = ref 0.0 in
  let store : string Replicated.t =
    Replicated.create ~resolver:(resolver 6) ~replication:3 ~clock:(fun () -> !now) ()
  in
  let replicas = Array.of_list (Replicated.replica_nodes store history_key) in
  let key = history_key in
  List.for_all
    (fun op ->
      let ok =
        match op with
        | Fail i -> Replicated.fail_node store replicas.(i); true
        | Revive i -> Replicated.revive_node store replicas.(i); true
        | Wipe i -> Replicated.drop_state store replicas.(i); true
        | Insert (v, ttl) ->
            Replicated.insert ~expires_at:(!now +. ttl) store ~key ~len:(String.length v) v;
            true
        | Insert_unique (v, ttl) ->
            ignore
              (Replicated.insert_unique ~expires_at:(!now +. ttl) ~equal:String.equal store
                 ~key ~len:(String.length v) v
                : bool);
            true
        | Remove v -> ignore (Replicated.remove store ~key (String.equal v) : int); true
        | Advance dt -> now := !now +. dt; true
        | Read l -> on_read store ~now:!now ~nodes:(List.map (Array.get replicas) l)
      in
      ok && after store ~now:!now ~replicas:(Array.to_list replicas))
    ops

(* A replica state as the oracles see it: unexpired entries as
   (value, length, expiry), tombstones, version; no state reads empty,
   as the store's reconcile treats it. *)
type ostate = {
  o_entries : (string * int * float) list;
  o_tombs : string list;
  o_version : Version.t;
}

let observe store ~now ~node =
  match Replicated.held_state store ~node history_key with
  | None -> { o_entries = []; o_tombs = []; o_version = Version.zero }
  | Some h ->
      {
        o_entries =
          List.filter_map
            (fun e ->
              let expiry = Replicated.entry_expires_at e in
              if expiry <= now then None
              else Some (Replicated.entry_value e, Replicated.entry_len e, expiry))
            h.Replicated.held;
        o_tombs = h.Replicated.tombstones;
        o_version = h.Replicated.version;
      }

(* The reconcile as it was first written, quadratic list scans and all:
   dominance, else the union fenced by the merged tombstones. *)
let oracle_merge a b =
  let version = Version.merge a.o_version b.o_version in
  let has entries v = List.exists (fun (v', _, _) -> v' = v) entries in
  match Version.compare a.o_version b.o_version with
  | Version.Dominates -> { a with o_version = version }
  | Version.Dominated -> { b with o_version = version }
  | Version.Eq | Version.Concurrent ->
      let tombs =
        a.o_tombs
        @ List.filter (fun v -> not (List.exists (fun tv -> tv = v) a.o_tombs)) b.o_tombs
      in
      let entries =
        a.o_entries @ List.filter (fun (v, _, _) -> not (has a.o_entries v)) b.o_entries
      in
      {
        o_entries = List.filter (fun (v, _, _) -> not (List.mem v tombs)) entries;
        o_tombs = tombs;
        o_version = version;
      }

let oracle_equal a b =
  Version.equal a.o_version b.o_version
  && List.equal (fun (v, _, x) (v', _, x') -> v = v' && x = x') a.o_entries b.o_entries
  && a.o_tombs = b.o_tombs

let quorum_read_matches_oracle =
  QCheck.Test.make ~name:"quorum reads match the quadratic reconcile" ~count:500
    history_arb
    (replay ~on_read:(fun store ~now ~nodes ->
         let before =
           List.filter_map
             (fun node ->
               if Replicated.alive store node then Some (node, observe store ~now ~node)
               else None)
             nodes
         in
         let values, version, repairs = Replicated.quorum_read store ~key:history_key ~nodes in
         let repairs =
           List.map
             (fun (node, gained) ->
               ( node,
                 List.map (fun e -> (Replicated.entry_value e, Replicated.entry_len e)) gained ))
             repairs
         in
         match before with
         | [] -> values = [] && Version.equal version Version.zero && repairs = []
         | (_, first) :: rest ->
             let merged = List.fold_left (fun acc (_, st) -> oracle_merge acc st) first rest in
             let expected_repairs =
               List.filter_map
                 (fun (node, st) ->
                   if oracle_equal st merged then None
                   else
                     Some
                       ( node,
                         List.filter_map
                           (fun (v, len, _) ->
                             if List.exists (fun (v', _, _) -> v' = v) st.o_entries then None
                             else Some (v, len))
                           merged.o_entries ))
                 before
             in
             values = List.map (fun (v, _, _) -> v) merged.o_entries
             && Version.equal version merged.o_version
             && repairs = expected_repairs
             && List.for_all
                  (fun (node, st) ->
                    let after = observe store ~now ~node in
                    if List.mem_assoc node expected_repairs then oracle_equal after merged
                    else oracle_equal after st)
                  before))

(* The canonical rendering anti-entropy once hashed: entries with their
   expiries, tombstones and version; [""] for no state. *)
let render_state store ~now ~node =
  match Replicated.held_state store ~node history_key with
  | None -> ""
  | Some h ->
      let live =
        List.filter (fun e -> not (Replicated.entry_expires_at e <= now)) h.Replicated.held
      in
      String.concat ";"
        (List.map
           (fun e ->
             Printf.sprintf "%s@%h" (Replicated.entry_value e) (Replicated.entry_expires_at e))
           live)
      ^ "!"
      ^ String.concat ";" h.Replicated.tombstones
      ^ "!"
      ^ Version.to_string h.Replicated.version

let same_state_matches_rendering =
  QCheck.Test.make ~name:"same_state holds exactly when the renderings agree" ~count:500
    history_arb
    (replay ~after:(fun store ~now ~replicas ->
         List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 let rendered_equal =
                   String.equal (render_state store ~now ~node:a) (render_state store ~now ~node:b)
                 in
                 Replicated.same_state store ~a ~b history_key = rendered_equal)
               replicas)
           replicas))

(* The expiry floor only lets probes skip the walk: what a live replica
   serves must equal the naive filter over what it holds. *)
let live_entries_match_naive_filter =
  QCheck.Test.make ~name:"expiry floor serves what a naive filter keeps" ~count:500
    history_arb
    (replay ~after:(fun store ~now ~replicas ->
         List.for_all
           (fun node ->
             (not (Replicated.alive store node))
             ||
             let view e = (Replicated.entry_value e, Replicated.entry_expires_at e) in
             let naive =
               List.filter_map
                 (fun e -> if Replicated.entry_expires_at e <= now then None else Some (view e))
                 (Replicated.held_entries store ~node history_key)
             in
             List.map view (Replicated.entries_at store ~node history_key) = naive)
           replicas))

let same_state_tracks_state () =
  let r = resolver 8 in
  let store : string Replicated.t = Replicated.create ~resolver:r ~replication:3 () in
  let replicas key =
    match Dht.Resolver.replicas r (k key) 3 with
    | [ a; b; c ] -> (a, b, c)
    | _ -> Alcotest.fail "expected three replicas"
  in
  let same a b key = Replicated.same_state store ~a ~b (k key) in
  Replicated.insert store ~len:1 ~key:(k "shared") "x";
  let a, b, _ = replicas "shared" in
  Alcotest.(check bool) "replicas of one write match" true (same a b "shared");
  (* One replica sleeps through a write: the states diverge. *)
  Replicated.fail_node store b;
  Replicated.insert store ~len:1 ~key:(k "shared") "y";
  Replicated.revive_node store b;
  Alcotest.(check bool) "a lagging replica differs" false (same a b "shared");
  Alcotest.(check bool) "nodes holding nothing match" true (same a b "absent");
  (* A remove [c] sleeps through leaves empty, tombstoned states on [a]
     and [b]; wiping [b] leaves it no state at all. *)
  Replicated.insert store ~len:1 ~key:(k "removed") "z";
  let a, b, c = replicas "removed" in
  Replicated.fail_node store c;
  ignore (Replicated.remove store ~key:(k "removed") (fun _ -> true) : int);
  Alcotest.(check bool) "empty states left by one remove match" true (same a b "removed");
  Replicated.drop_state store b;
  Alcotest.(check bool) "an empty state differs from no state" false (same a b "removed")

(* ------------------------------------------------------------------ *)
(* Tombstones: the stale-entry resurrection regression.  A replica that
   sleeps through a remove keeps its copy; historically the repair walk
   re-homed that copy onto the replicas that had correctly dropped it,
   resurrecting the deletion.  Tombstones fence the remove, and
   anti-entropy retires the stale copy outright. *)

let tombstones_block_resurrection () =
  let r = resolver 10 in
  let store : string Replicated.t =
    Replicated.create ~resolver:r ~replication:3 ()
  in
  Replicated.insert store ~len:0 ~key:(k "doomed") "entry";
  let replicas = Dht.Resolver.replicas r (k "doomed") 3 in
  let sleeper = List.nth replicas 2 in
  Replicated.fail_node store sleeper;
  Alcotest.(check int) "removed on the live replicas" 1
    (Replicated.remove store ~key:(k "doomed") (fun _ -> true));
  Replicated.revive_node store sleeper;
  (* The nap preserved the replica's (now stale) copy. *)
  Alcotest.(check (list string)) "stale copy survives the nap" [ "entry" ]
    (held_values store ~node:sleeper (k "doomed"));
  Alcotest.(check bool) "the stale copy is visible as availability" true
    (Replicated.mem store (k "doomed"));
  (* The pinned fix: repair must not re-home the tombstoned entry. *)
  let restored = ref 0 in
  ignore
    (Replicated.repair ~on_restore:(fun ~node:_ _ -> incr restored) store : int);
  Alcotest.(check int) "repair resurrects nothing" 0 !restored;
  List.iter
    (fun node ->
      if node <> sleeper then
        Alcotest.(check (list string))
          (Printf.sprintf "node %d stays clean" node)
          []
          (held_values store ~node (k "doomed")))
    replicas;
  (* Anti-entropy converges the other way: the merged (tombstoned)
     state dominates, so the sleeper drops its copy and gains nothing. *)
  let gained = Replicated.sync_key store ~key:(k "doomed") ~nodes:replicas in
  List.iter
    (fun (_, gained) ->
      Alcotest.(check (list string)) "sync ships no values" [] (values gained))
    gained;
  Alcotest.(check (list string)) "stale copy retired" []
    (held_values store ~node:sleeper (k "doomed"));
  Alcotest.(check bool) "the remove finally sticks everywhere" false
    (Replicated.mem store (k "doomed"))

(* ------------------------------------------------------------------ *)
(* Quorum reads, write acknowledgements, store validation. *)

let quorum_read_reconciles () =
  let r = resolver 10 in
  let store : string Replicated.t =
    Replicated.create ~resolver:r ~replication:3 ~read_quorum:2 ()
  in
  Alcotest.(check int) "read quorum recorded" 2 (Replicated.read_quorum store);
  Alcotest.(check int) "write quorum defaults to replication" 3
    (Replicated.write_quorum store);
  Replicated.insert store ~len:0 ~key:(k "a") "old";
  let replicas = Dht.Resolver.replicas r (k "a") 3 in
  let sleeper = List.nth replicas 1 in
  Replicated.fail_node store sleeper;
  Replicated.insert store ~len:0 ~key:(k "a") "new";
  Replicated.revive_node store sleeper;
  Alcotest.(check string) "sleeper causally behind" "dominated"
    (relation
       (Version.compare
          (Replicated.version_at store ~node:sleeper (k "a"))
          (Replicated.live_merged_version store (k "a"))));
  let merged, version, repairs =
    Replicated.quorum_read store ~key:(k "a") ~nodes:replicas
  in
  Alcotest.(check (list string)) "merged values, most recent first"
    [ "new"; "old" ]
    merged;
  Alcotest.(check string) "merged version is the live upper bound" "eq"
    (relation
       (Version.compare version (Replicated.live_merged_version store (k "a"))));
  (match repairs with
  | [ (node, gained) ] ->
      Alcotest.(check int) "the sleeper was repaired" sleeper node;
      Alcotest.(check (list string)) "it gained the missed write" [ "new" ]
        (values gained)
  | _ -> Alcotest.fail "expected exactly one repaired replica");
  (* After the read repair every replica agrees. *)
  Alcotest.(check string) "sleeper caught up" "eq"
    (relation
       (Version.compare
          (Replicated.version_at store ~node:sleeper (k "a"))
          (Replicated.live_merged_version store (k "a"))));
  let _, _, again = Replicated.quorum_read store ~key:(k "a") ~nodes:replicas in
  Alcotest.(check int) "second read repairs nothing" 0 (List.length again)

let write_acknowledgement_counting () =
  let r = resolver 10 in
  let acks = ref [] in
  let store : string Replicated.t =
    Replicated.create ~resolver:r ~replication:3 ~write_quorum:2
      ~on_write_acks:(fun ~acks:a ~needed -> acks := (a, needed) :: !acks)
      ()
  in
  Replicated.insert store ~len:0 ~key:(k "a") "x";
  Alcotest.(check (list (pair int int))) "fully acknowledged" [ (3, 2) ] !acks;
  acks := [];
  let replicas = Dht.Resolver.replicas r (k "a") 3 in
  List.iter (Replicated.fail_node store) (List.tl replicas);
  Replicated.insert store ~len:0 ~key:(k "a") "y";
  Alcotest.(check (list (pair int int))) "under-acknowledged write reported"
    [ (1, 2) ] !acks

let store_quorum_validation () =
  let rejects f =
    try ignore (f () : string Replicated.t); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "read quorum above replication rejected" true
    (rejects (fun () ->
         Replicated.create ~resolver:(resolver 6) ~replication:3 ~read_quorum:4 ()));
  Alcotest.(check bool) "zero write quorum rejected" true
    (rejects (fun () ->
         Replicated.create ~resolver:(resolver 6) ~replication:3 ~write_quorum:0 ()))

(* ------------------------------------------------------------------ *)
(* Anti-entropy pass: diverged replicas converge, the digest scheme
   beats full-state push-pull, and a converged store is quiescent. *)

let anti_entropy_converges () =
  let r = resolver 8 in
  let store : string Replicated.t =
    Replicated.create ~resolver:r ~replication:3 ()
  in
  for i = 1 to 30 do
    Replicated.insert store ~len:0
      ~key:(k (Printf.sprintf "key-%d" i))
      (Printf.sprintf "value-%d" i)
  done;
  let key = k "drifted" in
  Replicated.insert store ~len:0 ~key "old";
  let sleeper = List.nth (Dht.Resolver.replicas r key 3) 1 in
  Replicated.fail_node store sleeper;
  Replicated.insert store ~len:0 ~key "new";
  Replicated.revive_node store sleeper;
  let entry_bytes e = 100 + String.length (Replicated.entry_value e) in
  let exchanges = ref 0 and shipped_to = ref [] in
  let stats =
    Anti_entropy.run store ~entry_bytes
      ~on_exchange:(fun ~peer:_ ~bytes:_ -> incr exchanges)
      ~on_ship:(fun ~node ~bytes:_ -> shipped_to := node :: !shipped_to)
      ()
  in
  Alcotest.(check int) "every exchange billed" stats.exchanges !exchanges;
  Alcotest.(check (list int)) "only the sleeper gained entries" [ sleeper ]
    !shipped_to;
  Alcotest.(check int) "one key diverged" 1 stats.keys_shipped;
  Alcotest.(check int) "one entry shipped" 1 stats.entries_shipped;
  Alcotest.(check bool) "most digests matched" true
    (stats.digest_matches > 0 && stats.digest_matches < stats.exchanges);
  Alcotest.(check bool) "digests + shipped beat full-state push-pull" true
    (stats.digest_bytes + stats.shipped_bytes < stats.full_state_bytes);
  Alcotest.(check (list string)) "sleeper caught up" [ "new"; "old" ]
    (held_values store ~node:sleeper key);
  (* Convergence is a fixed point: a second pass matches everywhere and
     ships nothing. *)
  let again = Anti_entropy.run store ~entry_bytes () in
  Alcotest.(check int) "second pass: every digest matches" again.exchanges
    again.digest_matches;
  Alcotest.(check int) "second pass ships nothing" 0 again.entries_shipped;
  (* Componentwise aggregation. *)
  let sum = Anti_entropy.add stats again in
  Alcotest.(check int) "stats add componentwise"
    (stats.exchanges + again.exchanges) sum.exchanges

(* ------------------------------------------------------------------ *)
(* Runner: the degeneration equality and the R-sweep monotonicity the
   issue pins. *)

let churned_base =
  {
    Sim.Runner.default_config with
    node_count = 50;
    article_count = 400;
    query_count = 800;
    scheme = Bib.Schemes.Simple;
    churn =
      Some
        { Sim.Runner.default_churn with churn_rate = 0.01; replication = 3 };
  }

(* The hard degeneration claim: R = 1, W = replication, anti-entropy off
   must reproduce the quorum-free run byte for byte — traffic, placement
   and the metrics snapshot. *)
let quorum_inactive_equals_plain () =
  let inactive =
    { Sim.Runner.read_quorum = 1; write_quorum = 3; anti_entropy_interval = 0.0 }
  in
  Alcotest.(check bool) "R=1/W=N/no-AE block is inactive" false
    (Sim.Runner.quorum_active { churned_base with quorum = Some inactive });
  let plain = Sim.Runner.run churned_base in
  let quorumed =
    Sim.Runner.run { churned_base with quorum = Some inactive }
  in
  let check_int what f = Alcotest.(check int) what (f plain) (f quorumed) in
  let open Sim.Runner in
  check_int "request bytes" request_bytes;
  check_int "response bytes" response_bytes;
  check_int "cache bytes" cache_bytes;
  check_int "maintenance bytes" maintenance_bytes;
  check_int "publish bytes" (fun r -> r.publish_bytes);
  check_int "network messages" network_messages;
  check_int "hits" (fun r -> r.hits);
  check_int "errors" (fun r -> r.errors);
  check_int "unreachable" (fun r -> r.unreachable);
  check_int "rpc calls" rpc_calls;
  check_int "quorum reads stay zero" quorum_reads;
  check_int "quorum writes stay zero" quorum_writes;
  check_int "anti-entropy stays off" antientropy_rounds;
  Alcotest.(check (array int)) "per-node touches" plain.node_touches
    quorumed.node_touches;
  Alcotest.(check (array int)) "per-node cached keys" plain.cached_keys
    quorumed.cached_keys;
  Alcotest.(check string) "metrics snapshot byte-identical"
    (Obs.Export.render_table plain.metrics)
    (Obs.Export.render_table quorumed.metrics)

let quorum_validation () =
  let rejects cfg =
    try ignore (Sim.Runner.run cfg : Sim.Runner.report); false
    with Invalid_argument _ -> true
  in
  let with_quorum q = { churned_base with quorum = Some q } in
  Alcotest.(check bool) "R above replication rejected" true
    (rejects
       (with_quorum
          { Sim.Runner.read_quorum = 4; write_quorum = 3; anti_entropy_interval = 0.0 }));
  Alcotest.(check bool) "W of zero rejected" true
    (rejects
       (with_quorum
          { Sim.Runner.read_quorum = 1; write_quorum = 0; anti_entropy_interval = 0.0 }));
  Alcotest.(check bool) "negative anti-entropy interval rejected" true
    (rejects
       (with_quorum
          { Sim.Runner.read_quorum = 1; write_quorum = 3; anti_entropy_interval = -1.0 }));
  Alcotest.(check bool) "anti-entropy without churn rejected" true
    (rejects
       {
         churned_base with
         churn = None;
         faults = Some { Sim.Runner.default_faults with fault_replication = 3 };
         quorum =
           Some
             { Sim.Runner.read_quorum = 1; write_quorum = 3; anti_entropy_interval = 5.0 };
       })

(* The issue's acceptance sweep, in miniature: at a fixed churn rate the
   stale-read rate must fall monotonically as R rises, and the digest
   scheme must move fewer bytes than full-state push-pull on the same
   divergence.  The run needs enough virtual time (query_count over
   query_rate) to span several republish rounds — writes during a
   replica's downtime are what create the staleness quorum reads mask. *)
let quorum_reads_mask_staleness () =
  let base =
    {
      Sim.Runner.default_config with
      node_count = 100;
      article_count = 800;
      query_count = 6_000;
      scheme = Bib.Schemes.Simple;
      churn =
        Some
          {
            Sim.Runner.default_churn with
            churn_rate = 0.02;
            replication = 3;
            republish_period = 20.0;
          };
    }
  in
  let run read_quorum =
    Sim.Runner.run
      {
        base with
        quorum =
          Some
            { Sim.Runner.read_quorum; write_quorum = 3; anti_entropy_interval = 10.0 };
      }
  in
  let r1 = run 1 and r2 = run 2 and r3 = run 3 in
  let rate = Sim.Runner.stale_read_rate in
  Alcotest.(check bool) "R=1 observes stale reads" true (rate r1 > 0.0);
  Alcotest.(check bool) "R=2 masks staleness at least as well" true
    (rate r2 <= rate r1);
  Alcotest.(check bool) "R=3 masks staleness at least as well" true
    (rate r3 <= rate r2);
  Alcotest.(check bool) "wider quorums read-repair laggards" true
    (Sim.Runner.quorum_read_repairs r2 > 0);
  List.iter
    (fun (r : Sim.Runner.report) ->
      let open Sim.Runner in
      Alcotest.(check bool) "quorum reads counted" true (quorum_reads r > 0);
      Alcotest.(check bool) "writes counted against W" true (quorum_writes r > 0);
      Alcotest.(check bool) "anti-entropy ran" true (antientropy_rounds r > 0);
      Alcotest.(check bool) "digests beat full-state push-pull" true
        (antientropy_digest_bytes r + antientropy_shipped_bytes r
        < antientropy_full_state_bytes r))
    [ r1; r2; r3 ]

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Render once: every entry carries its rendered length from the write
   that created it through read repair, repair, anti-entropy sync and
   republish, and replies are billed from those lengths. *)

module Q = Bib.Bib_query
module Index = Bib.Bib_index

(* [Runner.run]'s session loop, keeping the environment for inspection. *)
let run_keeping_env (cfg : Sim.Runner.config) =
  let module I = Sim.Runner.Internal in
  let env = I.setup cfg in
  let query_rate =
    match cfg.churn with Some c -> c.Sim.Runner.query_rate | None -> 1.0
  in
  let tally = I.tally_create () in
  for i = 1 to cfg.query_count do
    I.advance_churn env ~until:(float_of_int i /. query_rate);
    ignore (Dht.Rpc.deliver_until (I.rpc env) ~now:!(I.clock_ref env) : int);
    I.tally_record tally (Sim.Walk.run (I.walk_ctx env) (I.next_event env))
  done;
  ignore (Dht.Rpc.flush_deliveries (I.rpc env) : int);
  (env, I.make_report env tally)

let cached_lengths_survive_maintenance =
  QCheck.Test.make ~name:"cached entry lengths match renderings after churn"
    ~count:3 QCheck.(int_range 1 10_000)
    (fun seed ->
      let cfg =
        {
          Sim.Runner.default_config with
          node_count = 60;
          article_count = 300;
          query_count = 1_500;
          seed = Int64.of_int seed;
          churn =
            Some
              {
                Sim.Runner.default_churn with
                churn_rate = 0.02;
                replication = 3;
                republish_period = 5.0;
              };
          faults =
            Some
              { Sim.Runner.default_faults with loss_rate = 0.05; fault_replication = 3 };
          quorum =
            Some
              { Sim.Runner.read_quorum = 2; write_quorum = 2; anti_entropy_interval = 5.0 };
        }
      in
      let env, r = run_keeping_env cfg in
      Sim.Runner.quorum_read_repairs r > 0
      && Sim.Runner.antientropy_rounds r > 0
      && Index.entry_length_mismatches (Sim.Runner.Internal.index env) = [])

(* The runner's churn rarely leaves a replica missing an entry outright
   (anti-entropy there mostly reconciles versions), so force both copy
   paths: replicas that slept through publications gain them by
   anti-entropy sync, and replicas that lost their state regain it by the
   full-state repair walk. *)
let maintenance_copies_cached_lengths () =
  let articles = Bib.Corpus.generate ~seed:17L (Bib.Corpus.default_config ~article_count:120) in
  let node_count = 20 in
  let resolver = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:17L ~node_count ()) in
  let index = Index.create ~replication:3 ~read_quorum:2 ~resolver () in
  let liveness = Index.liveness index in
  let first, second = (Array.sub articles 0 60, Array.sub articles 60 60) in
  Index.publish_corpus index ~kind:Bib.Schemes.Simple first;
  let sleepers = [ 2; 7; 11 ] in
  List.iter (fun n -> ignore (Dht.Liveness.fail liveness n : bool)) sleepers;
  Index.publish_corpus index ~kind:Bib.Schemes.Simple second;
  List.iter (fun n -> ignore (Dht.Liveness.revive liveness n : bool)) sleepers;
  Alcotest.(check bool) "anti-entropy shipped the missed entries" true
    (Index.anti_entropy index > 0);
  List.iter (Index.drop_node_state index) [ 4; 15 ];
  Alcotest.(check bool) "repair re-homed the lost entries" true (Index.repair index > 0);
  Index.republish_corpus index ~kind:Bib.Schemes.Simple articles;
  Alcotest.(check (list (pair string int))) "every cached length matches its rendering" []
    (Index.entry_length_mismatches index)

(* Each lookup step on an indexed parent is billed, per consulted
   replica, exactly [Wire.response_bytes] over the rendered children it
   returns — plus, on the quorum path, the piggybacked version vectors:
   the mapping state's single coordinator dot (every write went through
   the live primary) and no file state under a parent key. *)
let replies_billed_as_rendered () =
  let articles = Bib.Corpus.generate ~seed:9L (Bib.Corpus.default_config ~article_count:80) in
  let scheme = Bib.Schemes.scheme Bib.Schemes.Simple in
  let parents =
    Array.to_list articles
    |> List.concat_map (fun a ->
           List.map
             (fun (e : Q.t P2pindex.Scheme.edge) -> e.parent)
             (P2pindex.Scheme.edges scheme (Q.msd a)))
    |> List.sort_uniq Q.compare
  in
  let check_path ~label ?read_quorum ~replies ~version_bytes () =
    let node_count = 20 in
    let resolver =
      Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:9L ~node_count ())
    in
    let network = Dht.Network.create ~node_count () in
    let index = Index.create ~network ~replication:3 ?read_quorum ~resolver () in
    Index.publish_corpus index ~kind:Bib.Schemes.Simple articles;
    List.iter
      (fun q ->
        let before = Dht.Network.bytes network Dht.Network.Response in
        match Index.lookup_step index q with
        | Index.Children children ->
            let rendered = P2pindex.Wire.response_bytes (List.map Q.to_string children) in
            Alcotest.(check int)
              (Printf.sprintf "%s reply for %s" label (Q.to_string q))
              (replies * (rendered + version_bytes))
              (Dht.Network.bytes network Dht.Network.Response - before)
        | Index.File _ | Index.Not_indexed ->
            Alcotest.failf "%s: parent %s not indexed" label (Q.to_string q))
      parents
  in
  check_path ~label:"plain" ~replies:1 ~version_bytes:0 ();
  check_path ~label:"quorum" ~read_quorum:2 ~replies:2
    ~version_bytes:(P2pindex.Wire.version_bytes 1) ()

let suite =
  [
    ( "quorum:version",
      Alcotest.test_case "causal comparison and accessors" `Quick
        version_compare_units
      :: qcheck
           [
             version_merge_commutative;
             version_merge_associative;
             version_merge_idempotent;
             version_merge_is_upper_bound;
             version_render_faithful;
           ] );
    ( "quorum:digest",
      Alcotest.test_case "same_state tracks replica state" `Quick
        same_state_tracks_state
      :: qcheck [ same_state_matches_rendering ] );
    ( "quorum:store",
      [
        Alcotest.test_case "tombstones block stale-entry resurrection" `Quick
          tombstones_block_resurrection;
        Alcotest.test_case "quorum read reconciles and read-repairs" `Quick
          quorum_read_reconciles;
        Alcotest.test_case "write acknowledgements counted against W" `Quick
          write_acknowledgement_counting;
        Alcotest.test_case "quorum bounds validated" `Quick store_quorum_validation;
      ]
      @ qcheck [ quorum_read_matches_oracle; live_entries_match_naive_filter ] );
    ( "quorum:anti-entropy",
      [
        Alcotest.test_case "diverged replicas converge below full-state cost"
          `Quick anti_entropy_converges;
      ] );
    ( "quorum:runner",
      [
        Alcotest.test_case "inactive quorum = plain run, byte for byte" `Quick
          quorum_inactive_equals_plain;
        Alcotest.test_case "nonsensical quorum configs rejected" `Quick
          quorum_validation;
        Alcotest.test_case "raising R masks stale reads monotonically" `Slow
          quorum_reads_mask_staleness;
      ] );
    ( "quorum:render-once",
      [
        Alcotest.test_case "replies billed as their rendered children" `Quick
          replies_billed_as_rendered;
        Alcotest.test_case "anti-entropy and repair copy cached lengths" `Quick
          maintenance_copies_cached_lengths;
      ]
      @ qcheck [ cached_lengths_survive_maintenance ] );
  ]
