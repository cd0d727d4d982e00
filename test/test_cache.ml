(* The shortcut cache's recency list, caching policies and per-node
   shortcut tables. *)

module Policy = Cache.Policy
module Shortcut = Cache.Shortcut_cache

(* The recency list on its own: one target per query makes a node cache a
   plain LRU map from the query to the pair's second half.  [mem] reads
   [entries], which does not touch recency. *)
let lru_put c k v = ignore (Shortcut.add c ~query_key:(string_of_int k) ~target_key:"t" (k, v))

let lru_get c k =
  match Shortcut.find c ~query_key:(string_of_int k) with
  | [ (_, (_, v)) ] -> Some v
  | _ -> None

let lru_list c = Shortcut.entries c
let mem c k = List.mem_assoc k (lru_list c)
let lru ?capacity () : int Shortcut.t = Shortcut.create ~capacity ()

let lru_basic () =
  let c = lru () in
  lru_put c 1 10;
  lru_put c 2 20;
  Alcotest.(check (option int)) "find 1" (Some 10) (lru_get c 1);
  Alcotest.(check (option int)) "find missing" None (lru_get c 99);
  Alcotest.(check int) "size" 2 (Shortcut.size c);
  for i = 3 to 102 do
    lru_put c i i
  done;
  Alcotest.(check int) "unbounded" 102 (Shortcut.size c)

let lru_eviction_order () =
  let c = lru ~capacity:3 () in
  lru_put c 1 10;
  lru_put c 2 20;
  lru_put c 3 30;
  (* Touch 1 so that 2 becomes least recently used. *)
  ignore (lru_get c 1);
  lru_put c 4 40;
  Alcotest.(check bool) "2 evicted" false (mem c 2);
  Alcotest.(check bool) "1 survived (recently used)" true (mem c 1);
  Alcotest.(check bool) "3 survived" true (mem c 3);
  Alcotest.(check bool) "4 inserted" true (mem c 4);
  Alcotest.(check int) "at capacity" 3 (Shortcut.size c)

(* [entries] and [size] are the cache's peeks. *)
let lru_peek_does_not_touch () =
  let c = lru ~capacity:2 () in
  lru_put c 1 10;
  lru_put c 2 20;
  ignore (Shortcut.entries c);
  ignore (Shortcut.size c);
  (* 1 is still least recently used, so it gets evicted. *)
  lru_put c 3 30;
  Alcotest.(check bool) "peek did not refresh" false (mem c 1)

let lru_overwrite_refreshes () =
  let c = lru ~capacity:2 () in
  lru_put c 1 10;
  lru_put c 2 20;
  lru_put c 1 11;
  lru_put c 3 30;
  Alcotest.(check (list (pair int int))) "overwritten pair, 2 evicted instead"
    [ (3, 30); (1, 11) ] (lru_list c)

(* The evictions counter counts capacity evictions only: not expiries,
   refreshes or a crash. *)
let lru_evictions_counted () =
  let registry = Obs.Metrics.create () in
  let clock = ref 0.0 in
  let c : int Shortcut.t =
    Shortcut.create ~instruments:(Shortcut.instruments registry)
      ~clock:(fun () -> !clock) ~ttl:5.0 ~capacity:(Some 2) ()
  in
  let evictions () =
    Obs.Metrics.counter_total (Obs.Metrics.snapshot registry) "p2pindex_cache_evictions_total"
  in
  lru_put c 1 10;
  lru_put c 2 20;
  lru_put c 3 30;
  Alcotest.(check int) "counted for a capacity eviction" 1 (evictions ());
  Alcotest.(check (list (pair int int))) "1 went" [ (3, 30); (2, 20) ] (lru_list c);
  lru_put c 3 31;
  clock := 10.0;
  ignore (lru_get c 2);
  Shortcut.clear c;
  Alcotest.(check int) "not for a refresh, an expiry or a clear" 1 (evictions ())

let lru_expiry_and_clear () =
  let clock = ref 0.0 in
  let c : int Shortcut.t =
    Shortcut.create ~clock:(fun () -> !clock) ~ttl:5.0 ~capacity:None ()
  in
  lru_put c 1 10;
  clock := 3.0;
  lru_put c 2 20;
  clock := 6.0;
  Alcotest.(check (option int)) "expired entry gone" None (lru_get c 1);
  Alcotest.(check int) "and purged" 1 (Shortcut.size c);
  Alcotest.(check (option int)) "fresh entry stays" (Some 20) (lru_get c 2);
  Shortcut.clear c;
  Alcotest.(check int) "cleared" 0 (Shortcut.size c);
  Alcotest.(check (list (pair int int))) "nothing left" [] (lru_list c)

let lru_entries_mru_order () =
  let c = lru () in
  lru_put c 1 10;
  lru_put c 2 20;
  lru_put c 3 30;
  ignore (lru_get c 1);
  Alcotest.(check (list (pair int int))) "MRU first" [ (1, 10); (3, 30); (2, 20) ]
    (lru_list c)

let lru_zero_capacity_rejected () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Shortcut_cache.create: capacity must be positive") (fun () ->
      ignore (lru ~capacity:0 ()))

(* Model-based property: with one target per query the cache behaves like
   a naive list-based LRU. *)
let lru_matches_model =
  QCheck.Test.make ~name:"LRU matches reference model" ~count:300
    QCheck.(pair (int_range 1 5) (small_list (pair (int_range 0 9) bool)))
    (fun (capacity, ops) ->
      let c = lru ~capacity () in
      (* Model: association list, most recent first. *)
      let model = ref [] in
      let model_add k v =
        model := (k, v) :: List.remove_assoc k !model;
        if List.length !model > capacity then
          model := List.filteri (fun i _ -> i < capacity) !model
      in
      let model_find k =
        match List.assoc_opt k !model with
        | Some v ->
            model := (k, v) :: List.remove_assoc k !model;
            Some v
        | None -> None
      in
      List.for_all
        (fun (k, is_add) ->
          if is_add then begin
            lru_put c k k;
            model_add k k;
            true
          end
          else lru_get c k = model_find k)
        ops
      && lru_list c = !model)

let policy_labels () =
  Alcotest.(check string) "no cache" "No Cache" (Policy.label Policy.no_cache);
  Alcotest.(check string) "single" "Single" (Policy.label Policy.single_cache);
  Alcotest.(check string) "multi" "Multi" (Policy.label Policy.multi_cache);
  Alcotest.(check string) "lru" "LRU20" (Policy.label (Policy.lru 20));
  Alcotest.(check int) "six paper policies" 6 (List.length Policy.paper_policies);
  Alcotest.(check bool) "no-cache disabled" false (Policy.caches_enabled Policy.no_cache);
  Alcotest.(check bool) "lru enabled" true (Policy.caches_enabled (Policy.lru 10))

let policy_lru_positive () =
  Alcotest.check_raises "lru 0" (Invalid_argument "Policy.lru: capacity must be positive")
    (fun () -> ignore (Policy.lru 0))

let shortcut_basics () =
  let c : string Shortcut.t = Shortcut.create ~capacity:None () in
  Alcotest.(check bool) "fresh add" true
    (Shortcut.add c ~query_key:"q" ~target_key:"t1" ("q", "t1"));
  Alcotest.(check bool) "duplicate pair" false
    (Shortcut.add c ~query_key:"q" ~target_key:"t1" ("q", "t1"));
  Alcotest.(check bool) "same query, new target" true
    (Shortcut.add c ~query_key:"q" ~target_key:"t2" ("q", "t2"));
  Alcotest.(check int) "two entries" 2 (Shortcut.size c);
  Alcotest.(check int) "find returns both" 2 (List.length (Shortcut.find c ~query_key:"q"));
  Alcotest.(check int) "unrelated query empty" 0
    (List.length (Shortcut.find c ~query_key:"other"))

let shortcut_lru_eviction () =
  let c : int Shortcut.t = Shortcut.create ~capacity:(Some 2) () in
  ignore (Shortcut.add c ~query_key:"a" ~target_key:"1" (1, 1));
  ignore (Shortcut.add c ~query_key:"b" ~target_key:"2" (2, 2));
  Alcotest.(check int) "full" 2 (Shortcut.size c);
  (* Refresh a so that b is evicted. *)
  ignore (Shortcut.find c ~query_key:"a");
  ignore (Shortcut.add c ~query_key:"c" ~target_key:"3" (3, 3));
  Alcotest.(check int) "capacity respected" 2 (Shortcut.size c);
  Alcotest.(check int) "b evicted and unindexed" 0 (List.length (Shortcut.find c ~query_key:"b"));
  Alcotest.(check int) "a survived" 1 (List.length (Shortcut.find c ~query_key:"a"))

(* A find returns the query's targets in ascending key order and touches
   them in that order, so the highest target ends up most recent; an
   install lands in its group's sorted place whatever order it came in. *)
let shortcut_find_touches_in_target_order () =
  let c : string Shortcut.t = Shortcut.create ~capacity:None () in
  List.iter
    (fun t -> ignore (Shortcut.add c ~query_key:"q" ~target_key:t ("q", t)))
    [ "t3"; "t1"; "t5"; "t0"; "t4"; "t2" ];
  ignore (Shortcut.add c ~query_key:"other" ~target_key:"t9" ("other", "t9"));
  Alcotest.(check (list string)) "ascending targets"
    [ "t0"; "t1"; "t2"; "t3"; "t4"; "t5" ]
    (List.map fst (Shortcut.find c ~query_key:"q"));
  Alcotest.(check (list string)) "touched in target order"
    [ "t5"; "t4"; "t3"; "t2"; "t1"; "t0"; "t9" ]
    (List.map snd (Shortcut.entries c))

(* Evicting a query's only entry drops the query; an install under the
   same query then starts it afresh, and a purged leftover likewise. *)
let shortcut_evicts_last_of_query () =
  let clock = ref 0.0 in
  let c : string Shortcut.t =
    Shortcut.create ~clock:(fun () -> !clock) ~ttl:5.0 ~capacity:(Some 1) ()
  in
  ignore (Shortcut.add c ~query_key:"a" ~target_key:"x" ("a", "x"));
  ignore (Shortcut.add c ~query_key:"b" ~target_key:"y" ("b", "y"));
  Alcotest.(check int) "a's last entry evicted" 0 (List.length (Shortcut.find c ~query_key:"a"));
  Alcotest.(check bool) "same query, new target, after its group's eviction" true
    (Shortcut.add c ~query_key:"b" ~target_key:"z" ("b", "z"));
  Alcotest.(check (list string)) "only the new target" [ "z" ]
    (List.map fst (Shortcut.find c ~query_key:"b"));
  clock := 6.0;
  Alcotest.(check bool) "expired leftover reinstalled fresh" true
    (Shortcut.add c ~query_key:"b" ~target_key:"z" ("b", "z"));
  Alcotest.(check (list (pair string string))) "one live entry" [ ("b", "z") ]
    (Shortcut.entries c);
  Alcotest.(check int) "size" 1 (Shortcut.size c)

(* Per-node caches: a node's cache is built at its first install, and
   nodes without one all read the shared stand-in, which no install or
   clear reaches. *)
let shortcut_per_node () =
  let built = ref 0 in
  let caches : int Shortcut.per_node =
    Shortcut.per_node ~node_count:4 (fun () ->
        incr built;
        Shortcut.create ~capacity:(Some 2) ())
  in
  Alcotest.(check int) "only the stand-in built" 1 !built;
  Alcotest.(check bool) "install on node 2" true
    (Shortcut.add_at caches 2 ~query_key:"q" ~target_key:"t" (1, 2));
  Alcotest.(check bool) "refresh on node 2" false
    (Shortcut.add_at caches 2 ~query_key:"q" ~target_key:"t" (1, 2));
  Alcotest.(check int) "node 2's cache built once" 2 !built;
  Alcotest.(check int) "node 2 hits" 1 (List.length (Shortcut.find_at caches 2 ~query_key:"q"));
  Alcotest.(check int) "node 1 misses" 0 (List.length (Shortcut.find_at caches 1 ~query_key:"q"));
  Shortcut.clear_at caches 1;
  Alcotest.(check (array int)) "sizes" [| 0; 0; 1; 0 |] (Shortcut.sizes caches);
  Shortcut.clear_at caches 2;
  Alcotest.(check (array int)) "cleared" [| 0; 0; 0; 0 |] (Shortcut.sizes caches)

(* The query table, the index from a query to its group of entries, agrees
   with the recency list that eviction walks. *)
let shortcut_secondary_index_consistent =
  QCheck.Test.make ~name:"shortcut secondary index stays consistent" ~count:200
    QCheck.(pair (int_range 1 4) (small_list (pair (int_range 0 5) (int_range 0 5))))
    (fun (capacity, pairs) ->
      let c : (int * int) Shortcut.t = Shortcut.create ~capacity:(Some capacity) () in
      List.iter
        (fun (q, t) ->
          ignore
            (Shortcut.add c ~query_key:(string_of_int q) ~target_key:(string_of_int t)
               ((q, t), (q, t))))
        pairs;
      (* Every entry reachable through find is present in entries, and
         totals agree. *)
      let total =
        List.fold_left
          (fun acc q -> acc + List.length (Shortcut.find c ~query_key:(string_of_int q)))
          0 [ 0; 1; 2; 3; 4; 5 ]
      in
      total = Shortcut.size c && Shortcut.size c <= capacity)

(* Model-based check of the soft-state cache: every step runs against the
   real cache (with a finite TTL on a stepped clock) and against a pure
   model — an association list in recency order, most recent first, each
   entry carrying its pair and expiry — and every observable must agree:
   step results, size, entries and the five cache counters. *)

type step =
  | Add of string * string * int
  | Find of string
  | Clear
  | Advance of float

let show_step = function
  | Add (q, t, v) -> Printf.sprintf "add %s/%s %d" q t v
  | Find q -> "find " ^ q
  | Clear -> "clear"
  | Advance dt -> Printf.sprintf "advance %g" dt

type model_entry = { key : string * string; pair : string * string; expires : float }

type model = {
  mutable recency : model_entry list;  (** most recent first *)
  mutable now : float;
  mutable hits : int;
  mutable misses : int;
  mutable installs : int;
  mutable evictions : int;
  mutable expirations : int;
}

let model_remove m key = m.recency <- List.filter (fun e -> e.key <> key) m.recency

(* A find's touch plus lazy purge: a present entry moves to the front, or
   is dropped and counted as an expiration if its TTL ran out. *)
let model_live_find m key =
  match List.find_opt (fun e -> e.key = key) m.recency with
  | None -> None
  | Some e ->
      model_remove m key;
      if e.expires <= m.now then begin
        m.expirations <- m.expirations + 1;
        None
      end
      else begin
        m.recency <- e :: m.recency;
        Some e
      end

let model_count m ~hit = if hit then m.hits <- m.hits + 1 else m.misses <- m.misses + 1

(* The observable outcome of one step, compared between cache and model. *)
type outcome =
  | Added of bool
  | Found of (string * (string * string)) list
  | Unit

let model_step m ~capacity ~ttl = function
  | Add (q, t, v) ->
      let key = (q, t) in
      (match List.find_opt (fun e -> e.key = key) m.recency with
      | Some e when e.expires <= m.now ->
          model_remove m key;
          m.expirations <- m.expirations + 1
      | Some _ | None -> ());
      let full =
        match capacity with Some c -> List.length m.recency >= c | None -> false
      in
      let fresh = { key; pair = (q, string_of_int v); expires = m.now +. ttl } in
      if List.exists (fun e -> e.key = key) m.recency then begin
        model_remove m key;
        m.recency <- fresh :: m.recency;
        Added false
      end
      else begin
        if full then begin
          m.recency <- List.filteri (fun i _ -> i < List.length m.recency - 1) m.recency;
          m.evictions <- m.evictions + 1
        end;
        m.recency <- fresh :: m.recency;
        m.installs <- m.installs + 1;
        Added true
      end
  | Find q ->
      let targets =
        List.sort_uniq String.compare
          (List.filter_map (fun e -> if fst e.key = q then Some (snd e.key) else None) m.recency)
      in
      let found =
        List.filter_map
          (fun t -> Option.map (fun e -> (t, e.pair)) (model_live_find m (q, t)))
          targets
      in
      model_count m ~hit:(found <> []);
      Found found
  | Clear ->
      m.recency <- [];
      Unit
  | Advance dt ->
      m.now <- m.now +. dt;
      Unit

let cache_step c clock = function
  | Add (q, t, v) -> Added (Shortcut.add c ~query_key:q ~target_key:t (q, string_of_int v))
  | Find q -> Found (Shortcut.find c ~query_key:q)
  | Clear ->
      Shortcut.clear c;
      Unit
  | Advance dt ->
      clock := !clock +. dt;
      Unit

let cache_counters registry =
  let snap = Obs.Metrics.snapshot registry in
  List.map
    (fun name -> Obs.Metrics.counter_total snap ("p2pindex_cache_" ^ name ^ "_total"))
    [ "hits"; "misses"; "installs"; "evictions"; "expirations" ]

let model_counters m = [ m.hits; m.misses; m.installs; m.evictions; m.expirations ]

(* Up to six targets a query, drawn in any order, so installs arrive out
   of sorted order and a find touches several entries. *)
let gen_step =
  let open QCheck.Gen in
  let query = oneofl [ "a"; "b"; "c" ] and target = oneofl [ "u"; "z"; "w"; "x"; "v"; "y" ] in
  frequency
    [
      (4, map3 (fun q t v -> Add (q, t, v)) query target (int_range 0 3));
      (3, map (fun q -> Find q) query);
      (1, return Clear);
      (3, map (fun dt -> Advance dt) (oneofl [ 0.5; 1.0; 2.0 ]));
    ]

let shortcut_matches_model =
  QCheck.Test.make ~name:"shortcut cache matches a recency-list model" ~count:500
    (QCheck.make
       ~print:(fun (capacity, ttl, steps) ->
         Printf.sprintf "capacity %s, ttl %g: %s"
           (match capacity with Some c -> string_of_int c | None -> "unbounded")
           ttl
           (String.concat "; " (List.map show_step steps)))
       QCheck.Gen.(
         triple
           (frequency [ (4, map Option.some (int_range 1 8)); (1, return None) ])
           (oneofl [ 1.0; 2.5; 4.0 ])
           (list_size (int_range 0 60) gen_step)))
    (fun (capacity, ttl, steps) ->
      let registry = Obs.Metrics.create () in
      let clock = ref 0.0 in
      let c : string Shortcut.t =
        Shortcut.create ~instruments:(Shortcut.instruments registry)
          ~clock:(fun () -> !clock) ~ttl ~capacity ()
      in
      let m =
        {
          recency = [];
          now = 0.0;
          hits = 0;
          misses = 0;
          installs = 0;
          evictions = 0;
          expirations = 0;
        }
      in
      List.for_all
        (fun step ->
          let got = cache_step c clock step in
          let want = model_step m ~capacity ~ttl step in
          let model_entries =
            List.filter_map
              (fun e -> if e.expires <= m.now then None else Some e.pair)
              m.recency
          in
          got = want
          && Shortcut.size c = List.length m.recency
          && Shortcut.entries c = model_entries
          && cache_counters registry = model_counters m
          || QCheck.Test.fail_reportf "diverged after %s" (show_step step))
        steps)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "cache:lru",
      [
        Alcotest.test_case "basics" `Quick lru_basic;
        Alcotest.test_case "eviction order" `Quick lru_eviction_order;
        Alcotest.test_case "peek does not touch" `Quick lru_peek_does_not_touch;
        Alcotest.test_case "overwrite refreshes" `Quick lru_overwrite_refreshes;
        Alcotest.test_case "evictions counted" `Quick lru_evictions_counted;
        Alcotest.test_case "expiry and clear" `Quick lru_expiry_and_clear;
        Alcotest.test_case "entries order" `Quick lru_entries_mru_order;
        Alcotest.test_case "zero capacity rejected" `Quick lru_zero_capacity_rejected;
      ]
      @ qcheck [ lru_matches_model ] );
    ( "cache:policy",
      [
        Alcotest.test_case "labels and enablement" `Quick policy_labels;
        Alcotest.test_case "lru capacity positive" `Quick policy_lru_positive;
      ] );
    ( "cache:shortcut",
      [
        Alcotest.test_case "basics" `Quick shortcut_basics;
        Alcotest.test_case "LRU eviction" `Quick shortcut_lru_eviction;
        Alcotest.test_case "find touches in target order" `Quick
          shortcut_find_touches_in_target_order;
        Alcotest.test_case "evicting a query's last entry" `Quick shortcut_evicts_last_of_query;
        Alcotest.test_case "per-node caches on first install" `Quick shortcut_per_node;
      ]
      @ qcheck [ shortcut_secondary_index_consistent; shortcut_matches_model ] );
  ]
