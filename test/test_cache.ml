(* LRU, caching policies and per-node shortcut tables. *)

module Lru = Cache.Lru
module Policy = Cache.Policy
module Shortcut = Cache.Shortcut_cache

let lru_basic () =
  let l : (string, int) Lru.t = Lru.create () in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find l "a");
  Alcotest.(check (option int)) "find missing" None (Lru.find l "zzz");
  Alcotest.(check int) "length" 2 (Lru.length l);
  Alcotest.(check bool) "unbounded" true (Lru.capacity l = None)

let lru_eviction_order () =
  let l : (int, int) Lru.t = Lru.create ~capacity:3 () in
  Lru.add l 1 10;
  Lru.add l 2 20;
  Lru.add l 3 30;
  (* Touch 1 so that 2 becomes least recently used. *)
  ignore (Lru.find l 1);
  Lru.add l 4 40;
  Alcotest.(check bool) "2 evicted" false (Lru.mem l 2);
  Alcotest.(check bool) "1 survived (recently used)" true (Lru.mem l 1);
  Alcotest.(check bool) "3 survived" true (Lru.mem l 3);
  Alcotest.(check bool) "4 inserted" true (Lru.mem l 4);
  Alcotest.(check int) "at capacity" 3 (Lru.length l)

let lru_peek_does_not_touch () =
  let l : (int, int) Lru.t = Lru.create ~capacity:2 () in
  Lru.add l 1 10;
  Lru.add l 2 20;
  ignore (Lru.peek l 1);
  (* 1 is still least recently used, so it gets evicted. *)
  Lru.add l 3 30;
  Alcotest.(check bool) "peek did not refresh" false (Lru.mem l 1)

let lru_overwrite_refreshes () =
  let l : (int, int) Lru.t = Lru.create ~capacity:2 () in
  Lru.add l 1 10;
  Lru.add l 2 20;
  Lru.add l 1 11;
  Lru.add l 3 30;
  Alcotest.(check (option int)) "overwritten value" (Some 11) (Lru.peek l 1);
  Alcotest.(check bool) "2 evicted instead" false (Lru.mem l 2)

let lru_on_evict_hook () =
  let evicted = ref [] in
  let l : (int, int) Lru.t =
    Lru.create ~capacity:2 ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) ()
  in
  Lru.add l 1 10;
  Lru.add l 2 20;
  Lru.add l 3 30;
  Alcotest.(check (list (pair int int))) "hook fired for capacity eviction" [ (1, 10) ]
    !evicted;
  ignore (Lru.remove l 2);
  Alcotest.(check int) "hook not fired for remove" 1 (List.length !evicted)

let lru_remove_and_clear () =
  let l : (int, int) Lru.t = Lru.create () in
  Lru.add l 1 10;
  Alcotest.(check bool) "remove existing" true (Lru.remove l 1);
  Alcotest.(check bool) "remove missing" false (Lru.remove l 1);
  Lru.add l 2 20;
  Lru.clear l;
  Alcotest.(check bool) "cleared" true (Lru.is_empty l)

let lru_to_list_mru_order () =
  let l : (int, int) Lru.t = Lru.create () in
  Lru.add l 1 10;
  Lru.add l 2 20;
  Lru.add l 3 30;
  ignore (Lru.find l 1);
  Alcotest.(check (list (pair int int))) "MRU first" [ (1, 10); (3, 30); (2, 20) ]
    (Lru.to_list l)

let lru_zero_capacity_rejected () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Lru.create: capacity must be positive")
    (fun () -> ignore (Lru.create ~capacity:0 () : (int, int) Lru.t))

(* Model-based property: the LRU behaves like a naive list-based model. *)
let lru_matches_model =
  QCheck.Test.make ~name:"LRU matches reference model" ~count:300
    QCheck.(pair (int_range 1 5) (small_list (pair (int_range 0 9) bool)))
    (fun (capacity, ops) ->
      let l : (int, int) Lru.t = Lru.create ~capacity () in
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
            Lru.add l k k;
            model_add k k;
            true
          end
          else Lru.find l k = model_find k)
        ops
      && Lru.to_list l = !model)

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
  Alcotest.(check (option string)) "find_target exact" (Some "t1")
    (Shortcut.find_target c ~query_key:"q" ~target_key:"t1");
  Alcotest.(check (option string)) "find_target miss" None
    (Shortcut.find_target c ~query_key:"q" ~target_key:"t9");
  Alcotest.(check int) "unrelated query empty" 0
    (List.length (Shortcut.find c ~query_key:"other"))

let shortcut_lru_eviction () =
  let c : int Shortcut.t = Shortcut.create ~capacity:(Some 2) () in
  ignore (Shortcut.add c ~query_key:"a" ~target_key:"1" (1, 1));
  ignore (Shortcut.add c ~query_key:"b" ~target_key:"2" (2, 2));
  Alcotest.(check bool) "full" true (Shortcut.is_full c);
  (* Refresh a so that b is evicted. *)
  ignore (Shortcut.find c ~query_key:"a");
  ignore (Shortcut.add c ~query_key:"c" ~target_key:"3" (3, 3));
  Alcotest.(check int) "capacity respected" 2 (Shortcut.size c);
  Alcotest.(check int) "b evicted and unindexed" 0 (List.length (Shortcut.find c ~query_key:"b"));
  Alcotest.(check int) "a survived" 1 (List.length (Shortcut.find c ~query_key:"a"))

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
  | Find_target of string * string
  | Clear
  | Advance of float

let show_step = function
  | Add (q, t, v) -> Printf.sprintf "add %s/%s %d" q t v
  | Find q -> "find " ^ q
  | Find_target (q, t) -> Printf.sprintf "find_target %s/%s" q t
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

(* [Lru.find] semantics plus lazy purge: a present entry is touched, then
   dropped and counted as an expiration if its TTL ran out. *)
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
  | Found_target of string option
  | Unit

let model_step m ~capacity ~ttl = function
  | Add (q, t, v) ->
      let key = (q, t) in
      (match List.find_opt (fun e -> e.key = key) m.recency with
      | Some e when e.expires <= m.now ->
          model_remove m key;
          m.expirations <- m.expirations + 1
      | Some _ | None -> ());
      let fresh = { key; pair = (q, string_of_int v); expires = m.now +. ttl } in
      if List.exists (fun e -> e.key = key) m.recency then begin
        model_remove m key;
        m.recency <- fresh :: m.recency;
        Added false
      end
      else begin
        if List.length m.recency >= capacity then begin
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
  | Find_target (q, t) ->
      let found = Option.map (fun e -> snd e.pair) (model_live_find m (q, t)) in
      model_count m ~hit:(found <> None);
      Found_target found
  | Clear ->
      m.recency <- [];
      Unit
  | Advance dt ->
      m.now <- m.now +. dt;
      Unit

let cache_step c clock = function
  | Add (q, t, v) -> Added (Shortcut.add c ~query_key:q ~target_key:t (q, string_of_int v))
  | Find q -> Found (Shortcut.find c ~query_key:q)
  | Find_target (q, t) -> Found_target (Shortcut.find_target c ~query_key:q ~target_key:t)
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

let gen_step =
  let open QCheck.Gen in
  let query = oneofl [ "a"; "b"; "c" ] and target = oneofl [ "x"; "y"; "z" ] in
  frequency
    [
      (4, map3 (fun q t v -> Add (q, t, v)) query target (int_range 0 3));
      (3, map (fun q -> Find q) query);
      (3, map2 (fun q t -> Find_target (q, t)) query target);
      (1, return Clear);
      (3, map (fun dt -> Advance dt) (oneofl [ 0.5; 1.0; 2.0 ]));
    ]

let shortcut_matches_model =
  QCheck.Test.make ~name:"shortcut cache matches a recency-list model" ~count:500
    (QCheck.make
       ~print:(fun (capacity, ttl, steps) ->
         Printf.sprintf "capacity %d, ttl %g: %s" capacity ttl
           (String.concat "; " (List.map show_step steps)))
       QCheck.Gen.(
         triple (int_range 1 4) (oneofl [ 1.0; 2.5; 4.0 ]) (list_size (int_range 0 40) gen_step)))
    (fun (capacity, ttl, steps) ->
      let registry = Obs.Metrics.create () in
      let clock = ref 0.0 in
      let c : string Shortcut.t =
        Shortcut.create ~instruments:(Shortcut.instruments registry)
          ~clock:(fun () -> !clock) ~ttl ~capacity:(Some capacity) ()
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
        Alcotest.test_case "on_evict hook" `Quick lru_on_evict_hook;
        Alcotest.test_case "remove and clear" `Quick lru_remove_and_clear;
        Alcotest.test_case "to_list order" `Quick lru_to_list_mru_order;
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
      ]
      @ qcheck [ shortcut_secondary_index_consistent; shortcut_matches_model ] );
  ]
