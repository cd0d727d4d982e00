(* The replicated store in lockstep with a reference model.  The model
   keeps each node's states in an association list from key to state —
   the node-major layout the store's contract is written in — and
   replays every operation of a generated schedule by the contract:
   writes reach the live replicas and bump the coordinator's dot,
   removes leave tombstones and collect a key nothing holds any more,
   quorum reads merge by version and repair what diverged, repair
   re-homes lost keys, and anti-entropy compares replica-set ranges key
   by key.  After every step each observable of the store must match the
   model's. *)

module Key = Hashing.Key
module Version = Storage.Version
module Store = Storage.Replicated_store
module Anti_entropy = Storage.Anti_entropy

(* ------------------------------------------------------------------ *)
(* The model. *)

(* One node's state of one key: values newest first (a value's length is
   its rendering's), the values removed here, and the version. *)
type state = { mutable entries : string list; mutable tombs : string list; mutable version : Version.t }

type model = {
  resolver : Dht.Resolver.t;
  replication : int;
  alive : bool array;
  nodes : (Key.t * state) list array;
  mutable registered : Key.t list;
  mutable acks : int;  (** Acknowledgements recorded, summed. *)
}

let model ~resolver ~replication ~nodes =
  {
    resolver;
    replication;
    alive = Array.make nodes true;
    nodes = Array.make nodes [];
    registered = [];
    acks = 0;
  }

let replicas m key = Dht.Resolver.replicas m.resolver key m.replication
let state_of m node key = List.assoc_opt key m.nodes.(node)

let get_state m node key =
  match state_of m node key with
  | Some st -> st
  | None ->
      let st = { entries = []; tombs = []; version = Version.zero } in
      m.nodes.(node) <- (key, st) :: m.nodes.(node);
      st

let registered m key = List.exists (Key.equal key) m.registered
let register m key = if not (registered m key) then m.registered <- key :: m.registered
let first_live m nodes = List.find_opt (fun n -> m.alive.(n)) nodes
let version_of m node key = match state_of m node key with Some st -> st.version | None -> Version.zero

let record m ~acks ~writes = m.acks <- m.acks + (acks * writes)

let model_insert m ~key ~writes ~refresh values =
  let nodes = replicas m key in
  let live = List.filter (fun n -> m.alive.(n)) nodes in
  let vv =
    match live with
    | [] -> Version.zero
    | c :: _ -> Version.bump_by (version_of m c key) ~actor:c writes
  in
  let held = ref [] in
  List.iter
    (fun node ->
      let st = get_state m node key in
      (match (st.entries, st.tombs) with
      | [], [] -> st.entries <- values
      | _ ->
          st.tombs <- List.filter (fun tv -> not (List.mem tv values)) st.tombs;
          held := st :: !held);
      st.version <- Version.merge st.version vv)
    live;
  record m ~acks:(List.length live) ~writes;
  (* Oldest value first, as the writes that stand for the call. *)
  (* Without refresh every write installs its own entry. *)
  let holds st v = refresh && List.mem v st.entries in
  let fresh =
    List.filter
      (fun v ->
        let known = List.exists (fun st -> holds st v) !held in
        List.iter (fun st -> if not (holds st v) then st.entries <- v :: st.entries) !held;
        not known)
      (List.rev values)
  in
  let fresh = if !held = [] then values else List.rev fresh in
  if fresh <> [] then register m key;
  fresh

let model_remove m ~key pred =
  let nodes = replicas m key in
  let acks = List.length (List.filter (fun n -> m.alive.(n)) nodes) in
  match first_live m nodes with
  | None -> 0
  | Some _ when not (registered m key) ->
      record m ~acks ~writes:1;
      0
  | Some c ->
      let vv = Version.bump (version_of m c key) ~actor:c in
      let removed =
        List.fold_left
          (fun worst node ->
            if not m.alive.(node) then worst
            else begin
              let st = get_state m node key in
              let kept, gone = List.partition (fun v -> not (pred v)) st.entries in
              st.entries <- kept;
              List.iter (fun v -> if not (List.mem v st.tombs) then st.tombs <- st.tombs @ [ v ]) gone;
              st.version <- Version.merge st.version vv;
              max worst (List.length gone)
            end)
          0 nodes
      in
      record m ~acks ~writes:1;
      let held node = match state_of m node key with Some st -> st.entries <> [] | None -> false in
      if not (List.exists held nodes) then begin
        List.iter
          (fun node -> m.nodes.(node) <- List.filter (fun (k, _) -> not (Key.equal k key)) m.nodes.(node))
          nodes;
        m.registered <- List.filter (fun k -> not (Key.equal k key)) m.registered
      end;
      removed

(* A state as a value: merging and comparing never mutate. *)
type view = { v_entries : string list; v_tombs : string list; v_version : Version.t }

let view = function
  | Some st -> { v_entries = st.entries; v_tombs = st.tombs; v_version = st.version }
  | None -> { v_entries = []; v_tombs = []; v_version = Version.zero }

let union a b ~version =
  let tombs = a.v_tombs @ List.filter (fun v -> not (List.mem v a.v_tombs)) b.v_tombs in
  let entries = a.v_entries @ List.filter (fun v -> not (List.mem v a.v_entries)) b.v_entries in
  { v_entries = List.filter (fun v -> not (List.mem v tombs)) entries; v_tombs = tombs; v_version = version }

let agree a b = a.v_tombs = [] && b.v_tombs = [] && a.v_entries = b.v_entries

let merge a b =
  match Version.compare a.v_version b.v_version with
  | Version.Dominates -> a
  | Version.Dominated -> b
  | Version.Eq -> if agree a b then a else union a b ~version:a.v_version
  | Version.Concurrent ->
      let version = Version.merge a.v_version b.v_version in
      if agree a b then { a with v_version = version } else union a b ~version

let same a b =
  Version.equal a.v_version b.v_version && a.v_entries = b.v_entries && a.v_tombs = b.v_tombs

let model_quorum_read m ~key ~nodes =
  let states =
    List.filter_map (fun n -> if m.alive.(n) then Some (n, view (state_of m n key)) else None) nodes
  in
  match states with
  | [] -> ([], Version.zero, [])
  | (_, first) :: rest ->
      let merged = List.fold_left (fun acc (_, st) -> merge acc st) first rest in
      let repairs =
        List.filter_map
          (fun (node, st) ->
            if same st merged then None
            else begin
              let gained = List.filter (fun v -> not (List.mem v st.v_entries)) merged.v_entries in
              let target = get_state m node key in
              target.entries <- merged.v_entries;
              target.tombs <- merged.v_tombs;
              target.version <- merged.v_version;
              Some (node, gained)
            end)
          states
      in
      (merged.v_entries, merged.v_version, repairs)

let sorted_registered m = List.sort Key.compare m.registered

let model_repair m =
  let restored = ref [] in
  List.iter
    (fun key ->
      let nodes = replicas m key in
      let holds n = m.alive.(n) && (view (state_of m n key)).v_entries <> [] in
      match List.find_opt holds nodes with
      | None -> ()
      | Some source ->
          let src = view (state_of m source key) in
          List.iter
            (fun node ->
              if node <> source && m.alive.(node) && (view (state_of m node key)).v_entries = [] then begin
                let newer =
                  match state_of m node key with
                  | None -> false
                  | Some st -> Version.compare st.version src.v_version = Version.Dominates
                in
                if not newer then begin
                  let st = get_state m node key in
                  st.entries <- src.v_entries;
                  st.version <- Version.merge st.version src.v_version;
                  st.tombs <- src.v_tombs;
                  List.iter (fun v -> restored := (node, v) :: !restored) src.v_entries
                end
              end)
            nodes)
    (sorted_registered m);
  List.rev !restored

let bytes values = List.fold_left (fun n v -> n + String.length v) 0 values

let model_anti_entropy m =
  let digest = 2 * (48 + 20) in
  let ranges =
    List.stable_sort
      (fun (a, _) (b, _) -> List.compare Int.compare a b)
      (List.map (fun key -> (replicas m key, key)) (sorted_registered m))
  in
  let rec split = function
    | [] -> []
    | (set, key) :: rest ->
        let same, others = List.partition (fun (s, _) -> s = set) rest in
        (set, key :: List.map snd same) :: split others
  in
  let s =
    ref
      {
        Anti_entropy.exchanges = 0;
        digest_matches = 0;
        digest_bytes = 0;
        keys_shipped = 0;
        entries_shipped = 0;
        shipped_bytes = 0;
        full_state_bytes = 0;
      }
  in
  List.iter
    (fun (set, keys) ->
      match List.filter (fun n -> m.alive.(n)) set with
      | coordinator :: (_ :: _ as peers) ->
          let matched = List.map (fun p -> (p, ref true)) peers in
          List.iter
            (fun key ->
              List.iter
                (fun peer ->
                  let a = state_of m coordinator key and b = state_of m peer key in
                  let held = function Some st -> bytes st.entries | None -> 0 in
                  let full = held a + held b in
                  let agree =
                    match (a, b) with
                    | None, None -> true
                    | Some _, None | None, Some _ -> false
                    | Some x, Some y -> same (view (Some x)) (view (Some y))
                  in
                  let shipped =
                    if agree then []
                    else begin
                      (List.assoc peer matched) := false;
                      let _, _, repairs = model_quorum_read m ~key ~nodes:[ coordinator; peer ] in
                      repairs
                    end
                  in
                  s :=
                    {
                      !s with
                      full_state_bytes = !s.full_state_bytes + full;
                      keys_shipped = (!s.keys_shipped + if agree then 0 else 1);
                      entries_shipped =
                        !s.entries_shipped
                        + List.fold_left (fun n (_, g) -> n + List.length g) 0 shipped;
                      shipped_bytes =
                        !s.shipped_bytes + List.fold_left (fun n (_, g) -> n + bytes g) 0 shipped;
                    })
                peers)
            keys;
          let n = List.length peers in
          s :=
            {
              !s with
              exchanges = !s.exchanges + n;
              digest_bytes = !s.digest_bytes + (n * digest);
              digest_matches =
                !s.digest_matches + List.length (List.filter (fun (_, ok) -> !ok) matched);
            }
      | [] | [ _ ] -> ())
    (split ranges);
  !s

(* ------------------------------------------------------------------ *)
(* Schedules. *)

type op =
  | Insert of { key : int; values : string list; refresh : bool; extra : int }
  | Remove of { key : int; value : string option }
  | Fail of int
  | Revive of int
  | Drop of int
  | Quorum_read of { key : int; positions : int list }
  | Sync of { key : int; a : int; b : int }
  | Repair
  | Anti_entropy

let keys = Array.init 6 (fun i -> Key.of_string (Printf.sprintf "model-key-%d" i))
let values = [| "a"; "bb"; "ccc"; "dddd"; "eeeee" |]

let show_op = function
  | Insert { key; values; refresh; extra } ->
      Printf.sprintf "insert k%d [%s]%s+%d" key (String.concat ";" values)
        (if refresh then " refresh" else "")
        extra
  | Remove { key; value } -> Printf.sprintf "remove k%d %s" key (Option.value value ~default:"*")
  | Fail n -> Printf.sprintf "fail %d" n
  | Revive n -> Printf.sprintf "revive %d" n
  | Drop n -> Printf.sprintf "drop %d" n
  | Quorum_read { key; positions } ->
      Printf.sprintf "quorum k%d [%s]" key (String.concat ";" (List.map string_of_int positions))
  | Sync { key; a; b } -> Printf.sprintf "sync k%d %d %d" key a b
  | Repair -> "repair"
  | Anti_entropy -> "anti-entropy"

let gen_op ~nodes =
  let open QCheck.Gen in
  let key = int_bound (Array.length keys - 1) and node = int_bound (nodes - 1) in
  let value = map (Array.get values) (int_bound (Array.length values - 1)) in
  frequency
    [
      ( 6,
        map
          (fun (key, vs, refresh, extra) ->
            let values = List.sort_uniq compare vs in
            Insert { key; values; refresh; extra = (if refresh then extra else 0) })
          (quad key (list_size (int_range 1 3) value) bool (int_bound 2)) );
      (2, map2 (fun key value -> Remove { key; value }) key (opt value));
      (2, map (fun n -> Fail n) node);
      (2, map (fun n -> Revive n) node);
      (1, map (fun n -> Drop n) node);
      ( 2,
        map2
          (fun key positions -> Quorum_read { key; positions = List.sort_uniq compare positions })
          key
          (list_size (int_range 1 3) (int_bound 2)) );
      (1, map3 (fun key a b -> Sync { key; a; b }) key (int_bound 2) (int_bound 2));
      (1, return Repair);
      (1, return Anti_entropy);
    ]

type case = { replication : int; nodes : int; ops : op list }

let gen_case =
  let open QCheck.Gen in
  int_range 1 3 >>= fun replication ->
  int_range 8 16 >>= fun nodes ->
  map (fun ops -> { replication; nodes; ops }) (list_size (int_range 1 40) (gen_op ~nodes))

let print_case c =
  Printf.sprintf "replication %d, %d nodes:\n  %s" c.replication c.nodes
    (String.concat "\n  " (List.map show_op c.ops))

(* ------------------------------------------------------------------ *)
(* Lockstep. *)

exception Diverged of string

let check what pp expected actual =
  if expected <> actual then
    raise (Diverged (Printf.sprintf "%s: model %s, store %s" what (pp expected) (pp actual)))

let pp_list pp l = "[" ^ String.concat ";" (List.map pp l) ^ "]"
let pp_ints = pp_list string_of_int
let pp_strings = pp_list Fun.id
let pp_repairs = pp_list (fun (n, g) -> Printf.sprintf "%d:%s" n (pp_strings g))

let check_version what expected actual =
  if not (Version.equal expected actual) then
    raise
      (Diverged
         (Printf.sprintf "%s: model %s, store %s" what (Version.to_string expected)
            (Version.to_string actual)))

let pp_stats (s : Anti_entropy.stats) =
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d" s.exchanges s.digest_matches s.digest_bytes s.keys_shipped
    s.entries_shipped s.shipped_bytes s.full_state_bytes

let observe m (store : string Store.t) ~acks =
  check "acknowledgements" string_of_int m.acks !acks;
  check "key_count" string_of_int (List.length m.registered) (Store.key_count store);
  check "sorted_keys" (pp_list Key.short_hex) (sorted_registered m) (Store.sorted_keys store);
  let per_node f = Array.to_list (Array.map f m.nodes) in
  check "keys_per_node" pp_ints
    (per_node (fun states -> List.length (List.filter (fun (_, st) -> st.entries <> []) states)))
    (Array.to_list (Store.keys_per_node store));
  check "entries_per_node" pp_ints
    (per_node (fun states -> List.fold_left (fun n (_, st) -> n + List.length st.entries) 0 states))
    (Array.to_list (Store.entries_per_node store));
  let totals =
    List.fold_left
      (fun (count, sum) key ->
        match first_live m (replicas m key) with
        | None -> (count, sum)
        | Some node ->
            let entries = (view (state_of m node key)).v_entries in
            (count + List.length entries, sum + bytes entries))
      (0, 0) m.registered
  in
  check "entry_totals" (fun (c, s) -> Printf.sprintf "%d/%d" c s) totals
    (Store.entry_totals store Store.entry_len);
  check "len_totals" (fun (c, s) -> Printf.sprintf "%d/%d" c s) totals (Store.len_totals store);
  (* Every state's kept count and length sum describe its entries. *)
  let slot_keys = Store.slot_keys store in
  Array.iteri
    (fun k slot ->
      for i = 0 to Store.slot_width slot - 1 do
        match Store.slot_state store slot i with
        | None -> ()
        | Some st ->
            let held = Store.state_entries st in
            let at = Printf.sprintf "kept totals %s at %d" (Key.short_hex slot_keys.(k)) (Store.slot_node slot i) in
            check at
              (fun (c, s) -> Printf.sprintf "%d/%d" c s)
              (List.length held, List.fold_left (fun n e -> n + Store.entry_len e) 0 held)
              (Store.state_count st, Store.state_lens st)
      done)
    (Store.slots store);
  Array.iter
    (fun key ->
      let name what = Printf.sprintf "%s %s" what (Key.short_hex key) in
      let lookup =
        match first_live m (replicas m key) with
        | None -> []
        | Some node -> (view (state_of m node key)).v_entries
      in
      check (name "lookup") pp_strings lookup (Store.lookup store key);
      Array.iteri
        (fun node _ ->
          let at what = Printf.sprintf "%s at %d" (name what) node in
          let expected = if m.alive.(node) then (view (state_of m node key)).v_entries else [] in
          check (at "entries_at") pp_strings expected
            (List.map Store.entry_value (Store.entries_at store ~node key));
          check_version (at "version_at") (version_of m node key) (Store.version_at store ~node key))
        m.nodes)
    keys

let entries vs = List.map (fun v -> Store.make_entry ~expires_at:infinity ~len:(String.length v) v) vs

let step m store op =
  let key_of i = keys.(i) in
  let position key i = List.nth_opt (replicas m key) i in
  match op with
  | Insert { key; values; refresh; extra } ->
      let key = key_of key in
      let writes = List.length values + extra in
      let equal = if refresh then Some String.equal else None in
      let fresh, _ =
        Store.insert_entries ~equal store ~key ~writes ~floor:infinity ~count:(List.length values)
          ~lens:(bytes values) (entries values)
      in
      check "insert fresh" pp_strings
        (model_insert m ~key ~writes ~refresh values)
        (List.map Store.entry_value fresh)
  | Remove { key; value } ->
      let key = key_of key in
      let pred v = match value with Some x -> String.equal v x | None -> true in
      check "remove count" string_of_int (model_remove m ~key pred) (Store.remove store ~key pred)
  | Fail n ->
      m.alive.(n) <- false;
      Store.fail_node store n
  | Revive n ->
      m.alive.(n) <- true;
      Store.revive_node store n
  | Drop n ->
      m.nodes.(n) <- [];
      Store.drop_state store n
  | Quorum_read { key; positions } ->
      let key = key_of key in
      let nodes = List.filter_map (position key) positions in
      let values, version, repairs = model_quorum_read m ~key ~nodes in
      let values', version', repairs' = Store.quorum_read store ~key ~nodes in
      check "quorum values" pp_strings values values';
      check_version "quorum version" version version';
      check "quorum repairs" pp_repairs repairs
        (List.map (fun (n, g) -> (n, List.map Store.entry_value g)) repairs')
  | Sync { key; a; b } ->
      let key = key_of key in
      let nodes = List.filter_map (position key) (List.sort_uniq compare [ a; b ]) in
      let _, _, repairs = model_quorum_read m ~key ~nodes in
      check "sync repairs" pp_repairs repairs
        (List.map (fun (n, g) -> (n, List.map Store.entry_value g)) (Store.sync_key store ~key ~nodes))
  | Repair ->
      let restored = ref [] in
      let count =
        Store.repair store ~on_restore:(fun ~node e ->
            restored := (node, Store.entry_value e) :: !restored)
      in
      let expected = model_repair m in
      check "repair" (pp_list (fun (n, v) -> Printf.sprintf "%d:%s" n v)) expected (List.rev !restored);
      check "repair count" string_of_int (List.length expected) count
  | Anti_entropy ->
      check "anti-entropy" pp_stats (model_anti_entropy m)
        (Anti_entropy.run store ~entry_bytes:Store.entry_len ())

let resolver_of c = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:23L ~node_count:c.nodes ())

let run_case c =
  let resolver = resolver_of c in
  let acks = ref 0 in
  let store : string Store.t =
    Store.create ~resolver ~replication:c.replication
      ~on_write_acks:(fun ~acks:n -> acks := !acks + n)
      ()
  in
  let m = model ~resolver ~replication:c.replication ~nodes:c.nodes in
  let rec go i = function
    | [] -> Ok ()
    | op :: ops -> (
        match
          step m store op;
          observe m store ~acks
        with
        | () -> go (i + 1) ops
        | exception Diverged msg ->
            Error (Printf.sprintf "after step %d (%s): %s" i (show_op op) msg))
  in
  go 0 c.ops

let lockstep =
  QCheck.Test.make ~name:"store matches the per-node model" ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun c -> match run_case c with Ok () -> true | Error msg -> QCheck.Test.fail_report msg)

(* A coordinator whose version carries another node's dot passes that
   dot on with its write: a replica that missed the other node's write
   receives it.  Generated schedules seldom reach this, so it is
   spelt out: the second write's coordinator is down with the third
   replica, the first replica learns that write by a sync, then
   coordinates a write the third replica sees. *)
let foreign_dot_schedule () =
  let c = { replication = 3; nodes = 8; ops = [] } in
  let replicas =
    Store.replica_nodes (Store.create ~resolver:(resolver_of c) ~replication:3 ()) keys.(0)
  in
  let first = List.nth replicas 0 and third = List.nth replicas 2 in
  let write values = Insert { key = 0; values; refresh = false; extra = 0 } in
  let ops =
    [
      write [ "a" ];
      Fail first;
      Fail third;
      write [ "bb" ];
      Revive first;
      Revive third;
      Sync { key = 0; a = 0; b = 1 };
      write [ "ccc" ];
    ]
  in
  match run_case { c with ops } with Ok () -> () | Error msg -> Alcotest.fail msg

(* Expiry prunes states in place: every state's kept count and length
   sum must still describe its entries after reads, totals and
   anti-entropy meet expired soft state.  The model above writes hard
   state only, so this schedule, with a clock and TTL'd writes, checks
   what pruning leaves. *)
type expiry_op =
  | Write of { key : int; values : string list; ttl : float; refresh : bool }
  | Advance of float
  | Read of int
  | Totals
  | Exchange

let show_expiry_op = function
  | Write { key; values; ttl; refresh } ->
      Printf.sprintf "write k%d [%s] ttl %g%s" key (String.concat ";" values) ttl
        (if refresh then " refresh" else "")
  | Advance dt -> Printf.sprintf "advance %g" dt
  | Read key -> Printf.sprintf "read k%d" key
  | Totals -> "totals"
  | Exchange -> "anti-entropy"

let gen_expiry_op =
  let open QCheck.Gen in
  let key = int_range 0 (Array.length keys - 1) in
  frequency
    [
      ( 4,
        map4
          (fun key values ttl refresh -> Write { key; values; ttl; refresh })
          key
          (list_size (int_range 1 3) (oneofa values))
          (oneofl [ 5.0; 15.0; infinity ])
          bool );
      (2, map (fun dt -> Advance dt) (oneofl [ 4.0; 10.0 ]));
      (2, map (fun key -> Read key) key);
      (1, return Totals);
      (1, return Exchange);
    ]

let kept_totals_after_expiry =
  QCheck.Test.make ~name:"kept totals hold after expiry prunes" ~count:200
    (QCheck.make
       ~print:(fun (r, ops) ->
         Printf.sprintf "replication %d: %s" r (String.concat ", " (List.map show_expiry_op ops)))
       QCheck.Gen.(pair (int_range 1 3) (list_size (int_range 1 40) gen_expiry_op)))
    (fun (replication, ops) ->
      let now = ref 0.0 in
      let resolver = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:23L ~node_count:8 ()) in
      let store : string Store.t =
        Store.create ~resolver ~replication ~clock:(fun () -> !now) ()
      in
      let kept_totals_hold () =
        Array.iter
          (fun slot ->
            for i = 0 to Store.slot_width slot - 1 do
              match Store.slot_state store slot i with
              | None -> ()
              | Some st ->
                  let held = Store.state_entries st in
                  check "kept totals"
                    (fun (c, s) -> Printf.sprintf "%d/%d" c s)
                    (List.length held, List.fold_left (fun n e -> n + Store.entry_len e) 0 held)
                    (Store.state_count st, Store.state_lens st)
            done)
          (Store.slots store)
      in
      List.iteri
        (fun i op ->
          try
            (match op with
            | Write { key; values; ttl; refresh } ->
                let values = List.sort_uniq String.compare values in
                let expires_at = !now +. ttl in
                ignore
                  (Store.insert_entries
                     ~equal:(if refresh then Some String.equal else None)
                     store ~key:keys.(key) ~writes:(List.length values) ~floor:expires_at
                     ~count:(List.length values) ~lens:(bytes values)
                     (List.map
                        (fun v -> Store.make_entry ~expires_at ~len:(String.length v) v)
                        values))
            | Advance dt -> now := !now +. dt
            | Read key -> ignore (Store.lookup store keys.(key))
            | Totals ->
                check "len_totals"
                  (fun (c, s) -> Printf.sprintf "%d/%d" c s)
                  (Store.entry_totals store Store.entry_len)
                  (Store.len_totals store)
            | Exchange -> ignore (Anti_entropy.run store ~entry_bytes:Store.entry_len ()));
            kept_totals_hold ()
          with Diverged msg ->
            QCheck.Test.fail_reportf "after step %d (%s): %s" i (show_expiry_op op) msg)
        ops;
      true)

let suite =
  [
    ( "storage:model",
      [
        QCheck_alcotest.to_alcotest lockstep;
        Alcotest.test_case "a coordinator's foreign dots reach every replica" `Quick
          foreign_dot_schedule;
        QCheck_alcotest.to_alcotest kept_totals_after_expiry;
      ] );
  ]
