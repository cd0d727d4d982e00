module Key = Hashing.Key

(* [len] is the length of the value's rendering, fixed by the writer when
   the entry is first written; clones copy it, so traffic is priced from
   it and never from a re-render.  Equal values render equally, so two
   entries whose lengths differ never hold equal values: every
   membership test below compares lengths before values. *)
type 'v entry = { value : 'v; len : int; mutable expires_at : float }

let entry_value e = e.value
let entry_len e = e.len
let entry_expires_at e = e.expires_at

(* One replica's view of a key: its live entries, the values removed
   here that other replicas may still hold (tombstones), and the dotted
   version vector ordering this state against the other replicas'.
   States persist after their last entry expires or is removed — the
   version history is what stops a stale rejoined replica from
   resurrecting a deletion — except when a remove finds the key gone
   from every replica, which garbage-collects the key outright.

   [floor] is a lower bound on the entries' expiries ([infinity] when
   there are none): a probe whose clock is still below it knows nothing
   has expired without walking the list.  Every assignment of [entries]
   keeps it a lower bound.  Tombstones and the floor change rarely, so
   they share one immutable record, and a state with neither — every
   state under hard state without removes — points at [unfenced]: the
   floor costs those states no memory. *)
type 'v fence = { tombs : 'v list; floor : float }

let unfenced = { tombs = []; floor = infinity }

let make_fence ~tombs ~floor =
  match tombs with
  | [] when floor = infinity -> unfenced
  | [] | _ :: _ -> { tombs; floor }

type 'v key_state = {
  mutable entries : 'v entry list;
  mutable version : Version.t;
  mutable fence : 'v fence;
}

let set_tombs st tombs = st.fence <- make_fence ~tombs ~floor:st.fence.floor
let set_floor st floor = st.fence <- make_fence ~tombs:st.fence.tombs ~floor
let lower_floor st expires_at = if expires_at < st.fence.floor then set_floor st expires_at

type 'v t = {
  resolver : Dht.Resolver.t;
  replication : int;
  read_quorum : int;
  write_quorum : int;
  liveness : Dht.Liveness.t;
  clock : unit -> float;
  tables : (Key.t, 'v key_state) Hashtbl.t array;
  directory : (Key.t, unit) Hashtbl.t; (* keys registered and not removed *)
  on_write_acks : (acks:int -> needed:int -> unit) option;
  scratch : Stdx.Int_buf.t; (* replica-set resolution buffer *)
}

let create ~resolver ~replication ?read_quorum ?write_quorum ?on_write_acks
    ?liveness ?(clock = fun () -> 0.0) () =
  if replication < 1 then
    invalid_arg "Replicated_store.create: need at least one replica";
  let read_quorum = Option.value ~default:1 read_quorum in
  let write_quorum = Option.value ~default:replication write_quorum in
  if read_quorum < 1 || read_quorum > replication then
    invalid_arg "Replicated_store.create: read_quorum outside [1, replication]";
  if write_quorum < 1 || write_quorum > replication then
    invalid_arg "Replicated_store.create: write_quorum outside [1, replication]";
  let n = Dht.Resolver.node_count resolver in
  let liveness =
    match liveness with
    | Some l ->
        if Dht.Liveness.node_count l <> n then
          invalid_arg "Replicated_store.create: liveness covers a different node count";
        l
    | None -> Dht.Liveness.create ~node_count:n
  in
  {
    resolver;
    replication;
    read_quorum;
    write_quorum;
    liveness;
    clock;
    (* Small initial tables: at million-node scale most replicas hold a
       handful of keys, and 64-bucket tables per node would dominate the
       heap before a single entry lands. *)
    tables = Array.init n (fun _ -> Hashtbl.create 8);
    directory = Hashtbl.create 1024;
    on_write_acks;
    scratch = Stdx.Int_buf.create ~capacity:(Stdlib.max 1 replication) ();
  }

let replication t = t.replication
let read_quorum t = t.read_quorum
let write_quorum t = t.write_quorum
let liveness t = t.liveness

let node_of t key = Dht.Resolver.responsible t.resolver key

let replica_nodes t key = Dht.Resolver.replicas t.resolver key t.replication

let[@hot] replica_buf t key =
  Dht.Resolver.replicas_into t.resolver key t.replication t.scratch;
  t.scratch

let[@hot] live_node_id t key =
  Dht.Liveness.first_live_buf t.liveness (replica_buf t key)

let live_node t key =
  match live_node_id t key with -1 -> None | node -> Some node

(* Walks over a replica set resolved into the scratch buffer, in
   placement order.  [f] must not resolve another key on this store:
   that would overwrite the buffer under the walk. *)

(* The first node satisfying [f], or -1. *)
let find_in buf f =
  let rec go i =
    if i = Stdx.Int_buf.length buf then -1
    else
      let node = Stdx.Int_buf.unsafe_get buf i in
      if f node then node else go (i + 1)
  in
  go 0

let fold_in buf f init =
  let acc = ref init in
  for i = 0 to Stdx.Int_buf.length buf - 1 do
    acc := f !acc (Stdx.Int_buf.unsafe_get buf i)
  done;
  !acc

let expired t entry = entry.expires_at <= t.clock ()

let state_at t ~node key = Hashtbl.find_opt t.tables.(node) key

let empty_state () = { entries = []; version = Version.zero; fence = unfenced }

let get_state table key =
  match Hashtbl.find_opt table key with
  | Some st -> st
  | None ->
      let st = empty_state () in
      Hashtbl.add table key st;
      st

let rec any_expired now = function
  | [] -> false
  | e :: rest -> e.expires_at <= now || any_expired now rest

let rec floor_of acc = function
  | [] -> acc
  | e :: rest -> floor_of (if e.expires_at < acc then e.expires_at else acc) rest

(* Drop the state's expired entries in place so tables do not
   accumulate dead soft state.  Below the floor nothing can have
   expired — always, with infinite TTLs — and the list is not walked. *)
let prune now st =
  if st.fence.floor <= now then begin
    if any_expired now st.entries then
      st.entries <- List.filter (fun e -> not (e.expires_at <= now)) st.entries;
    set_floor st (floor_of infinity st.entries)
  end

(* Unexpired entries under [key] in [table]; the held list itself when
   nothing has expired. *)
let live_entries t table key =
  match Hashtbl.find_opt table key with
  | None -> []
  | Some st ->
      prune (t.clock ()) st;
      st.entries

let values entries = List.map (fun e -> e.value) entries

let clone_entries entries = List.map (fun e -> { e with value = e.value }) entries

let version_at t ~node key =
  match state_at t ~node key with Some st -> st.version | None -> Version.zero

let live_merged_version t key =
  fold_in (replica_buf t key)
    (fun acc node ->
      if Dht.Liveness.alive t.liveness node then
        Version.merge acc (version_at t ~node key)
      else acc)
    Version.zero

let record_acks t ~acks =
  match t.on_write_acks with
  | None -> ()
  | Some f -> f ~acks ~needed:t.write_quorum

(* The version a write carries: the coordinator (first live replica)
   bumps its own dot past everything it has seen, so the write dominates
   every state it lands on — and is concurrent with states holding
   events the coordinator missed. *)
let write_version t ~coordinator key =
  Version.bump (version_at t ~node:coordinator key) ~actor:coordinator

(* [Version.merge cur vv], sharing [vv] when it already covers [cur] —
   the usual case, since [vv] is a fresh coordinator bump. *)
let merge_into cur vv =
  match Version.compare vv cur with
  | Version.Eq | Version.Dominates -> vv
  | Version.Dominated | Version.Concurrent -> Version.merge cur vv

(* Values are compared structurally; a value is taken to equal itself,
   which is the common case since replicas share the written value. *)
let same_value x y =
  (* lint: allow D3 — identity implies structural equality for stored values; the structural test follows *)
  x == y || x = y

(* Does [entries] hold an entry with [e]'s value? *)
let rec holds_value entries e =
  match entries with
  | [] -> false
  | e' :: rest -> (e'.len = e.len && same_value e'.value e.value) || holds_value rest e

(* Give the first entry [equal] to [e]'s value [e]'s expiry; false when
   there is none. *)
let rec refresh_first ~equal e = function
  | [] -> false
  | e' :: rest ->
      if e'.len = e.len && equal e'.value e.value then begin
        e'.expires_at <- e.expires_at;
        true
      end
      else refresh_first ~equal e rest

let make_entry ~expires_at ~len v = { value = v; len; expires_at }

(* Merge [entries] into the [held] states value by value, oldest first
   write first: on each state an entry [equal] to the value takes its
   expiry, or the state gains a copy.  Returns the entries no state
   held, newest first. *)
let rec merge_values ~equal held = function
  | [] -> []
  | e :: newer_first_rest ->
      let fresh = merge_values ~equal held newer_first_rest in
      let refresh_or_gain known st =
        let found =
          match equal with Some equal -> refresh_first ~equal e st.entries | None -> false
        in
        if not found then st.entries <- { e with value = e.value } :: st.entries;
        lower_floor st e.expires_at;
        found || known
      in
      if List.fold_left refresh_or_gain false held then fresh else e :: fresh

(* A write clears the tombstones its values match: under [equal] when
   one is given, structurally otherwise. *)
let clear_tombs ~equal st entries =
  match st.fence.tombs with
  | [] -> ()
  | tombs ->
      let matches tv e = match equal with Some equal -> equal tv e.value | None -> tv = e.value in
      set_tombs st (List.filter (fun tv -> not (List.exists (matches tv) entries)) tombs)

(* The store's one write.  Each live replica's state is looked up once
   (created when absent) and pruned.  An empty one — no entries, no
   tombstones — takes [entries] as they are: the list itself on the
   first live replica, clones elsewhere, since entries carry mutable
   expiries.  The other states merge value by value ({!merge_values}).
   Every live state merges the coordinator's dot, bumped [writes] times
   past the coordinator's own version. *)
let insert_entries ~equal t ~key ~writes entries =
  let now = t.clock () in
  let buf = replica_buf t key in
  let coordinator = Dht.Liveness.first_live_buf t.liveness buf in
  let vv = ref Version.zero and acks = ref 0 and held = ref [] in
  let fence = make_fence ~tombs:[] ~floor:(floor_of infinity entries) in
  for i = 0 to Stdx.Int_buf.length buf - 1 do
    let node = Stdx.Int_buf.unsafe_get buf i in
    if Dht.Liveness.alive t.liveness node then begin
      let st = get_state t.tables.(node) key in
      prune now st;
      if node = coordinator then vv := Version.bump_by st.version ~actor:node writes;
      (match (st.entries, st.fence.tombs) with
      | [], [] ->
          st.entries <- (if !acks = 0 then entries else clone_entries entries);
          if fence.floor < st.fence.floor then st.fence <- fence
      | _ :: _, _ | [], _ :: _ ->
          clear_tombs ~equal st entries;
          held := st :: !held);
      st.version <- merge_into st.version !vv;
      incr acks
    end
  done;
  for _ = 1 to writes do
    record_acks t ~acks:!acks
  done;
  let fresh = match !held with [] -> entries | held -> merge_values ~equal held entries in
  (match fresh with [] -> () | _ :: _ -> Hashtbl.replace t.directory key ());
  (fresh, buf)

let insert ?(expires_at = infinity) t ~key ~len v =
  ignore (insert_entries ~equal:None t ~key ~writes:1 [ make_entry ~expires_at ~len v ] : _ * _)

let insert_unique ?(expires_at = infinity) ~equal t ~key ~len v =
  match insert_entries ~equal:(Some equal) t ~key ~writes:1 [ make_entry ~expires_at ~len v ] with
  | [], _ -> false
  | _ :: _, _ -> true

let entries_at t ~node key =
  if Dht.Liveness.alive t.liveness node then live_entries t t.tables.(node) key
  else []

let lookup t key =
  match live_node_id t key with
  | -1 -> []
  | node -> values (live_entries t t.tables.(node) key)

let mem t key =
  find_in (replica_buf t key) (fun node ->
      Dht.Liveness.alive t.liveness node && live_entries t t.tables.(node) key <> [])
  >= 0

let remove t ~key pred =
  let replicas = replica_buf t key in
  let acks =
    fold_in replicas (fun n node -> if Dht.Liveness.alive t.liveness node then n + 1 else n) 0
  in
  match Dht.Liveness.first_live_buf t.liveness replicas with
  | -1 -> 0
  | _ when not (Hashtbl.mem t.directory key) ->
      (* Nothing registered, so no replica holds a state: the write only
         counts its acknowledgements. *)
      record_acks t ~acks;
      0
  | coordinator ->
      let vv = write_version t ~coordinator key in
      let removed =
        fold_in replicas
          (fun worst node ->
            if not (Dht.Liveness.alive t.liveness node) then worst
            else begin
              let table = t.tables.(node) in
              let entries = live_entries t table key in
              let st = get_state table key in
              let kept, gone = List.partition (fun e -> not (pred e.value)) entries in
              st.entries <- kept (* a sublist: the floor still bounds it *);
              List.iter
                (fun e ->
                  let tombs = st.fence.tombs in
                  if not (List.exists (fun tv -> tv = e.value) tombs) then
                    set_tombs st (tombs @ [ e.value ]))
                gone;
              st.version <- merge_into st.version vv;
              Stdlib.max worst (List.length gone)
            end)
          0
      in
      record_acks t ~acks;
      let held_anywhere =
        find_in replicas (fun node ->
            match state_at t ~node key with
            | Some st -> st.entries <> []
            | None -> false)
        >= 0
      in
      (* Nothing left on any replica, dead ones included: the tombstones
         have no stale copy to fence off, so the key can be collected
         outright — exactly the pre-quorum final state. *)
      if not held_anywhere then begin
        for i = 0 to Stdx.Int_buf.length replicas - 1 do
          Hashtbl.remove t.tables.(Stdx.Int_buf.unsafe_get replicas i) key
        done;
        Hashtbl.remove t.directory key
      end;
      removed

let remove_key t key = remove t ~key (fun _ -> true)

let check_node t node =
  if node < 0 || node >= Array.length t.tables then
    invalid_arg "Replicated_store: bad node index"

let fail_node t node =
  check_node t node;
  ignore (Dht.Liveness.fail t.liveness node)

let revive_node t node =
  check_node t node;
  ignore (Dht.Liveness.revive t.liveness node)

let alive t node =
  check_node t node;
  Dht.Liveness.alive t.liveness node

let drop_state t node =
  check_node t node;
  Hashtbl.reset t.tables.(node)

(* ------------------------------------------------------------------ *)
(* Reconciliation: the least upper bound of two replica states.  When
   one side's version dominates, its content wins wholesale; otherwise
   (equal versions over diverged content, or genuinely concurrent
   histories) entries are unioned and the union is fenced by the merged
   tombstone set, so a removal observed on either side sticks.

   A merged state may share its entry records with the states it came
   from: nothing is written back until a repair, which stores clones.
   When the two sides agree — the same values in the same order and no
   tombstones, what nearly every read sees — the union is the first
   side's entries, found in one pass. *)

let rec same_values xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys -> x.len = y.len && same_value x.value y.value && same_values xs ys
  | [], _ :: _ | _ :: _, [] -> false

let agree a b =
  match (a.fence.tombs, b.fence.tombs) with
  | [], [] -> same_values a.entries b.entries
  | _ :: _, _ | _, _ :: _ -> false

let union a b ~version =
  let a_tombs = a.fence.tombs in
  let tombs =
    a_tombs @ List.filter (fun v -> not (List.exists (fun tv -> tv = v) a_tombs)) b.fence.tombs
  in
  let entries = a.entries @ List.filter (fun e -> not (holds_value a.entries e)) b.entries in
  let entries =
    match tombs with
    | [] -> entries
    | _ :: _ -> List.filter (fun e -> not (List.exists (fun tv -> tv = e.value) tombs)) entries
  in
  { entries; version; fence = make_fence ~tombs ~floor:(floor_of infinity entries) }

let merge_states a b =
  match Version.compare a.version b.version with
  | Version.Dominates -> a
  | Version.Dominated -> b
  | Version.Eq -> if agree a b then a else union a b ~version:a.version
  | Version.Concurrent ->
      let version = Version.merge a.version b.version in
      if agree a b then { a with version } else union a b ~version

let rec same_entries xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys ->
      x.len = y.len
      && x.expires_at = y.expires_at
      && same_value x.value y.value
      && same_entries xs ys
  | [], _ :: _ | _ :: _, [] -> false

(* Structural state equality: entry values and expiries in order,
   tombstones and versions. *)
let state_equal a b =
  (* lint: allow D3 — a state is equal to itself; the structural comparison follows *)
  a == b
  || Version.equal a.version b.version
     && same_entries a.entries b.entries
     && a.fence.tombs = b.fence.tombs

(* Overwrite [target] with (clones of) [merged]. *)
let assign target merged =
  target.entries <- clone_entries merged.entries;
  target.version <- merged.version;
  target.fence <- merged.fence

let quorum_read t ~key ~nodes =
  let now = t.clock () in
  let states =
    List.filter_map
      (fun node ->
        if Dht.Liveness.alive t.liveness node then
          match state_at t ~node key with
          | Some st ->
              prune now st;
              Some (node, st)
          | None -> Some (node, empty_state ())
        else None)
      nodes
  in
  match states with
  | [] -> ([], Version.zero, [])
  | (_, first) :: rest ->
      let merged = List.fold_left (fun acc (_, st) -> merge_states acc st) first rest in
      let repairs =
        List.filter_map
          (fun (node, st) ->
            if state_equal st merged then None
            else begin
              let gained =
                List.filter (fun e -> not (holds_value st.entries e)) merged.entries
              in
              assign (get_state t.tables.(node) key) merged;
              Some (node, gained)
            end)
          states
      in
      (values merged.entries, merged.version, repairs)

let sync_key t ~key ~nodes =
  let _, _, repairs = quorum_read t ~key ~nodes in
  repairs

(* ------------------------------------------------------------------ *)
(* Maintenance surface: what the {!Anti_entropy} pass (and the repair
   walk below) need to see of the per-replica states. *)

let sorted_keys t = Stdx.Det_tbl.sorted_keys ~compare:Key.compare t.directory

let same_state t ~a ~b key =
  match (state_at t ~node:a key, state_at t ~node:b key) with
  | None, None -> true
  | Some _, None | None, Some _ -> false
  | Some x, Some y ->
      let now = t.clock () in
      prune now x;
      prune now y;
      state_equal x y

type 'v held_state = { held : 'v entry list; tombstones : 'v list; version : Version.t }

let held_state t ~node key =
  Option.map
    (fun st -> { held = st.entries; tombstones = st.fence.tombs; version = st.version })
    (state_at t ~node key)

let held_entries t ~node key =
  match state_at t ~node key with Some st -> st.entries | None -> []

let iter_held t f =
  Array.iteri
    (fun node table ->
      Stdx.Det_tbl.iter_sorted ~compare:Key.compare
        (fun key st -> List.iter (f ~node key) st.entries)
        table)
    t.tables

let repair ?(on_restore = fun ~node:_ _ -> ()) t =
  let restored = ref 0 in
  (* Repair order decides which replica serves as the copy source under
     partial failure; walk the directory in key order so runs agree. *)
  Stdx.Det_tbl.iter_sorted ~compare:Key.compare
    (fun key () ->
      let replicas = replica_buf t key in
      let source =
        find_in replicas (fun node ->
            Dht.Liveness.alive t.liveness node && live_entries t t.tables.(node) key <> [])
      in
      match source with
      | -1 -> () (* no live holder: lost until republished *)
      | source ->
          let src = Hashtbl.find t.tables.(source) key in
          for i = 0 to Stdx.Int_buf.length replicas - 1 do
            let node = Stdx.Int_buf.unsafe_get replicas i in
            if
              node <> source
              && Dht.Liveness.alive t.liveness node
              && live_entries t t.tables.(node) key = []
            then begin
              (* An empty state whose version dominates the source's is
                 a tombstone for writes the source slept through;
                 restoring from it would resurrect the deletion. *)
              let target_newer =
                match state_at t ~node key with
                | None -> false
                | Some st -> Version.compare st.version src.version = Version.Dominates
              in
              if not target_newer then begin
                let st = get_state t.tables.(node) key in
                st.entries <- clone_entries src.entries;
                st.version <- Version.merge st.version src.version;
                st.fence <- src.fence;
                List.iter
                  (fun e ->
                    incr restored;
                    on_restore ~node e)
                  src.entries
              end
            end
          done)
    t.directory;
  !restored

let key_count t = Hashtbl.length t.directory

(* Unexpired entries in a state, counted without building a list; below
   the floor, without reading the entries. *)
let unexpired_count t st =
  if st.fence.floor > t.clock () then List.length st.entries
  else List.fold_left (fun n e -> if expired t e then n else n + 1) 0 st.entries

let total_replica_entries t =
  Array.fold_left
    (fun acc table -> Hashtbl.fold (fun _key st n -> n + unexpired_count t st) table acc)
    0 t.tables

let keys_per_node t =
  Array.map
    (fun table ->
      Hashtbl.fold
        (fun _key st n ->
          if unexpired_count t st > 0 then n + 1 else n)
        table 0)
    t.tables

let entries_per_node t =
  Array.map
    (fun table -> Hashtbl.fold (fun _key st n -> n + unexpired_count t st) table 0)
    t.tables

let rec add_entries f count sum = function
  | [] -> ()
  | e :: rest ->
      incr count;
      sum := !sum + f e;
      add_entries f count sum rest

(* Each node's table is walked in place, counting the keys it is the
   acting primary of: no directory walk and no table lookup per key.
   Every state belongs to a registered key, so this visits exactly the
   keys a walk of the directory would count. *)
let entry_totals t f =
  let now = t.clock () in
  let count = ref 0 and sum = ref 0 and node = ref 0 in
  (* One callback for every table, and empty tables are skipped: a store
     of a million mostly empty nodes builds no closure per node. *)
  let visit key st =
    if live_node_id t key = !node then begin
      prune now st;
      add_entries f count sum st.entries
    end
  in
  Array.iteri
    (fun i table ->
      if Hashtbl.length table > 0 then begin
        node := i;
        (* lint: allow D2 — two integer sums: bucket order cannot change them *)
        Hashtbl.iter visit table
      end)
    t.tables;
  (!count, !sum)

let fold t ~init ~f =
  Stdx.Det_tbl.fold_sorted ~compare:Key.compare
    (fun key () acc ->
      match live_node t key with
      | None -> acc
      | Some node -> (
          match live_entries t t.tables.(node) key with
          | [] -> acc
          | entries -> f acc key (values entries)))
    t.directory init

let fold_range t ~node ~lo ~hi ~init ~f =
  if not (Dht.Liveness.alive t.liveness node) then init
  else begin
    let now = t.clock () in
    let in_range =
      (* lint: allow D2 — the bindings are sorted by key before use *)
      Hashtbl.fold
        (fun key st acc ->
          if Key.compare lo key <= 0 && Key.compare key hi <= 0 then (key, st) :: acc else acc)
        t.tables.(node) []
    in
    List.fold_left
      (fun acc (key, st) ->
        prune now st;
        match st.entries with [] -> acc | entries -> f acc key entries)
      init
      (List.sort (fun (a, _) (b, _) -> Key.compare a b) in_range)
  end
