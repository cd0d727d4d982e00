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

(* A state lives in a cell.  A key's slot is its cells, one per
   replica, in placement order.  A cell holds a state only while [epoch]
   is its node's epoch: dropping a node's state bumps the node's epoch,
   so every cell written before reads as no state, and the next write
   there starts afresh. *)
type 'v cell = {
  node : int;  (* -1 on the store's [absent] stand-in and merged states *)
  mutable epoch : int;
  mutable entries : 'v entry list;
  mutable version : Version.t;
  mutable fence : 'v fence;
}

type 'v slot = 'v cell array

let set_tombs st tombs = st.fence <- make_fence ~tombs ~floor:st.fence.floor
let set_floor st floor = st.fence <- make_fence ~tombs:st.fence.tombs ~floor
let lower_floor st expires_at = if expires_at < st.fence.floor then set_floor st expires_at

(* A slot per registered key: registration is the slot's presence.  A
   slot's replica set is resolved once, when the slot is made; that is
   exact because a store's resolver is fixed for the store's life.

   [memo_key] and [memo] are the last key looked up and its slot ([||]
   for none): a lookup step reads one key many times.  [sorted_keys]
   and [sorted] hold every key and its slot in key order while [stale]
   is false; a slot made or removed sets it, and the next ordered read
   sorts again. *)
type 'v t = {
  resolver : Dht.Resolver.t;
  replication : int;
  liveness : Dht.Liveness.t;
  clock : unit -> float;
  slots : 'v slot Key.Table.t;
  epochs : int array;
  absent : 'v cell;  (* no state: read-only *)
  mutable memo_key : Key.t;
  mutable memo : 'v slot;
  mutable sorted_keys : Key.t array;
  mutable sorted : 'v slot array;
  mutable stale : bool;
  on_write_acks : (acks:int -> unit) option;
  scratch : Stdx.Int_buf.t; (* replica-set resolution buffer *)
}

let blank node = { node; epoch = -1; entries = []; version = Version.zero; fence = unfenced }

let create ~resolver ~replication ?on_write_acks ?liveness ?(clock = fun () -> 0.0) () =
  if replication < 1 then
    invalid_arg "Replicated_store.create: need at least one replica";
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
    liveness;
    clock;
    slots = Key.Table.create 1024;
    epochs = Array.make n 0;
    absent = blank (-1);
    memo_key = Key.zero;
    memo = [||];
    sorted_keys = [||];
    sorted = [||];
    stale = false;
    on_write_acks;
    scratch = Stdx.Int_buf.create ~capacity:(Stdlib.max 1 replication) ();
  }

let replication t = t.replication
let liveness t = t.liveness

let node_of t key = Dht.Resolver.responsible t.resolver key

let replica_nodes t key = Dht.Resolver.replicas t.resolver key t.replication

let is_cell c = c.node >= 0

(* A registered key's slot has a cell per replica; [||] stands for no
   slot. *)
let is_slot slot = Array.length slot > 0

(* The key's slot, or [||]: one probe, none when the key is the last
   one looked up. *)
let[@hot] find t key =
  if Key.equal key t.memo_key then t.memo
  else begin
    let slot = match Key.Table.find t.slots key with s -> s | exception Not_found -> [||] in
    t.memo_key <- key;
    t.memo <- slot;
    slot
  end

let width = Array.length
let cell_at = Array.unsafe_get

let fill_replicas slot buf =
  Stdx.Int_buf.clear buf;
  for i = 0 to width slot - 1 do
    Stdx.Int_buf.push buf (cell_at slot i).node
  done

let make_slot t key =
  Dht.Resolver.replicas_into t.resolver key t.replication t.scratch;
  let buf = t.scratch in
  let slot = Array.make (Stdx.Int_buf.length buf) t.absent in
  for i = 0 to Array.length slot - 1 do
    slot.(i) <- blank (Stdx.Int_buf.unsafe_get buf i)
  done;
  Key.Table.add t.slots key slot;
  t.memo_key <- key;
  t.memo <- slot;
  t.stale <- true;
  slot

let registered t key = is_slot (find t key)

let find_or_make t key =
  let slot = find t key in
  if is_slot slot then slot else make_slot t key

let remove_slot t key =
  Key.Table.remove t.slots key;
  t.memo_key <- key;
  t.memo <- [||];
  t.stale <- true

let[@hot] replica_buf t key =
  let slot = find t key in
  if is_slot slot then fill_replicas slot t.scratch
  else Dht.Resolver.replicas_into t.resolver key t.replication t.scratch;
  t.scratch

let alive_cell t c = Dht.Liveness.alive t.liveness c.node

(* The slot walks below take their state as arguments, so that no
   closure is built per call. *)

(* The first live replica's cell of a slot from [i] on, or [absent]. *)
let rec first_live_from t slot i =
  if i = width slot then t.absent
  else
    let c = cell_at slot i in
    if alive_cell t c then c else first_live_from t slot (i + 1)

let first_live_cell t slot = first_live_from t slot 0

let present t c = is_cell c && c.epoch = Array.unsafe_get t.epochs c.node

(* The node's cell in the slot, or [absent] when the node is not one of
   the slot's replicas. *)
let rec cell_from t slot node i =
  if i = width slot then t.absent
  else
    let c = cell_at slot i in
    if c.node = node then c else cell_from t slot node (i + 1)

let cell_of t slot node = cell_from t slot node 0

(* The state a cell holds: the cell itself, or [absent], which reads as
   no entries at version zero. *)
let held t c = if present t c then c else t.absent

(* The node's state of the key. *)
let state_at t ~node key = held t (cell_of t (find t key) node)

(* A cell about to be written: one that holds no state starts empty. *)
let claim t c =
  let epoch = t.epochs.(c.node) in
  if c.epoch <> epoch then begin
    c.epoch <- epoch;
    c.entries <- [];
    c.version <- Version.zero;
    c.fence <- unfenced
  end

let expired t entry = entry.expires_at <= t.clock ()

let rec any_expired now = function
  | [] -> false
  | e :: rest -> e.expires_at <= now || any_expired now rest

let rec floor_of acc = function
  | [] -> acc
  | e :: rest -> floor_of (if e.expires_at < acc then e.expires_at else acc) rest

(* Drop the state's expired entries in place so cells do not
   accumulate dead soft state.  Below the floor nothing can have
   expired — always, with infinite TTLs — and the list is not walked;
   [absent]'s floor is infinite. *)
let prune now st =
  if st.fence.floor <= now then begin
    if any_expired now st.entries then
      st.entries <- List.filter (fun e -> not (e.expires_at <= now)) st.entries;
    set_floor st (floor_of infinity st.entries)
  end

(* A held cell's unexpired entries; the held list itself when nothing
   has expired. *)
let live_entries t c =
  if present t c then begin
    prune (t.clock ()) c;
    c.entries
  end
  else []

let values entries = List.map (fun e -> e.value) entries

let clone_entries entries = List.map (fun e -> { e with value = e.value }) entries

let version_at t ~node key = (state_at t ~node key).version

let live_merged_version t key =
  let slot = find t key in
  let v = ref Version.zero in
  if is_slot slot then
    for i = 0 to width slot - 1 do
      let c = cell_at slot i in
      if alive_cell t c && present t c then v := Version.merge !v c.version
    done;
  !v

let record_acks t ~acks =
  match t.on_write_acks with
  | None -> ()
  | Some f -> f ~acks

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
   there is none.  A refresh usually carries the very value the replica
   holds, so identity is tried before [equal]. *)
let rec refresh_first ~equal e = function
  | [] -> false
  | e' :: rest ->
      (* lint: allow D3 — identity implies [equal] for stored values; [equal] decides otherwise *)
      if e'.len = e.len && (e'.value == e.value || equal e'.value e.value) then begin
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

(* The store's one write: one probe finds (or makes) the key's slot,
   whose cells are its replicas.  Each live replica's cell is claimed
   and pruned.  An empty state — no entries, no tombstones — takes
   [entries] as they are: the list itself on the first live replica,
   clones elsewhere, since entries carry mutable expiries.  The other
   states merge value by value ({!merge_values}).  Every live state
   merges the coordinator's dot, bumped [writes] times past the
   coordinator's own version. *)
let insert_entries ~equal t ~key ~writes entries =
  if entries = [] then invalid_arg "Replicated_store.insert_entries: no entries";
  let now = t.clock () in
  let slot = find_or_make t key in
  let coordinator = (first_live_cell t slot).node in
  let vv = ref Version.zero and acks = ref 0 and held = ref [] in
  let fence = make_fence ~tombs:[] ~floor:(floor_of infinity entries) in
  for i = 0 to width slot - 1 do
    let st = cell_at slot i in
    if alive_cell t st then begin
      claim t st;
      prune now st;
      if st.node = coordinator then vv := Version.bump_by st.version ~actor:st.node writes;
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
  fill_replicas slot t.scratch;
  (fresh, t.scratch)

let insert ?(expires_at = infinity) t ~key ~len v =
  ignore (insert_entries ~equal:None t ~key ~writes:1 [ make_entry ~expires_at ~len v ] : _ * _)

let insert_unique ?(expires_at = infinity) ~equal t ~key ~len v =
  match insert_entries ~equal:(Some equal) t ~key ~writes:1 [ make_entry ~expires_at ~len v ] with
  | [], _ -> false
  | _ :: _, _ -> true

let entries_at t ~node key =
  if Dht.Liveness.alive t.liveness node then live_entries t (cell_of t (find t key) node) else []

let lookup t key =
  let slot = find t key in
  if is_slot slot then values (live_entries t (first_live_cell t slot)) else []

let rec held_live_from t slot i =
  i < width slot
  &&
  let c = cell_at slot i in
  (alive_cell t c && live_entries t c <> []) || held_live_from t slot (i + 1)

let mem t key = held_live_from t (find t key) 0

let live_count t slot =
  let n = ref 0 in
  for i = 0 to width slot - 1 do
    if alive_cell t (cell_at slot i) then incr n
  done;
  !n

let remove t ~key pred =
  let slot = find t key in
  if not (is_slot slot) then begin
    (* Nothing registered, so no replica holds a state: the write only
       counts its acknowledgements, if a replica is up to take it. *)
    let replicas = replica_buf t key in
    let acks = ref 0 in
    for i = 0 to Stdx.Int_buf.length replicas - 1 do
      if Dht.Liveness.alive t.liveness (Stdx.Int_buf.unsafe_get replicas i) then incr acks
    done;
    if !acks > 0 then record_acks t ~acks:!acks;
    0
  end
  else
    match first_live_cell t slot with
    | c when not (is_cell c) -> 0
    | coordinator ->
        let vv = Version.bump (held t coordinator).version ~actor:coordinator.node in
        let removed = ref 0 and held_anywhere = ref false in
        for i = 0 to width slot - 1 do
          let st = cell_at slot i in
          if alive_cell t st then begin
            let entries = live_entries t st in
            claim t st;
            let kept, gone = List.partition (fun e -> not (pred e.value)) entries in
            st.entries <- kept (* a sublist: the floor still bounds it *);
            List.iter
              (fun e ->
                let tombs = st.fence.tombs in
                if not (List.exists (fun tv -> tv = e.value) tombs) then
                  set_tombs st (tombs @ [ e.value ]))
              gone;
            st.version <- merge_into st.version vv;
            removed := Stdlib.max !removed (List.length gone)
          end
        done;
        record_acks t ~acks:(live_count t slot);
        for i = 0 to width slot - 1 do
          let st = cell_at slot i in
          if present t st && st.entries <> [] then held_anywhere := true
        done;
        (* Nothing left on any replica, dead ones included: the tombstones
           have no stale copy to fence off, so the key can be collected
           outright — exactly the pre-quorum final state. *)
        if not !held_anywhere then remove_slot t key;
        !removed

let remove_key t key = remove t ~key (fun _ -> true)

let check_node t node =
  if node < 0 || node >= Array.length t.epochs then
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

(* A new epoch: every cell the node wrote before reads as no state. *)
let drop_state t node =
  check_node t node;
  t.epochs.(node) <- t.epochs.(node) + 1

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
   side's entries, found in one pass.  A merged state built here is a
   cell of no node, read only. *)

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
  {
    (blank (-1)) with
    entries;
    version;
    fence = make_fence ~tombs ~floor:(floor_of infinity entries);
  }

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

(* Overwrite [target]'s state with (clones of) [merged]. *)
let assign t target merged =
  claim t target;
  target.entries <- clone_entries merged.entries;
  target.version <- merged.version;
  target.fence <- merged.fence

(* The listed live nodes' cells of the key ([absent] for every node when
   the key has no slot), each read as the state it holds.  A node
   outside the key's replica set holds no state and takes none. *)
let quorum_read t ~key ~nodes =
  let now = t.clock () in
  let slot = find t key in
  let states =
    List.filter_map
      (fun node ->
        let c = cell_of t slot node in
        if Dht.Liveness.alive t.liveness node && (is_cell c || not (is_slot slot)) then begin
          if present t c then prune now c;
          Some c
        end
        else None)
      nodes
  in
  match states with
  | [] -> ([], Version.zero, [])
  | first :: rest ->
      let merged = List.fold_left (fun acc c -> merge_states acc (held t c)) (held t first) rest in
      let repairs =
        List.filter_map
          (fun c ->
            let st = held t c in
            if state_equal st merged then None
            else begin
              let gained = List.filter (fun e -> not (holds_value st.entries e)) merged.entries in
              assign t c merged;
              Some (c.node, gained)
            end)
          states
      in
      (values merged.entries, merged.version, repairs)

let sync_key t ~key ~nodes =
  let _, _, repairs = quorum_read t ~key ~nodes in
  repairs

(* ------------------------------------------------------------------ *)
(* Ordered walks: every slot, in key order. *)

let sort t =
  if t.stale then begin
    let n = Key.Table.length t.slots in
    let keys = Array.make n Key.zero in
    let i = ref 0 in
    (* lint: allow D2 — fills an array sorted on the next line; no order escapes *)
    Key.Table.iter
      (fun key _ ->
        keys.(!i) <- key;
        incr i)
      t.slots;
    Array.sort Key.compare keys;
    t.sorted_keys <- keys;
    t.sorted <- Array.map (Key.Table.find t.slots) keys;
    t.stale <- false
  end

let sorted_slots t =
  sort t;
  t.sorted

let slot_keys t =
  sort t;
  t.sorted_keys

let sorted_keys t = Array.to_list (slot_keys t)

(* ------------------------------------------------------------------ *)
(* Maintenance surface: what the {!Anti_entropy} pass needs to see of
   the slots. *)

type 'v state = 'v cell

let slots = sorted_slots
let slot_width = width
let slot_node slot i = (cell_at slot i).node

let slot_state t slot i =
  let c = cell_at slot i in
  if present t c then Some c else None

let state_entries st = st.entries

let same_states t a b =
  match (a, b) with
  | None, None -> true
  | Some _, None | None, Some _ -> false
  | Some x, Some y ->
      let now = t.clock () in
      prune now x;
      prune now y;
      state_equal x y

let held_at t ~node key =
  let c = state_at t ~node key in
  if is_cell c then Some c else None

let same_state t ~a ~b key = same_states t (held_at t ~node:a key) (held_at t ~node:b key)

type 'v held_state = { held : 'v entry list; tombstones : 'v list; version : Version.t }

let held_state t ~node key =
  Option.map
    (fun st -> { held = st.entries; tombstones = st.fence.tombs; version = st.version })
    (held_at t ~node key)

let held_entries t ~node key = (state_at t ~node key).entries

(* Node then key order: the held cells, gathered in key order, sorted
   stably by node. *)
let iter_held t f =
  let held = ref [] in
  Array.iteri
    (fun k slot ->
      for i = 0 to width slot - 1 do
        let c = cell_at slot i in
        if present t c then held := (t.sorted_keys.(k), c) :: !held
      done)
    (sorted_slots t);
  List.iter
    (fun (key, c) -> List.iter (f ~node:c.node key) c.entries)
    (List.stable_sort (fun (_, a) (_, b) -> Int.compare a.node b.node) (List.rev !held))

let repair ?(on_restore = fun ~node:_ _ -> ()) t =
  let restored = ref 0 in
  (* Repair order decides which replica serves as the copy source under
     partial failure; walk the slots in key order so runs agree. *)
  Array.iter
    (fun slot ->
      let rec source i =
        if i = width slot then t.absent
        else
          let c = cell_at slot i in
          if alive_cell t c && live_entries t c <> [] then c else source (i + 1)
      in
      match source 0 with
      | src when not (is_cell src) -> () (* no live holder: lost until republished *)
      | src ->
          for i = 0 to width slot - 1 do
            let st = cell_at slot i in
            if st.node <> src.node && alive_cell t st && live_entries t st = [] then begin
              (* An empty state whose version dominates the source's is
                 a tombstone for writes the source slept through;
                 restoring from it would resurrect the deletion. *)
              let target_newer =
                present t st && Version.compare st.version src.version = Version.Dominates
              in
              if not target_newer then begin
                claim t st;
                st.entries <- clone_entries src.entries;
                st.version <- Version.merge st.version src.version;
                st.fence <- src.fence;
                List.iter
                  (fun e ->
                    incr restored;
                    on_restore ~node:st.node e)
                  src.entries
              end
            end
          done)
    (sorted_slots t);
  !restored

let key_count t = Key.Table.length t.slots

(* Unexpired entries in a state, counted without building a list; below
   the floor, without reading the entries. *)
let unexpired_count t st =
  if st.fence.floor > t.clock () then List.length st.entries
  else List.fold_left (fun n e -> if expired t e then n else n + 1) 0 st.entries

(* [f] on every held cell, for walks whose results are sums. *)
let iter_cells t f =
  (* lint: allow D2 — every caller sums into integers: bucket order cannot change them *)
  Key.Table.iter
    (fun _ slot ->
      for i = 0 to width slot - 1 do
        let c = cell_at slot i in
        if present t c then f c
      done)
    t.slots

let total_replica_entries t =
  let n = ref 0 in
  iter_cells t (fun c -> n := !n + unexpired_count t c);
  !n

let keys_per_node t =
  let counts = Array.make (Array.length t.epochs) 0 in
  iter_cells t (fun c -> if unexpired_count t c > 0 then counts.(c.node) <- counts.(c.node) + 1);
  counts

let entries_per_node t =
  let counts = Array.make (Array.length t.epochs) 0 in
  iter_cells t (fun c -> counts.(c.node) <- counts.(c.node) + unexpired_count t c);
  counts

let rec add_entries f count sum = function
  | [] -> ()
  | e :: rest ->
      incr count;
      sum := !sum + f e;
      add_entries f count sum rest

(* Each slot's acting primary — its first live replica — counts its
   held entries: one walk of the slots, no lookup per key. *)
let entry_totals t f =
  let now = t.clock () in
  let count = ref 0 and sum = ref 0 in
  (* lint: allow D2 — two integer sums: bucket order cannot change them *)
  Key.Table.iter
    (fun _ slot ->
      let c = first_live_cell t slot in
      if present t c then begin
        prune now c;
        add_entries f count sum c.entries
      end)
    t.slots;
  (!count, !sum)

let fold t ~init ~f =
  let slots = sorted_slots t in
  let acc = ref init in
  Array.iteri
    (fun k slot ->
      match live_entries t (first_live_cell t slot) with
      | [] -> ()
      | entries -> acc := f !acc t.sorted_keys.(k) (values entries))
    slots;
  !acc

(* The first index whose key is at least [lo]. *)
let rec first_at_least keys lo a b =
  if a >= b then a
  else
    let mid = (a + b) / 2 in
    if Key.compare keys.(mid) lo < 0 then first_at_least keys lo (mid + 1) b
    else first_at_least keys lo a mid

let fold_range t ~node ~lo ~hi ~init ~f =
  if not (Dht.Liveness.alive t.liveness node) then init
  else begin
    let slots = sorted_slots t and keys = t.sorted_keys in
    let n = Array.length keys in
    let rec go acc i =
      if i = n || Key.compare keys.(i) hi > 0 then acc
      else
        let acc =
          match live_entries t (cell_of t slots.(i) node) with
          | [] -> acc
          | entries -> f acc keys.(i) entries
        in
        go acc (i + 1)
    in
    go init (first_at_least keys lo 0 n)
  end
