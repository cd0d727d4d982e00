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
   there starts afresh.

   [tally] holds the length of [entries] and the sum of its entries'
   [len]s ({!count} and {!lens}: 31 bits each are room for more than any
   state holds), kept beside the list at every assignment of it, so that
   the report's totals and a reply's price read one field instead of
   walking the list. *)
type 'v cell = {
  node : int;  (* -1 on the store's [absent] stand-in and merged states *)
  mutable epoch : int;
  mutable entries : 'v entry list;
  mutable tally : int;
  mutable version : Version.t;
  mutable fence : 'v fence;
}

type 'v slot = 'v cell array

let count st = st.tally land 0x7FFF_FFFF
let lens st = st.tally lsr 31

let set_entries st entries ~count ~lens =
  st.entries <- entries;
  st.tally <- (lens lsl 31) lor count

let rec len_sum acc = function [] -> acc | e :: rest -> len_sum (acc + e.len) rest

(* For lists whose totals nobody has at hand. *)
let set_counted st entries = set_entries st entries ~count:(List.length entries) ~lens:(len_sum 0 entries)

let set_tombs st tombs = st.fence <- make_fence ~tombs ~floor:st.fence.floor
let set_floor st floor = st.fence <- make_fence ~tombs:st.fence.tombs ~floor
let lower_floor st expires_at = if expires_at < st.fence.floor then set_floor st expires_at

(* A slot per registered key: registration is the slot's presence.  A
   slot's replica set is resolved once, when the slot is made; that is
   exact because a store's resolver is fixed for the store's life.

   [made] holds the first [made_count] slots made, in the order they
   were made, and [keys] their keys.  The
   walks whose results are sums read [made] in that order, which is the
   order its memory was allocated in.  A collected slot stays there,
   its cells at the epoch [collected], which no node reaches, until half
   of [made] is collected and it is compacted.

   [places] finds a key's slot by open addressing: place [i] is 0 when
   free, -1 when its key was collected, and otherwise
   [(tag lsl 32) lor (n + 1)] for the key of [made]'s [n]th slot, its
   tag being 30 bits of the key's hash, so that a probe reads the key
   only when the tags match.  The places are a power of two, kept at
   most half taken ([live] keys and [vacated] places).

   [memo_key] and [memo] are the last key looked up and its slot ([||]
   for none): a lookup step reads one key many times.  [sorted_keys]
   and [sorted] hold every key and its slot in key order while [stale]
   is false; a slot made or removed sets it, and the next ordered read
   sorts again.

   [fresh] shares the version a write leaves on a state whose only dot,
   if any, is its coordinator's: a state at version [[(node, c)]] (or
   zero) whose node coordinates [w] more writes ends at
   [[(node, c + w)]], the same immutable list for every key.  It is a direct-mapped cache of
   [fresh_slots] such lists, one place per (node, small [w]), so its
   size does not grow with the node count; [fresh_nodes] holds each
   place's node, -1 while it is empty, so a hit reads no list. *)
type 'v t = {
  resolver : Dht.Resolver.t;
  replication : int;
  liveness : Dht.Liveness.t;
  clock : unit -> float;
  epochs : int array;
  absent : 'v cell;  (* no state: read-only *)
  mutable memo_key : Key.t;
  mutable memo : 'v slot;
  mutable sorted_keys : Key.t array;
  mutable sorted : 'v slot array;
  mutable stale : bool;
  mutable made : 'v slot array;
  mutable keys : Key.t array;
  mutable made_count : int;
  mutable collected_count : int;
  mutable places : int array;
  mutable live : int;
  mutable vacated : int;
  on_write_acks : (acks:int -> unit) option;
  scratch : Stdx.Int_buf.t; (* replica-set resolution buffer *)
  fresh : Version.t array;
  fresh_nodes : int array;
}

(* Versions whose one dot counts up to this many writes are shared
   ([t.fresh]). *)
let fresh_writes = 4
let fresh_slots = 2048

let blank node =
  { node; epoch = -1; entries = []; tally = 0; version = Version.zero; fence = unfenced }

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
    epochs = Array.make n 0;
    absent = blank (-1);
    memo_key = Key.zero;
    memo = [||];
    sorted_keys = [||];
    sorted = [||];
    stale = false;
    made = [||];
    keys = [||];
    made_count = 0;
    collected_count = 0;
    places = Array.make 1024 0;
    live = 0;
    vacated = 0;
    on_write_acks;
    scratch = Stdx.Int_buf.create ~capacity:(Stdlib.max 1 replication) ();
    fresh = Array.make fresh_slots Version.zero;
    fresh_nodes = Array.make fresh_slots (-1);
  }

let replication t = t.replication
let liveness t = t.liveness

let node_of t key = Dht.Resolver.responsible t.resolver key

let replica_nodes t key = Dht.Resolver.replicas t.resolver key t.replication

let is_cell c = c.node >= 0

(* A registered key's slot has a cell per replica; [||] stands for no
   slot. *)
let is_slot slot = Array.length slot > 0

(* An epoch below every node's. *)
let collected = -2
let tag_of h = h land 0x3FFF_FFFF
let start t h = (h lsr 31) land (Array.length t.places - 1)
let next t i = (i + 1) land (Array.length t.places - 1)
let number_at v = (v land 0xFFFF_FFFF) - 1

(* The place holding [key], tagged [tag], from [i]; -1 when there is
   none. *)
let rec place_of t key tag i =
  let v = t.places.(i) in
  if v = 0 then -1
  else if v > 0 && v lsr 32 = tag && Key.equal t.keys.(number_at v) key then i
  else place_of t key tag (next t i)

let rec vacant t i = if t.places.(i) <= 0 then i else vacant t (next t i)

(* Place [made]'s [n]th slot, whose key hashes to [h]. *)
let add_place t h n =
  let i = vacant t (start t h) in
  if t.places.(i) < 0 then t.vacated <- t.vacated - 1;
  t.places.(i) <- (tag_of h lsl 32) lor (n + 1);
  t.live <- t.live + 1

(* Places for every slot of [made] not collected: twice [room] or more. *)
let replace t ~room =
  let rec size k = if k >= 2 * room then k else size (2 * k) in
  t.places <- Array.make (size 1024) 0;
  t.live <- 0;
  t.vacated <- 0;
  for n = 0 to t.made_count - 1 do
    if (Array.unsafe_get t.made.(n) 0).epoch <> collected then
      add_place t (Key.hash t.keys.(n)) n
  done

(* The key's slot, or [||]: one probe, none when the key is the last
   one looked up. *)
let[@hot] find t key =
  if Key.equal key t.memo_key then t.memo
  else begin
    let h = Key.hash key in
    let i = place_of t key (tag_of h) (start t h) in
    let slot = if i < 0 then [||] else t.made.(number_at t.places.(i)) in
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

(* Room in [made] and [keys] for [room] slots.  [made] is padded with
   the static [[||]]: a young fill would cost a minor collection, since
   [Array.make] moves it to the major heap first. *)
let grow_made t ~room =
  let n = t.made_count in
  let made = Array.make room [||] and keys = Array.make room Key.zero in
  Array.blit t.made 0 made 0 n;
  Array.blit t.keys 0 keys 0 n;
  t.made <- made;
  t.keys <- keys

let reserve t n =
  let room = t.made_count + n in
  if room > Array.length t.made then grow_made t ~room;
  if 2 * (t.live + t.vacated + n) > Array.length t.places then replace t ~room:(t.live + n)

let make_slot t key =
  Dht.Resolver.replicas_into t.resolver key t.replication t.scratch;
  let buf = t.scratch in
  let slot = Array.make (Stdx.Int_buf.length buf) t.absent in
  for i = 0 to Array.length slot - 1 do
    slot.(i) <- blank (Stdx.Int_buf.unsafe_get buf i)
  done;
  let n = t.made_count in
  if n = Array.length t.made then grow_made t ~room:(Stdlib.max 1024 (2 * n));
  t.made.(n) <- slot;
  t.keys.(n) <- key;
  t.made_count <- n + 1;
  if 2 * (t.live + t.vacated + 1) > Array.length t.places then replace t ~room:(t.live + 1)
  else add_place t (Key.hash key) n;
  t.memo_key <- key;
  t.memo <- slot;
  t.stale <- true;
  slot

let registered t key = is_slot (find t key)

let find_or_make t key =
  let slot = find t key in
  if is_slot slot then slot else make_slot t key

(* Collect the key's slot: its place is vacated and its cells are
   marked; once half of [made] is collected, [made] and [keys] are
   compacted and every place is made again. *)
let remove_slot t key =
  let h = Key.hash key in
  let i = place_of t key (tag_of h) (start t h) in
  Array.iter (fun c -> c.epoch <- collected) t.made.(number_at t.places.(i));
  t.places.(i) <- -1;
  t.live <- t.live - 1;
  t.vacated <- t.vacated + 1;
  t.collected_count <- t.collected_count + 1;
  if 2 * t.collected_count > t.made_count then begin
    let kept = ref 0 in
    for n = 0 to t.made_count - 1 do
      let slot = t.made.(n) in
      if (cell_at slot 0).epoch <> collected then begin
        t.made.(!kept) <- slot;
        t.keys.(!kept) <- t.keys.(n);
        incr kept
      end
    done;
    if !kept = 0 then t.made <- [||] else Array.fill t.made !kept (t.made_count - !kept) t.made.(0);
    t.made_count <- !kept;
    t.collected_count <- 0;
    replace t ~room:t.live
  end;
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
    set_entries c [] ~count:0 ~lens:0;
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
      set_counted st (List.filter (fun e -> not (e.expires_at <= now)) st.entries);
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
        if not found then
          set_entries st ({ e with value = e.value } :: st.entries) ~count:(count st + 1)
            ~lens:(lens st + e.len);
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

(* [Version.bump_by v ~actor writes], taken from [t.fresh] when [v] is
   zero or [actor]'s dot alone and the count it ends at is small: the
   place of [(actor, c)] holds [[(a, c)]] for the node [a] it records.
   Republish rounds bump such versions again, so they stay shared. *)
let bump t v ~actor writes =
  let base = Version.counter v ~actor in
  let total = base + writes in
  if writes < 1 || total > fresh_writes || Version.dots v <> Bool.to_int (base > 0) then
    Version.bump_by v ~actor writes
  else begin
    let i = ((actor * fresh_writes) + total - 1) land (fresh_slots - 1) in
    if t.fresh_nodes.(i) = actor then t.fresh.(i)
    else begin
      let v = Version.bump_by Version.zero ~actor total in
      t.fresh.(i) <- v;
      t.fresh_nodes.(i) <- actor;
      v
    end
  end

(* The store's one write: one probe finds (or makes) the key's slot,
   whose cells are its replicas.  Each live replica's cell is claimed
   and pruned.  An empty state — no entries, no tombstones — takes
   [entries] as they are, with the caller's [count], [lens] and
   [floor]: the list itself on the first live replica, clones
   elsewhere, since entries carry mutable expiries.  The other states
   merge value by value ({!merge_values}).  Every live state merges the
   coordinator's dot, bumped [writes] times past the coordinator's own
   version. *)
let insert_entries ~equal t ~key ~writes ~floor ~count ~lens entries =
  if entries = [] then invalid_arg "Replicated_store.insert_entries: no entries";
  let now = t.clock () in
  let slot = find_or_make t key in
  let coordinator = (first_live_cell t slot).node in
  let vv = ref Version.zero and acks = ref 0 and held = ref [] in
  let fence = make_fence ~tombs:[] ~floor in
  for i = 0 to width slot - 1 do
    let st = cell_at slot i in
    if alive_cell t st then begin
      claim t st;
      prune now st;
      if st.node = coordinator then vv := bump t st.version ~actor:st.node writes;
      (match (st.entries, st.fence.tombs) with
      | [], [] ->
          set_entries st (if !acks = 0 then entries else clone_entries entries) ~count ~lens;
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

let insert_one ~equal ~expires_at t ~key ~len v =
  insert_entries ~equal t ~key ~writes:1 ~floor:expires_at ~count:1 ~lens:len
    [ make_entry ~expires_at ~len v ]

let insert ?(expires_at = infinity) t ~key ~len v =
  ignore (insert_one ~equal:None ~expires_at t ~key ~len v : _ * _)

let insert_unique ?(expires_at = infinity) ~equal t ~key ~len v =
  match insert_one ~equal:(Some equal) ~expires_at t ~key ~len v with
  | [], _ -> false
  | _ :: _, _ -> true

let live_state t ~node key =
  if Dht.Liveness.alive t.liveness node then begin
    let c = cell_of t (find t key) node in
    if present t c then prune (t.clock ()) c;
    held t c
  end
  else t.absent

let entries_at t ~node key = (live_state t ~node key).entries

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
            (* A sublist: the floor still bounds it. *)
            (match gone with
            | [] -> ()
            | _ :: _ ->
                set_entries st kept ~count:(count st - List.length gone)
                  ~lens:(lens st - len_sum 0 gone));
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
    tally = (len_sum 0 entries lsl 31) lor List.length entries;
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
  target.tally <- merged.tally;
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
    let numbers = Array.make t.live 0 and keys = t.keys in
    let i = ref 0 in
    for n = 0 to t.made_count - 1 do
      if (cell_at t.made.(n) 0).epoch <> collected then begin
        numbers.(!i) <- n;
        incr i
      end
    done;
    Array.sort (fun a b -> Key.compare keys.(a) keys.(b)) numbers;
    t.sorted_keys <- Array.map (Array.get keys) numbers;
    t.sorted <- Array.map (Array.get t.made) numbers;
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
let state_count = count
let state_lens = lens

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
                st.tally <- src.tally;
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

let key_count t = t.live

(* Unexpired entries in a state, counted without building a list; below
   the floor, the kept count, without reading the entries. *)
let unexpired_count t st =
  if st.fence.floor > t.clock () then count st
  else List.fold_left (fun n e -> if expired t e then n else n + 1) 0 st.entries

(* [f] on every held cell, for walks whose results are sums. *)
let iter_cells t f =
  for k = 0 to t.made_count - 1 do
    let slot = t.made.(k) in
    for i = 0 to width slot - 1 do
      let c = cell_at slot i in
      if present t c then f c
    done
  done

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

let rec add_entries f sum = function [] -> sum | e :: rest -> add_entries f (sum + f e) rest

(* Each slot's acting primary — its first live replica — counts its
   held entries: one walk of the slots, no lookup per key, and with
   [f = None] no walk of an entry list either: the kept totals are the
   sums. *)
let totals t f =
  let now = t.clock () in
  let entries = ref 0 and sum = ref 0 in
  for k = 0 to t.made_count - 1 do
    let c = first_live_cell t t.made.(k) in
    if present t c then begin
      prune now c;
      entries := !entries + count c;
      sum := match f with None -> !sum + lens c | Some f -> add_entries f !sum c.entries
    end
  done;
  (!entries, !sum)

let entry_totals t f = totals t (Some f)
let len_totals t = totals t None

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
