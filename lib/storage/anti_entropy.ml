module Key = Hashing.Key
module Rstore = Replicated_store

(* One digest message: a header plus the 20-byte SHA-1. *)
let digest_message_bytes = 48 + 20

type stats = {
  exchanges : int;
  digest_matches : int;
  digest_bytes : int;
  keys_shipped : int;
  entries_shipped : int;
  shipped_bytes : int;
  full_state_bytes : int;
}

let add a b =
  {
    exchanges = a.exchanges + b.exchanges;
    digest_matches = a.digest_matches + b.digest_matches;
    digest_bytes = a.digest_bytes + b.digest_bytes;
    keys_shipped = a.keys_shipped + b.keys_shipped;
    entries_shipped = a.entries_shipped + b.entries_shipped;
    shipped_bytes = a.shipped_bytes + b.shipped_bytes;
    full_state_bytes = a.full_state_bytes + b.full_state_bytes;
  }

(* The registered keys grouped by their replica set.  Keys sharing a
   replica set form one range a coordinator/peer pair can summarize
   with a single digest.  Each key's slot carries its replica set,
   copied into [replicas], [width] slots a key padded with -1, and the
   key indices are ordered by replica set (lexicographically, a shorter
   set before its extensions), then by key: ranges in replica-set
   order, keys in key order inside each, so the whole pass is
   deterministic.  A counting pass orders the keys by primary replica,
   and each primary's run — a few keys — is then sorted on its own:
   less than half the time of one comparison sort over every key. *)
type 'v buckets = {
  keys : Key.t array;
  slots : 'v Rstore.slot array;
  width : int;
  replicas : int array;
  order : int array;  (** Key indices, range by range. *)
}

let buckets store =
  let slots = Rstore.slots store and keys = Rstore.slot_keys store in
  let width = Rstore.replication store in
  let n = Array.length slots in
  let replicas = Array.make (n * width) (-1) in
  Array.iteri
    (fun i slot ->
      for j = 0 to Rstore.slot_width slot - 1 do
        replicas.((i * width) + j) <- Rstore.slot_node slot j
      done)
    slots;
  (* Primary [p]'s run is [order]'s slots [starts.(p), starts.(p + 1)). *)
  let nodes = Dht.Liveness.node_count (Rstore.liveness store) in
  let starts = Array.make (nodes + 1) 0 in
  for i = 0 to n - 1 do
    let p = replicas.(i * width) in
    starts.(p + 1) <- starts.(p + 1) + 1
  done;
  for p = 1 to nodes do
    starts.(p) <- starts.(p) + starts.(p - 1)
  done;
  let next = Array.sub starts 0 nodes and order = Array.make n 0 in
  for i = 0 to n - 1 do
    let p = replicas.(i * width) in
    order.(next.(p)) <- i;
    next.(p) <- next.(p) + 1
  done;
  let rec compare_sets i j k =
    if k = width then Key.compare keys.(i) keys.(j)
    else
      match Int.compare replicas.((i * width) + k) replicas.((j * width) + k) with
      | 0 -> compare_sets i j (k + 1)
      | c -> c
  in
  let compare i j = compare_sets i j 1 in
  for p = 0 to nodes - 1 do
    let lo = starts.(p) and len = starts.(p + 1) - starts.(p) in
    if len > 1 then begin
      let run = Array.sub order lo len in
      Array.sort compare run;
      Array.blit run 0 order lo len
    end
  done;
  { keys; slots; width; replicas; order }

let rec entries_bytes entry_bytes sum = function
  | [] -> sum
  | e :: rest -> entries_bytes entry_bytes (sum + entry_bytes e) rest

let held_bytes entry_bytes = function
  | None -> 0
  | Some st -> entries_bytes entry_bytes 0 (Rstore.state_entries st)

(* One pass, range by range and, inside a range, key by key: each live
   replica's state of a key is read from its slot once, and every peer's
   comparison with the coordinator follows right after both sides'
   states are priced for the full-state counterfactual.  A sync touches
   only its own key, so this order leaves the same states and counts
   the same bytes as exchanging peer by peer over the whole range. *)
let run store ~entry_bytes ?(on_exchange = fun ~peer:_ ~bytes:_ -> ())
    ?(on_ship = fun ~node:_ ~bytes:_ -> ()) () =
  let liveness = Rstore.liveness store in
  let { keys; slots; width; replicas; order } = buckets store in
  (* [live.(p)]: the position of the range's [p]th live replica in its
     replica set. *)
  let live = Array.make width 0 and states = Array.make width None in
  (* [matched.(p)]: no key of the range diverged between the coordinator
     and live replica [p]. *)
  let matched = Array.make width true in
  let exchanges = ref 0 and digest_matches = ref 0 and digest_bytes = ref 0 in
  let keys_shipped = ref 0 and entries_shipped = ref 0 and shipped_bytes = ref 0 in
  let full_state_bytes = ref 0 in
  let same_set i j =
    let rec go k =
      k = width || (replicas.((i * width) + k) = replicas.((j * width) + k) && go (k + 1))
    in
    go 0
  in
  let ship (node, gained) =
    let bytes = entries_bytes entry_bytes 0 gained in
    if bytes > 0 then on_ship ~node ~bytes;
    shipped_bytes := !shipped_bytes + bytes;
    entries_shipped := !entries_shipped + List.length gained
  in
  let n = Array.length order and lo = ref 0 in
  while !lo < n do
    let first = order.(!lo) in
    let hi = ref (!lo + 1) in
    while !hi < n && same_set first order.(!hi) do
      incr hi
    done;
    let nlive = ref 0 in
    for k = 0 to width - 1 do
      let node = replicas.((first * width) + k) in
      if node >= 0 && Dht.Liveness.alive liveness node then begin
        live.(!nlive) <- k;
        incr nlive
      end
    done;
    (* A lone survivor has nobody to exchange with. *)
    if !nlive >= 2 then begin
      let coordinator = replicas.((first * width) + live.(0)) in
      for p = 1 to !nlive - 1 do
        (* Push-pull digest exchange: the coordinator sends its range
           digest, the peer answers with its own. *)
        let bytes = 2 * digest_message_bytes in
        on_exchange ~peer:replicas.((first * width) + live.(p)) ~bytes;
        incr exchanges;
        digest_bytes := !digest_bytes + bytes;
        matched.(p) <- true
      done;
      for x = !lo to !hi - 1 do
        let key = keys.(order.(x)) and slot = slots.(order.(x)) in
        for p = 0 to !nlive - 1 do
          states.(p) <- Rstore.slot_state store slot live.(p)
        done;
        for p = 1 to !nlive - 1 do
          (* What a digestless full-state push-pull would have moved:
             both sides' states as held before this comparison prunes
             them. *)
          full_state_bytes :=
            !full_state_bytes + held_bytes entry_bytes states.(0)
            + held_bytes entry_bytes states.(p);
          (* The digests agree exactly when every key's states do, so
             the per-key comparison decides the match and finds the
             diverged keys in one walk. *)
          if not (Rstore.same_states store states.(0) states.(p)) then begin
            List.iter ship
              (Rstore.sync_key store ~key
                 ~nodes:[ coordinator; replicas.((first * width) + live.(p)) ]);
            incr keys_shipped;
            matched.(p) <- false;
            states.(0) <- Rstore.slot_state store slot live.(0)
          end
        done
      done;
      for p = 1 to !nlive - 1 do
        if matched.(p) then incr digest_matches
      done
    end;
    lo := !hi
  done;
  {
    exchanges = !exchanges;
    digest_matches = !digest_matches;
    digest_bytes = !digest_bytes;
    keys_shipped = !keys_shipped;
    entries_shipped = !entries_shipped;
    shipped_bytes = !shipped_bytes;
    full_state_bytes = !full_state_bytes;
  }
