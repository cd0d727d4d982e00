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

(* Shipped entries are priced one by one. *)
let rec entries_bytes entry_overhead sum = function
  | [] -> sum
  | e :: rest -> entries_bytes entry_overhead (sum + entry_overhead + Rstore.entry_len e) rest

(* What a state holds, priced from its kept totals: no list is walked. *)
let held_bytes entry_overhead st = (entry_overhead * Rstore.state_count st) + Rstore.state_lens st

(* One pass over the store's ranges ({!Rstore.ranges}: by replica set,
   then by key, kept by the store between key changes), range by range
   and, inside a range, key by key: each live replica's state of a key
   is read from its slot once, and every peer's comparison with the
   coordinator follows right after both sides' states are priced for
   the full-state counterfactual.  A sync touches only its own key, so
   this order leaves the same states and counts the same bytes as
   exchanging peer by peer over the whole range. *)
let run store ~entry_overhead ?(on_exchange = fun ~peer:_ ~bytes:_ -> ())
    ?(on_ship = fun ~node:_ ~bytes:_ -> ()) () =
  let liveness = Rstore.liveness store in
  let { Rstore.slots; keys; starts } = Rstore.ranges store in
  let width = Rstore.replication store and n = Array.length slots in
  (* [live.(p)]: the position of the range's [p]th live replica in its
     replica set. *)
  let live = Array.make width 0 in
  (* [matched.(p)]: no key of the range diverged between the coordinator
     and live replica [p]. *)
  let matched = Array.make width true in
  let exchanges = ref 0 and digest_matches = ref 0 and digest_bytes = ref 0 in
  let keys_shipped = ref 0 and entries_shipped = ref 0 and shipped_bytes = ref 0 in
  let full_state_bytes = ref 0 in
  let ship (node, gained) =
    let bytes = entries_bytes entry_overhead 0 gained in
    if bytes > 0 then on_ship ~node ~bytes;
    shipped_bytes := !shipped_bytes + bytes;
    entries_shipped := !entries_shipped + List.length gained
  in
  for r = 0 to Array.length starts - 1 do
    let lo = starts.(r) and hi = if r + 1 < Array.length starts then starts.(r + 1) else n in
    let first = slots.(lo) in
    let nlive = ref 0 in
    for k = 0 to Rstore.slot_width first - 1 do
      if Dht.Liveness.alive liveness (Rstore.slot_node first k) then begin
        live.(!nlive) <- k;
        incr nlive
      end
    done;
    (* A lone survivor has nobody to exchange with. *)
    if !nlive >= 2 then begin
      let coordinator = Rstore.slot_node first live.(0) in
      for p = 1 to !nlive - 1 do
        (* Push-pull digest exchange: the coordinator sends its range
           digest, the peer answers with its own. *)
        let bytes = 2 * digest_message_bytes in
        on_exchange ~peer:(Rstore.slot_node first live.(p)) ~bytes;
        incr exchanges;
        digest_bytes := !digest_bytes + bytes;
        matched.(p) <- true
      done;
      for x = lo to hi - 1 do
        let slot = slots.(x) in
        (* A sync of the coordinator with one peer leaves every other
           peer's state as it was, so each peer's is read when its turn
           comes, and the coordinator's again after a sync. *)
        let coordinated = ref (Rstore.slot_state store slot live.(0)) in
        for p = 1 to !nlive - 1 do
          let peer = Rstore.slot_state store slot live.(p) in
          (* What a digestless full-state push-pull would have moved:
             both sides' states as held before this comparison prunes
             them. *)
          full_state_bytes :=
            !full_state_bytes + held_bytes entry_overhead !coordinated
            + held_bytes entry_overhead peer;
          (* The digests agree exactly when every key's states do, so
             the per-key comparison decides the match and finds the
             diverged keys in one walk. *)
          if not (Rstore.same_states store !coordinated peer) then begin
            List.iter ship
              (Rstore.sync_key store ~key:keys.(x)
                 ~nodes:[ coordinator; Rstore.slot_node first live.(p) ]);
            incr keys_shipped;
            matched.(p) <- false;
            coordinated := Rstore.slot_state store slot live.(0)
          end
        done
      done;
      for p = 1 to !nlive - 1 do
        if matched.(p) then incr digest_matches
      done
    end
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
