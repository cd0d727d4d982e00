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

let zero_stats =
  {
    exchanges = 0;
    digest_matches = 0;
    digest_bytes = 0;
    keys_shipped = 0;
    entries_shipped = 0;
    shipped_bytes = 0;
    full_state_bytes = 0;
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

(* Group the directory's keys by their replica set.  Keys sharing a
   replica list form one range a coordinator/peer pair can summarize
   with a single digest; iterating buckets in replica-list order (and
   keys in key order inside each) keeps the whole pass deterministic. *)
let buckets store =
  let tbl : (int list, Key.t list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun key ->
      let replicas = Stdx.Int_buf.to_list (Rstore.replica_buf store key) in
      let prev = match Hashtbl.find_opt tbl replicas with Some l -> l | None -> [] in
      Hashtbl.replace tbl replicas (key :: prev))
    (Rstore.sorted_keys store);
  Stdx.Det_tbl.fold_sorted
    ~compare:(List.compare Int.compare)
    (fun replicas keys acc -> (replicas, List.rev keys) :: acc)
    tbl []
  |> List.rev

let held_bytes store ~entry_bytes ~node key =
  List.fold_left (fun sum e -> sum + entry_bytes e) 0 (Rstore.held_entries store ~node key)

let run store ~entry_bytes ?(on_exchange = fun ~peer:_ ~bytes:_ -> ())
    ?(on_ship = fun ~node:_ ~bytes:_ -> ()) () =
  let liveness = Rstore.liveness store in
  List.fold_left
    (fun acc (replicas, keys) ->
      match List.filter (Dht.Liveness.alive liveness) replicas with
      | [] | [ _ ] -> acc (* nobody to exchange with *)
      | coordinator :: peers ->
          List.fold_left
            (fun acc peer ->
              (* Push-pull digest exchange: the coordinator sends its
                 range digest, the peer answers with its own. *)
              let bytes = 2 * digest_message_bytes in
              on_exchange ~peer ~bytes;
              let acc =
                { acc with exchanges = acc.exchanges + 1; digest_bytes = acc.digest_bytes + bytes }
              in
              (* What a digestless full-state push-pull would have moved
                 on this same divergence: both sides' entire ranges, as
                 held before this exchange prunes them. *)
              let full =
                List.fold_left
                  (fun sum key ->
                    sum
                    + held_bytes store ~entry_bytes ~node:coordinator key
                    + held_bytes store ~entry_bytes ~node:peer key)
                  0 keys
              in
              let acc = { acc with full_state_bytes = acc.full_state_bytes + full } in
              (* The digests agree exactly when every key's states do, so
                 the per-key comparison decides the match and finds the
                 diverged keys in one walk. *)
              let shipped_before = acc.keys_shipped in
              let acc =
                List.fold_left
                  (fun acc key ->
                    if Rstore.same_state store ~a:coordinator ~b:peer key then acc
                    else begin
                      let repairs =
                        Rstore.sync_key store ~key ~nodes:[ coordinator; peer ]
                      in
                      let shipped, entries =
                        List.fold_left
                          (fun (bytes, entries) (node, gained) ->
                            let b =
                              List.fold_left (fun b e -> b + entry_bytes e) 0 gained
                            in
                            if b > 0 then on_ship ~node ~bytes:b;
                            (bytes + b, entries + List.length gained))
                          (0, 0) repairs
                      in
                      {
                        acc with
                        keys_shipped = acc.keys_shipped + 1;
                        entries_shipped = acc.entries_shipped + entries;
                        shipped_bytes = acc.shipped_bytes + shipped;
                      }
                    end)
                  acc keys
              in
              if acc.keys_shipped > shipped_before then acc
              else { acc with digest_matches = acc.digest_matches + 1 })
            acc peers)
    zero_stats (buckets store)
