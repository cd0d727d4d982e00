module Key = Hashing.Key

type 'a entry = { node : 'a; mutable alive : bool }

(* [ring] holds the live keys as of the last read; [stale] says a join or
   failure has changed them since. *)
type 'a t = {
  table : 'a entry Key.Table.t;
  prng : Stdx.Prng.t;
  mutable live : int;
  mutable ring : Resolver.ring;
  mutable stale : bool;
}

let create ~seed () =
  {
    table = Key.Table.create 64;
    prng = Stdx.Prng.create ~seed;
    live = 0;
    ring = Resolver.ring [||];
    stale = false;
  }

let rec fresh_key t =
  let k = Key.random t.prng in
  if Key.Table.mem t.table k then fresh_key t else k

let is_alive t key =
  match Key.Table.find t.table key with e -> e.alive | exception Not_found -> false

let add t key node =
  if is_alive t key then invalid_arg "Members.add: identifier already live";
  Key.Table.replace t.table key { node; alive = true };
  t.live <- t.live + 1;
  t.stale <- true

let fail t key =
  match Key.Table.find t.table key with
  | e when e.alive ->
      e.alive <- false;
      t.live <- t.live - 1;
      t.stale <- true
  | _ | (exception Not_found) -> raise Not_found

let find t key =
  match Key.Table.find t.table key with
  | e -> e.node
  | exception Not_found -> invalid_arg "Members.find: identifier never added"

let live_count t = t.live

let ring t =
  if t.stale then begin
    let keys = Array.make t.live Key.zero in
    let next = ref 0 in
    (* lint: allow D2 — the collected keys are sorted before use, so bucket order cannot reach the result *)
    Key.Table.iter
      (fun k e ->
        if e.alive then begin
          keys.(!next) <- k;
          incr next
        end)
      t.table;
    Array.sort Key.compare keys;
    t.ring <- Resolver.ring keys;
    t.stale <- false
  end;
  t.ring

let live_keys t =
  let r = ring t in
  List.init (Resolver.ring_length r) (Resolver.ring_key r)

let first_live t =
  let r = ring t in
  if Resolver.ring_length r = 0 then raise Not_found;
  Resolver.ring_key r 0

let owner t rule key =
  let r = ring t in
  if Resolver.ring_length r = 0 then raise Not_found;
  Resolver.ring_key r (rule r key)
