type t = {
  node_count : int;
  responsible : Hashing.Key.t -> int;
  route_hops : Hashing.Key.t -> int;
  replicas_into : Hashing.Key.t -> int -> Stdx.Int_buf.t -> unit;
}

let responsible t key = t.responsible key
let route_hops t key = t.route_hops key
let node_count t = t.node_count

let[@hot] replicas_into t key r buf = t.replicas_into key r buf

let replicas t key r =
  let buf = Stdx.Int_buf.create ~capacity:(Stdlib.max 1 (Stdlib.min r t.node_count)) () in
  t.replicas_into key r buf;
  Stdx.Int_buf.to_list buf

type ring = { positions : Hashing.Key.t array; prefixes : int array }

let ring positions = { positions; prefixes = Array.map Hashing.Key.prefix56 positions }

(* Lower bound over (prefix, key) pairs, which sort exactly as the keys
   do: the 56-bit prefixes decide almost every probe, and only a tie
   compares the full keys. *)
let rec ring_search r key p lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    let pm = Array.unsafe_get r.prefixes mid in
    if pm > p || (pm = p && Hashing.Key.compare (Array.unsafe_get r.positions mid) key >= 0)
    then ring_search r key p lo mid
    else ring_search r key p (mid + 1) hi

let[@hot] ring_successor r key =
  let n = Array.length r.positions in
  let i = ring_search r key (Hashing.Key.prefix56 key) 0 n in
  if i = n then 0 else i

let[@hot] ring_replicas_into ~node_count ~primary r buf =
  if r < 1 then
    invalid_arg "Resolver.ring_replicas_into: need at least one replica";
  Stdx.Int_buf.clear buf;
  for i = 0 to Stdlib.min r node_count - 1 do
    Stdx.Int_buf.push buf ((primary + i) mod node_count)
  done
