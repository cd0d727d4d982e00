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

let ring_length r = Array.length r.positions
let ring_key r i = r.positions.(i)

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

(* The positions in [lo, hi) share their first [d] bits, so those with
   bit [d] set come last: the index of the first of them. *)
let rec xor_split r d lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if Hashing.Key.bit (Array.unsafe_get r.positions mid) d = 1 then xor_split r d lo mid
    else xor_split r d (mid + 1) hi

(* Every position in [lo, hi) agrees with the others above their first
   differing bit [d], so at [d] the half that agrees with the key is
   XOR-closer than the other half, position for position. *)
let first_split r lo hi =
  Hashing.Key.common_prefix_bits
    (Array.unsafe_get r.positions lo)
    (Array.unsafe_get r.positions (hi - 1))

let rec xor_descend r key lo hi =
  if hi - lo <= 1 then lo
  else
    let d = first_split r lo hi in
    let m = xor_split r d lo hi in
    if Hashing.Key.bit key d = 0 then xor_descend r key lo m else xor_descend r key m hi

let[@hot] ring_xor_closest r key =
  let n = Array.length r.positions in
  if n = 0 then invalid_arg "Resolver.ring_xor_closest: empty ring";
  xor_descend r key 0 n

(* The positions of [lo, hi) in XOR order from the key: the nearer half
   in full, then the farther one, until [buf] holds [want]. *)
let rec xor_emit r key want buf lo hi =
  if Stdx.Int_buf.length buf < want then
    if hi - lo = 1 then Stdx.Int_buf.push buf lo
    else begin
      let d = first_split r lo hi in
      let m = xor_split r d lo hi in
      if Hashing.Key.bit key d = 0 then begin
        xor_emit r key want buf lo m;
        xor_emit r key want buf m hi
      end
      else begin
        xor_emit r key want buf m hi;
        xor_emit r key want buf lo m
      end
    end

let[@hot] ring_xor_replicas_into r key want buf =
  Stdx.Int_buf.clear buf;
  let n = Array.length r.positions in
  xor_emit r key (Stdlib.min want n) buf 0 n

let[@hot] ring_replicas_into ~node_count ~primary r buf =
  if r < 1 then
    invalid_arg "Resolver.ring_replicas_into: need at least one replica";
  Stdx.Int_buf.clear buf;
  for i = 0 to Stdlib.min r node_count - 1 do
    Stdx.Int_buf.push buf ((primary + i) mod node_count)
  done

let of_ring ring ~owner ?replicas_into ~route_hops () =
  let node_count = ring_length ring in
  if node_count = 0 then invalid_arg "Resolver.of_ring: no nodes";
  let responsible = owner ring in
  let replicas_into =
    match replicas_into with
    | Some place -> place ring
    | None -> fun key r buf -> ring_replicas_into ~node_count ~primary:(responsible key) r buf
  in
  { node_count; responsible; route_hops; replicas_into }
