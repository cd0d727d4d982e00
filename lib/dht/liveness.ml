(* Packed-bitset liveness: one bit per node plus a live counter.  The
   bitset bounds-checks every access, so an out-of-range node raises
   [Invalid_argument] from the probe itself. *)

type t = { alive : Stdx.Bitset.t; mutable live : int }

let create ~node_count =
  if node_count <= 0 then invalid_arg "Liveness.create: need at least one node";
  { alive = Stdx.Bitset.create ~len:node_count ~default:true; live = node_count }

let node_count t = Stdx.Bitset.length t.alive

let[@hot] alive t node = Stdx.Bitset.get t.alive node

let fail t node =
  if Stdx.Bitset.get t.alive node then begin
    Stdx.Bitset.set t.alive node false;
    t.live <- t.live - 1;
    true
  end
  else false

let revive t node =
  if Stdx.Bitset.get t.alive node then false
  else begin
    Stdx.Bitset.set t.alive node true;
    t.live <- t.live + 1;
    true
  end

let live_count t = t.live

let[@hot] rec scan_buf t buf i n =
  if i >= n then -1
  else begin
    let node = Stdx.Int_buf.unsafe_get buf i in
    if Stdx.Bitset.get t.alive node then node else scan_buf t buf (i + 1) n
  end

let[@hot] first_live_buf t buf = scan_buf t buf 0 (Stdx.Int_buf.length buf)
