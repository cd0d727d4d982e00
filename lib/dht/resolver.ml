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

let[@hot] ring_replicas_into ~node_count ~primary r buf =
  if r < 1 then
    invalid_arg "Resolver.ring_replicas_into: need at least one replica";
  Stdx.Int_buf.clear buf;
  for i = 0 to Stdlib.min r node_count - 1 do
    Stdx.Int_buf.push buf ((primary + i) mod node_count)
  done
