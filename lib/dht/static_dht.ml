module Key = Hashing.Key

type t = { keys : Key.t array; ring : Resolver.ring }

let of_keys keys =
  if Array.length keys = 0 then invalid_arg "Static_dht.of_keys: no nodes";
  let sorted = Array.copy keys in
  Array.sort Key.compare sorted;
  for i = 1 to Array.length sorted - 1 do
    if Key.equal sorted.(i - 1) sorted.(i) then
      invalid_arg "Static_dht.of_keys: duplicate node identifier"
  done;
  { keys = sorted; ring = Resolver.ring sorted }

let create ?(seed = 1L) ~node_count () =
  if node_count <= 0 then invalid_arg "Static_dht.create: need at least one node";
  let g = Stdx.Prng.create ~seed in
  let table = Hashtbl.create node_count in
  let rec fresh () =
    let k = Key.random g in
    if Hashtbl.mem table k then fresh ()
    else begin
      Hashtbl.add table k ();
      k
    end
  in
  of_keys (Array.init node_count (fun _ -> fresh ()))

let node_key t i =
  if i < 0 || i >= Array.length t.keys then invalid_arg "Static_dht.node_key: bad index";
  t.keys.(i)

(* First node whose identifier is >= key, wrapping to node 0. *)
let responsible t key = Resolver.ring_successor t.ring key

let resolver t = Resolver.of_ring t.ring ~owner:Resolver.ring_successor ~route_hops:(fun _ -> 1) ()
