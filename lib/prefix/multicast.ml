type tree = { members : int array }

let build members =
  if members = [] then invalid_arg "Multicast.build: empty member list";
  let seen = Hashtbl.create 16 in
  let uniq =
    List.filter
      (fun node ->
        if Hashtbl.mem seen node then false
        else begin
          Hashtbl.add seen node ();
          true
        end)
      members
  in
  { members = Array.of_list uniq }

let members t = Array.to_list t.members

let edges t =
  let n = Array.length t.members in
  let acc = ref [] in
  for i = n - 1 downto 1 do
    acc := (t.members.((i - 1) / 2), t.members.(i)) :: !acc
  done;
  !acc

(* Level of heap slot [i]: the root sits at level 1 (one hop from the
   initiator), its children at level 2, ... *)
let level i =
  let l = ref 1 and j = ref i in
  while !j > 0 do
    j := (!j - 1) / 2;
    incr l
  done;
  !l

let depth t = level (Array.length t.members - 1)

type stats = { messages : int; depth : int; fanout : int }

let disseminate ~rpc ~bytes ~deliver t =
  (* Initiator hands the payload to the root, then each tree edge forwards
     it one level down: exactly one message per member, 1 + the edge count. *)
  Array.iter
    (fun node ->
      deliver node;
      Dht.Rpc.send rpc ~dst:node ~bytes:(bytes node) ~category:Dht.Network.Maintenance)
    t.members;
  let n = Array.length t.members in
  { messages = n; depth = depth t; fanout = n }
