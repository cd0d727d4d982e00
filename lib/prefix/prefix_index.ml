module Rstore = Storage.Replicated_store
module Wire = P2pindex.Wire

type instruments = {
  queries : Obs.Metrics.Counter.t;
  installs : Obs.Metrics.Counter.t;
  covering : Obs.Metrics.Histogram.t;
  results : Obs.Metrics.Histogram.t;
  mc_fanout : Obs.Metrics.Histogram.t;
  mc_depth : Obs.Metrics.Histogram.t;
  mc_messages : Obs.Metrics.Histogram.t;
}

(* A stored entry carries its term, since terms longer than the key width
   share a key, and its payload's rendering, fixed at publication: entry
   equality, result order and traffic compare and measure strings and
   never render again. *)
type 'a stored = { term : string; rendered : string; payload : 'a }

type 'a t = {
  resolver : Dht.Resolver.t;
  rpc : Dht.Rpc.t;
  render : 'a -> string;
  store : 'a stored Rstore.t;
  clock : unit -> float;
  ttl : float;
  obs : instruments option;
}

let make_instruments registry =
  let counter name help = Obs.Metrics.counter registry ~help name in
  let histogram name help =
    Obs.Metrics.histogram registry ~help name
      ~buckets:(Obs.Metrics.exponential_buckets ~start:1.0 ~factor:2.0 ~count:10)
  in
  {
    queries = counter "p2pindex_prefix_queries_total" "Routed prefix queries issued.";
    installs =
      counter "p2pindex_prefix_installs_total" "Index entries installed on covering nodes.";
    covering =
      histogram "p2pindex_prefix_covering_nodes" "Covering nodes contacted per prefix query.";
    results = histogram "p2pindex_prefix_results" "Result-set size per prefix query.";
    mc_fanout =
      histogram "p2pindex_prefix_multicast_fanout" "Members reached per multicast dissemination.";
    mc_depth =
      histogram "p2pindex_prefix_multicast_depth"
        "Spanning-tree depth in hops per multicast dissemination.";
    mc_messages =
      histogram "p2pindex_prefix_multicast_messages" "Messages sent per multicast dissemination.";
  }

let create ?rpc ?metrics ?(replication = 1) ?liveness ?(clock = fun () -> 0.0)
    ?(ttl = infinity) ~render ~resolver () =
  {
    resolver;
    rpc = (match rpc with Some r -> r | None -> Dht.Rpc.create ());
    render;
    store = Rstore.create ~resolver ~replication ?liveness ~clock ();
    clock;
    ttl;
    obs = Option.map make_instruments metrics;
  }

let store t = t.store
let observe t f = match t.obs with None -> () | Some o -> f o

let observe_stats t (s : Multicast.stats) =
  observe t (fun o ->
      Obs.Metrics.Histogram.observe_int o.mc_fanout s.fanout;
      Obs.Metrics.Histogram.observe_int o.mc_depth s.depth;
      Obs.Metrics.Histogram.observe_int o.mc_messages s.messages)

(* ------------------------------------------------------------------ *)
(* Writes: every entry is filed under [Prefix_key.encode term]. *)

let same_entry a b = String.equal a.rendered b.rendered && String.equal a.term b.term
let entry_equal = Some same_entry
let install_bytes v = Wire.cache_install_bytes v.term v.rendered
let keyed t (term, payload) = (Prefix_key.encode term, { term; rendered = t.render payload; payload })

(* One store write per key, in first-seen order, of the key's distinct
   entries newest first ({!Rstore.insert_entries}), each billed per live
   replica as one reliable Maintenance message: publication bills the
   entries the write installed anew, republication ([refresh]) every
   entry, as the hashed index's republication does.  [reached] is a node
   a multicast tree message has already billed (-1 for none). *)
let write t ~refresh ~reached entries =
  let expires_at = if t.ttl = infinity then infinity else t.clock () +. t.ttl in
  let groups = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (key, v) ->
      match Hashtbl.find_opt groups key with
      | None ->
          Hashtbl.replace groups key (ref 1, ref [ v ]);
          order := key :: !order
      | Some (writes, distinct) ->
          incr writes;
          if not (List.exists (same_entry v) !distinct) then distinct := v :: !distinct)
    entries;
  List.iter
    (fun key ->
      let writes, distinct = Hashtbl.find groups key in
      observe t (fun o -> Obs.Metrics.Counter.incr ~by:!writes o.installs);
      let count = ref 0 and lens = ref 0 in
      let entries =
        List.map
          (fun v ->
            let len = String.length v.rendered in
            incr count;
            lens := !lens + len;
            Rstore.make_entry ~len v)
          !distinct
      in
      let fresh =
        Rstore.insert_entries ~equal:entry_equal t.store ~key ~writes:!writes ~expires_at
          ~count:!count ~lens:!lens entries
      in
      let replicas = Rstore.replica_buf t.store key in
      for i = 0 to Stdx.Int_buf.length replicas - 1 do
        let dst = Stdx.Int_buf.unsafe_get replicas i in
        if dst <> reached && Rstore.alive t.store dst then
          List.iter
            (fun e ->
              Dht.Rpc.send t.rpc ~dst ~bytes:(install_bytes (Rstore.entry_value e))
                ~category:Dht.Network.Maintenance)
            (if refresh then entries else fresh)
      done)
    (List.rev !order)

let publish t entries = write t ~refresh:false ~reached:(-1) (List.map (keyed t) entries)
let republish t entries = write t ~refresh:true ~reached:(-1) (List.map (keyed t) entries)

let publish_multicast t entries =
  match entries with
  | [] -> None
  | _ ->
      let by_node = Hashtbl.create 16 in
      List.iter
        (fun entry ->
          let ((key, _) as e) = keyed t entry in
          let dst = Rstore.node_of t.store key in
          Hashtbl.replace by_node dst (e :: Option.value ~default:[] (Hashtbl.find_opt by_node dst)))
        entries;
      (* Tree slot [i] holds the [i]th node in ascending order. *)
      let batches = Array.of_list (Stdx.Det_tbl.sorted_bindings by_node) in
      let tree = Multicast.build (Array.to_list (Array.map fst batches)) in
      let slot_of = Hashtbl.create 16 in
      Array.iteri (fun i (node, _) -> Hashtbl.replace slot_of node i) batches;
      (* A tree message addressed to a node carries every install destined
         to its whole subtree, so price each slot bottom-up. *)
      let subtree =
        Array.map (fun (_, b) -> List.fold_left (fun acc (_, v) -> acc + install_bytes v) 0 b) batches
      in
      for i = Array.length batches - 1 downto 1 do
        subtree.((i - 1) / 2) <- subtree.((i - 1) / 2) + subtree.(i)
      done;
      let stats =
        Multicast.disseminate ~rpc:t.rpc
          ~bytes:(fun node -> subtree.(Hashtbl.find slot_of node))
          ~deliver:(fun node ->
            write t ~refresh:false ~reached:node (List.rev (snd batches.(Hashtbl.find slot_of node))))
          tree
      in
      observe_stats t stats;
      Some stats

(* ------------------------------------------------------------------ *)
(* Reads. *)

(* Who answers each covering arc, as [(arc primary, reader)] pairs in
   ring-walk order: the primary when it is alive, else the first live
   node of the arc's replica set — the next [replication - 1] nodes of
   the walk.  An arc whose whole replica set is down has no pair. *)
let readers t ~lo ~hi =
  let covering = Range_router.covering_nodes t.resolver ~lo ~hi in
  let r = Rstore.replication t.store in
  let walk =
    Dht.Resolver.replicas t.resolver lo
      (Stdlib.min (Dht.Resolver.node_count t.resolver) (List.length covering + r - 1))
    |> Array.of_list
  in
  let n = Array.length walk in
  List.concat
    (List.mapi
       (fun i arc ->
         List.init (Stdlib.min r n) (fun j -> walk.((i + j) mod n))
         |> List.find_opt (Rstore.alive t.store)
         |> Option.fold ~none:[] ~some:(fun node -> [ (arc, node) ]))
       covering)

let compare_entry a b =
  match String.compare a.term b.term with 0 -> String.compare a.rendered b.rendered | c -> c

let merge_results rs = List.sort_uniq compare_entry rs

(* What [node] contributes: its entries in the prefix's key range whose
   term extends the prefix — terms longer than the key width can collide
   on one key, hence the exact re-check — and whose key's primary it
   answers for in [arcs] ([None]: every key). *)
let local_results t node ~prefix ~lo ~hi ~arcs =
  Rstore.fold_range t.store ~node ~lo ~hi ~init:[] ~f:(fun acc key entries ->
      match arcs with
      | Some arcs when not (List.mem (Rstore.node_of t.store key, node) arcs) -> acc
      | Some _ | None ->
          List.fold_left
            (fun acc e ->
              let v = Rstore.entry_value e in
              if Prefix_key.is_prefix prefix v.term then v :: acc else acc)
            acc entries)
  |> merge_results

let request_wire prefix = Wire.request_bytes (prefix ^ "*")
let response_wire rs = Wire.response_bytes_of_len ~len:(fun v -> String.length v.rendered) rs

let call_node t ?route_key ~prefix ~lo ~hi ~arcs node =
  let handler ~node =
    if Rstore.alive t.store node then
      let rs = local_results t node ~prefix ~lo ~hi ~arcs in
      Dht.Rpc.Reply { bytes = response_wire rs; value = rs }
    else Dht.Rpc.No_response
  in
  match Dht.Rpc.call t.rpc ~dst:node ?route_key ~request_bytes:(request_wire prefix) ~handler () with
  | Dht.Rpc.Answered { value; _ } -> value
  | Dht.Rpc.Exhausted -> []

(* Direct mode: route to the first reader, then contact each further
   reader with its own request/response exchange. *)
let query_direct t ~prefix ~lo ~hi ~arcs = function
  | [] -> []
  | first :: rest ->
      let arcs = Some arcs in
      List.fold_left
        (fun acc node -> call_node t ~prefix ~lo ~hi ~arcs node @ acc)
        (call_node t ~route_key:lo ~prefix ~lo ~hi ~arcs first)
        rest
      |> merge_results

(* Multicast mode: one routed call to the tree root, then the query fans down
   the tree edges and the result sets aggregate back up along the same edges.
   Per-member results travel once per level above them, which is the
   bytes-vs-initiator-load trade-off the prefix-sweep experiment plots. *)
let query_multicast t ~prefix ~lo ~hi ~arcs members =
  let tree = Multicast.build members in
  let arr = Array.of_list (Multicast.members tree) in
  let n = Array.length arr in
  let subtree = Array.map (fun node -> local_results t node ~prefix ~lo ~hi ~arcs:(Some arcs)) arr in
  for i = n - 1 downto 0 do
    let kids = if (2 * i) + 1 < n then subtree.((2 * i) + 1) else [] in
    let kids = if (2 * i) + 2 < n then subtree.((2 * i) + 2) @ kids else kids in
    subtree.(i) <- merge_results (subtree.(i) @ kids)
  done;
  let root_reply ~node:_ =
    if Rstore.alive t.store arr.(0) then
      Dht.Rpc.Reply { bytes = response_wire subtree.(0); value = () }
    else Dht.Rpc.No_response
  in
  match
    Dht.Rpc.call t.rpc ~dst:arr.(0) ~route_key:lo ~request_bytes:(request_wire prefix)
      ~handler:root_reply ()
  with
  | Dht.Rpc.Exhausted -> []
  | Dht.Rpc.Answered _ ->
      (* Downward fan: one query copy per tree edge. *)
      List.iter
        (fun (_parent, child) ->
          Dht.Rpc.send t.rpc ~dst:child ~bytes:(request_wire prefix)
            ~category:Dht.Network.Request)
        (Multicast.edges tree);
      (* Upward aggregation: each child ships its subtree's merged results
         to its parent. *)
      for i = 1 to n - 1 do
        Dht.Rpc.send t.rpc ~dst:arr.((i - 1) / 2) ~bytes:(response_wire subtree.(i))
          ~category:Dht.Network.Response
      done;
      observe_stats t { messages = n; depth = Multicast.depth tree; fanout = n };
      subtree.(0)

let pairs rs = List.map (fun v -> (v.term, v.payload)) rs

let query ?(multicast = false) t ~prefix =
  observe t (fun o -> Obs.Metrics.Counter.incr o.queries);
  let lo, hi = Prefix_key.range prefix in
  let arcs = readers t ~lo ~hi in
  let members =
    List.rev (List.fold_left (fun acc (_, m) -> if List.mem m acc then acc else m :: acc) [] arcs)
  in
  observe t (fun o -> Obs.Metrics.Histogram.observe_int o.covering (List.length members));
  let results =
    match members with
    | [] -> []
    | _ when multicast -> query_multicast t ~prefix ~lo ~hi ~arcs members
    | _ -> query_direct t ~prefix ~lo ~hi ~arcs members
  in
  observe t (fun o -> Obs.Metrics.Histogram.observe_int o.results (List.length results));
  ((match members with m :: _ -> m | [] -> Rstore.node_of t.store lo), pairs results)

let query_broadcast t ~prefix =
  let lo, hi = Prefix_key.range prefix in
  let acc = ref [] in
  for node = 0 to Dht.Resolver.node_count t.resolver - 1 do
    if Rstore.alive t.store node then acc := call_node t ~prefix ~lo ~hi ~arcs:None node @ !acc
  done;
  pairs (merge_results !acc)
