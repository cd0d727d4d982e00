type category = Request | Response | Cache_update | Maintenance

let category_label = function
  | Request -> "request"
  | Response -> "response"
  | Cache_update -> "cache-update"
  | Maintenance -> "maintenance"

let category_index = function
  | Request -> 0
  | Response -> 1
  | Cache_update -> 2
  | Maintenance -> 3

let all_categories = [| Request; Response; Cache_update; Maintenance |]

(* The traffic counts live in registry counters, one (messages, bytes)
   pair per category, prefetched so [send] stays two array reads and two
   increments. *)
type instruments = {
  msg_counters : Obs.Metrics.Counter.t array;
  byte_counters : Obs.Metrics.Counter.t array;
  touch_counter : Obs.Metrics.Counter.t;
}

type t = {
  node_count : int;
  touches : int array; (* per node *)
  instruments : instruments;
}

let make_instruments registry =
  let per_category name help =
    Array.map
      (fun category ->
        Obs.Metrics.counter registry ~help
          ~labels:[ ("category", category_label category) ]
          name)
      all_categories
  in
  {
    msg_counters =
      per_category "p2pindex_network_messages_total" "Messages delivered, by category";
    byte_counters =
      per_category "p2pindex_network_bytes_total" "Bytes delivered, by category";
    touch_counter =
      Obs.Metrics.counter registry ~help:"Per-interaction node accesses (Fig. 15 load)"
        "p2pindex_network_touches_total";
  }

let create ?metrics ~node_count () =
  if node_count <= 0 then invalid_arg "Network.create: need at least one node";
  (* Without a shared registry the counters live in a private one. *)
  let registry = match metrics with Some r -> r | None -> Obs.Metrics.create () in
  Obs.Metrics.Gauge.set
    (Obs.Metrics.gauge registry ~help:"Peers in the simulated network"
       "p2pindex_network_nodes")
    (float_of_int node_count);
  {
    node_count;
    touches = Array.make node_count 0;
    instruments = make_instruments registry;
  }

let send t ~dst ~bytes ~category =
  if dst < 0 || dst >= t.node_count then
    invalid_arg
      (Printf.sprintf "Network.send: node %d out of range [0, %d)" dst
         t.node_count);
  if bytes < 0 then
    invalid_arg (Printf.sprintf "Network.send: negative byte count %d" bytes);
  let i = category_index category in
  Obs.Metrics.Counter.incr t.instruments.msg_counters.(i);
  Obs.Metrics.Counter.add t.instruments.byte_counters.(i) bytes

let[@hot] touch t ~node =
  if node < 0 || node >= t.node_count then
    invalid_arg
      (Printf.sprintf "Network.touch: node %d out of range [0, %d)" node
         t.node_count);
  t.touches.(node) <- t.touches.(node) + 1;
  Obs.Metrics.Counter.incr t.instruments.touch_counter

let messages t category =
  Obs.Metrics.Counter.value t.instruments.msg_counters.(category_index category)

let bytes t category =
  Obs.Metrics.Counter.value t.instruments.byte_counters.(category_index category)

let sum counters =
  Array.fold_left (fun acc c -> acc + Obs.Metrics.Counter.value c) 0 counters

let total_messages t = sum t.instruments.msg_counters
let total_bytes t = sum t.instruments.byte_counters

let touches t = Array.copy t.touches

let reset t =
  Array.fill t.touches 0 t.node_count 0;
  Array.iter Obs.Metrics.Counter.reset t.instruments.msg_counters;
  Array.iter Obs.Metrics.Counter.reset t.instruments.byte_counters;
  Obs.Metrics.Counter.reset t.instruments.touch_counter
