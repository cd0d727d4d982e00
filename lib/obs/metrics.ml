type labels = (string * string) list

(* ------------------------------------------------------------------ *)
(* Instruments. *)

module Counter = struct
  type t = { mutable value : int }

  let make () = { value = 0 }

  let incr ?(by = 1) c =
    if by < 0 then invalid_arg "Metrics.Counter.incr: counters are monotone";
    c.value <- c.value + by

  let add c n =
    if n < 0 then invalid_arg "Metrics.Counter.add: counters are monotone";
    c.value <- c.value + n

  let value c = c.value

  let reset c = c.value <- 0
end

module Gauge = struct
  type t = { mutable value : float }

  let make () = { value = 0.0 }
  let set g v = g.value <- v
  let value g = g.value
end

module Histogram = struct
  type t = {
    bounds : float array;  (* strictly increasing upper bounds *)
    counts : int array;  (* per bucket; length bounds + 1, last = overflow *)
    mutable sum : float;
    mutable total : int;
  }

  let make bounds =
    if Array.length bounds = 0 then
      invalid_arg "Metrics.histogram: need at least one bucket bound";
    Array.iteri
      (fun i b ->
        if not (Float.is_finite b) then
          invalid_arg "Metrics.histogram: bucket bounds must be finite";
        if i > 0 && b <= bounds.(i - 1) then
          invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing")
      bounds;
    {
      bounds = Array.copy bounds;
      counts = Array.make (Array.length bounds + 1) 0;
      sum = 0.0;
      total = 0;
    }

  let bucket_of h v =
    (* First bound >= v; the overflow bucket otherwise. *)
    let n = Array.length h.bounds in
    let rec go i = if i >= n then n else if v <= h.bounds.(i) then i else go (i + 1) in
    go 0

  let observe h v =
    let i = bucket_of h v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.sum <- h.sum +. v;
    h.total <- h.total + 1

  let observe_int h n = observe h (float_of_int n)

  let count h = h.total
  let sum h = h.sum

  let cumulative h =
    let acc = ref 0 in
    let finite =
      Array.to_list
        (Array.mapi
           (fun i bound ->
             acc := !acc + h.counts.(i);
             (bound, !acc))
           h.bounds)
    in
    finite @ [ (infinity, h.total) ]
end

let default_buckets = [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. |]

let linear_buckets ~start ~step ~count =
  if count <= 0 || step <= 0.0 then invalid_arg "Metrics.linear_buckets";
  Array.init count (fun i -> start +. (float_of_int i *. step))

let exponential_buckets ~start ~factor ~count =
  if count <= 0 || start <= 0.0 || factor <= 1.0 then
    invalid_arg "Metrics.exponential_buckets";
  let b = Array.make count start in
  for i = 1 to count - 1 do
    b.(i) <- b.(i - 1) *. factor
  done;
  b

(* ------------------------------------------------------------------ *)
(* Registry. *)

type kind = Counter_kind | Gauge_kind | Histogram_kind

let kind_label = function
  | Counter_kind -> "counter"
  | Gauge_kind -> "gauge"
  | Histogram_kind -> "histogram"

type instrument =
  | Counter_i of Counter.t
  | Gauge_i of Gauge.t
  | Histogram_i of Histogram.t

type family_state = {
  help : string;
  fkind : kind;
  buckets : float array option;  (* fixed by first histogram registration *)
  mutable instruments : (labels * instrument) list;
}

type t = { families : (string, family_state) Hashtbl.t }

let create () = { families = Hashtbl.create 32 }

let valid_name s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s

let check_name what s =
  if not (valid_name s) then
    invalid_arg (Printf.sprintf "Metrics: invalid %s %S" what s)

let normalize_labels labels =
  List.iter (fun (k, _) -> check_name "label name" k) labels;
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let rec check_dups = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg (Printf.sprintf "Metrics: duplicate label %S" a);
        check_dups rest
    | [ _ ] | [] -> ()
  in
  check_dups sorted;
  sorted

let family t ~name ~help ~kind ~buckets =
  check_name "metric name" name;
  match Hashtbl.find_opt t.families name with
  | Some f ->
      if f.fkind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_label f.fkind)
             (kind_label kind));
      f
  | None ->
      let f = { help; fkind = kind; buckets; instruments = [] } in
      Hashtbl.add t.families name f;
      f

let series f ~labels ~make =
  match List.assoc_opt labels f.instruments with
  | Some i -> i
  | None ->
      let i = make () in
      f.instruments <- (labels, i) :: f.instruments;
      i

let counter t ?(help = "") ?(labels = []) name =
  let labels = normalize_labels labels in
  let f = family t ~name ~help ~kind:Counter_kind ~buckets:None in
  match series f ~labels ~make:(fun () -> Counter_i (Counter.make ())) with
  | Counter_i c -> c
  | Gauge_i _ | Histogram_i _ -> assert false

let gauge t ?(help = "") ?(labels = []) name =
  let labels = normalize_labels labels in
  let f = family t ~name ~help ~kind:Gauge_kind ~buckets:None in
  match series f ~labels ~make:(fun () -> Gauge_i (Gauge.make ())) with
  | Gauge_i g -> g
  | Counter_i _ | Histogram_i _ -> assert false

let histogram t ?(help = "") ?(labels = []) ?(buckets = default_buckets) name =
  let labels = normalize_labels labels in
  let f = family t ~name ~help ~kind:Histogram_kind ~buckets:(Some buckets) in
  let bounds = match f.buckets with Some b -> b | None -> buckets in
  match series f ~labels ~make:(fun () -> Histogram_i (Histogram.make bounds)) with
  | Histogram_i h -> h
  | Counter_i _ | Gauge_i _ -> assert false

(* ------------------------------------------------------------------ *)
(* Snapshots. *)

type histogram_snapshot = { buckets : (float * int) list; sum : float; count : int }

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram_snapshot

type series = { labels : labels; value : value }

type family = { name : string; help : string; kind : kind; series : series list }

type snapshot = family list

let labels_compare (a : labels) (b : labels) = compare a b

let snapshot t =
  Stdx.Det_tbl.fold_sorted ~compare:String.compare
    (fun name (f : family_state) acc ->
      let series =
        List.map
          (fun (labels, instrument) ->
            let value =
              match instrument with
              | Counter_i c -> Counter_value (Counter.value c)
              | Gauge_i g -> Gauge_value (Gauge.value g)
              | Histogram_i h ->
                  Histogram_value
                    {
                      buckets = Histogram.cumulative h;
                      sum = Histogram.sum h;
                      count = Histogram.count h;
                    }
            in
            { labels; value })
          f.instruments
        |> List.sort (fun a b -> labels_compare a.labels b.labels)
      in
      { name; help = f.help; kind = f.fkind; series } :: acc)
    t.families []
  |> List.sort (fun a b -> String.compare a.name b.name)

(* Per-shard snapshot merge: the sharded engine runs S isolated
   sub-simulations, each with its own registry, and folds their snapshots
   into one network-wide view.  Families and series are merged by name and
   label set (both sides are sorted, so this is a linear merge that keeps
   the {!snapshot} ordering invariant). *)

let has_info_suffix name =
  let n = String.length name in
  n >= 5 && String.equal (String.sub name (n - 5) 5) "_info"

let merge_value name a b =
  match (a, b) with
  | Counter_value x, Counter_value y -> Counter_value (x + y)
  | Gauge_value x, Gauge_value y ->
      (* Gauges add (queue depths, per-phase words); [_info] families are
         constant markers carried by every shard, where a sum would turn
         "present" into a shard count — keep the max instead. *)
      Gauge_value (if has_info_suffix name then Float.max x y else x +. y)
  | Histogram_value x, Histogram_value y ->
      let buckets =
        try
          List.map2
            (fun (bx, cx) (by, cy) ->
              if not (Float.equal bx by) then raise Exit;
              (bx, cx + cy))
            x.buckets y.buckets
        with Exit | Invalid_argument _ ->
          invalid_arg
            (Printf.sprintf "Metrics.merge_snapshots: %S bucket bounds differ" name)
      in
      Histogram_value { buckets; sum = x.sum +. y.sum; count = x.count + y.count }
  | (Counter_value _ | Gauge_value _ | Histogram_value _), _ ->
      invalid_arg (Printf.sprintf "Metrics.merge_snapshots: %S kind mismatch" name)

let rec merge_series name xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | x :: xt, y :: yt ->
      let c = labels_compare x.labels y.labels in
      if c = 0 then
        { labels = x.labels; value = merge_value name x.value y.value }
        :: merge_series name xt yt
      else if c < 0 then x :: merge_series name xt ys
      else y :: merge_series name xs yt

let rec merge_families xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | x :: xt, y :: yt ->
      let c = String.compare x.name y.name in
      if c = 0 then begin
        if x.kind <> y.kind then
          invalid_arg
            (Printf.sprintf "Metrics.merge_snapshots: %S kind mismatch" x.name);
        let help = if String.equal x.help "" then y.help else x.help in
        { x with help; series = merge_series x.name x.series y.series }
        :: merge_families xt yt
      end
      else if c < 0 then x :: merge_families xt ys
      else y :: merge_families xs yt

let merge_snapshots = function
  | [] -> []
  | first :: rest -> List.fold_left merge_families first rest

let snapshot_quantile hs q =
  if hs.count = 0 then nan
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let target = q *. float_of_int hs.count in
    let rec locate prev_bound = function
      | [] -> prev_bound
      | (bound, cum) :: rest ->
          if float_of_int cum >= target then
            if Float.is_finite bound then bound else prev_bound
          else locate (if Float.is_finite bound then bound else prev_bound) rest
    in
    locate 0.0 hs.buckets
  end

let counter_total snap name =
  match List.find_opt (fun f -> String.equal f.name name) snap with
  | None -> 0
  | Some f ->
      List.fold_left
        (fun acc s -> match s.value with Counter_value n -> acc + n | _ -> acc)
        0 f.series

let counter_value snap ?(labels = []) name =
  let labels = normalize_labels labels in
  match List.find_opt (fun f -> String.equal f.name name) snap with
  | None -> 0
  | Some f -> (
      match List.find_opt (fun s -> labels_compare s.labels labels = 0) f.series with
      | Some { value = Counter_value n; _ } -> n
      | Some _ | None -> 0)
