type latency =
  | No_latency
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }

type spec = {
  loss_rate : float;
  duplicate_rate : float;
  latency : latency;
}

let zero_spec = { loss_rate = 0.0; duplicate_rate = 0.0; latency = No_latency }

let valid_rate r = Float.is_finite r && r >= 0.0 && r <= 1.0

let validate_spec s =
  if not (valid_rate s.loss_rate) then
    invalid_arg "Plan.spec: loss_rate must lie in [0, 1]";
  if not (valid_rate s.duplicate_rate) then
    invalid_arg "Plan.spec: duplicate_rate must lie in [0, 1]";
  match s.latency with
  | No_latency -> ()
  | Constant c ->
      if not (Float.is_finite c && c >= 0.0) then
        invalid_arg "Plan.spec: constant latency must be finite and >= 0"
  | Uniform { lo; hi } ->
      if not (Float.is_finite lo && Float.is_finite hi && 0.0 <= lo && lo <= hi)
      then invalid_arg "Plan.spec: uniform latency needs 0 <= lo <= hi"
  | Exponential { mean } ->
      if not (Float.is_finite mean && mean >= 0.0) then
        invalid_arg "Plan.spec: exponential latency mean must be finite and >= 0"

let spec ?(loss_rate = 0.0) ?(duplicate_rate = 0.0) ?(latency = No_latency) () =
  let s = { loss_rate; duplicate_rate; latency } in
  validate_spec s;
  s

let spec_is_zero s =
  s.loss_rate = 0.0 && s.duplicate_rate = 0.0
  &&
  match s.latency with
  | No_latency | Constant 0.0 -> true
  | Uniform { lo = 0.0; hi = 0.0 } | Exponential { mean = 0.0 } -> true
  | Constant _ | Uniform _ | Exponential _ -> false

type t = {
  seed : int64;
  base : spec;
  node_overrides : (int, spec) Hashtbl.t;
  link_overrides : (int * int, spec) Hashtbl.t;
  mutable next_id : int64;
  control : Stdx.Prng.t;
  zero : bool;
}

let create ?(seed = 0L) ?(node_overrides = []) ?(link_overrides = []) base =
  validate_spec base;
  let nodes = Hashtbl.create (List.length node_overrides + 1) in
  List.iter
    (fun (node, s) ->
      if node < 0 then invalid_arg "Plan.create: override node index must be >= 0";
      validate_spec s;
      Hashtbl.replace nodes node s)
    node_overrides;
  let links = Hashtbl.create (List.length link_overrides + 1) in
  List.iter
    (fun (link, s) ->
      validate_spec s;
      Hashtbl.replace links link s)
    link_overrides;
  let zero =
    spec_is_zero base
    && Hashtbl.fold (fun _ s acc -> acc && spec_is_zero s) nodes true
    && Hashtbl.fold (fun _ s acc -> acc && spec_is_zero s) links true
  in
  {
    seed;
    base;
    node_overrides = nodes;
    link_overrides = links;
    next_id = 0L;
    control = Stdx.Prng.create ~seed:(Int64.logxor seed 0x636f6e74726f6cL);
    zero;
  }

let zero = create zero_spec

let is_zero t = t.zero

type verdict = { lost : bool; duplicated : bool; latency : float }

let clean_verdict = { lost = false; duplicated = false; latency = 0.0 }

let resolve t ~src ~dst =
  match Hashtbl.find_opt t.link_overrides (src, dst) with
  | Some s -> s
  | None -> (
      match Hashtbl.find_opt t.node_overrides dst with
      | Some s -> s
      | None -> (
          match Hashtbl.find_opt t.node_overrides src with
          | Some s -> s
          | None -> t.base))

(* One PRNG per message, keyed by (seed, message id): the verdict is a
   pure function of the pair, so sampling one message never perturbs
   another and the whole stream replays from the seed. *)
let message_prng t id =
  Stdx.Prng.create
    ~seed:(Int64.logxor t.seed (Int64.mul id 0x9e3779b97f4a7c15L))

let sample_latency g = function
  | No_latency -> 0.0
  | Constant c -> c
  | Uniform { lo; hi } -> lo +. Stdx.Prng.float g (hi -. lo)
  | Exponential { mean } ->
      if mean = 0.0 then 0.0
      else -.mean *. log (1.0 -. Stdx.Prng.unit_float g)

let message t ~src ~dst =
  let id = t.next_id in
  t.next_id <- Int64.add id 1L;
  if t.zero then clean_verdict
  else begin
    let s = resolve t ~src ~dst in
    let g = message_prng t id in
    let lost = Stdx.Prng.unit_float g < s.loss_rate in
    let duplicated = Stdx.Prng.unit_float g < s.duplicate_rate in
    let latency = sample_latency g s.latency in
    { lost; duplicated; latency }
  end

let hop_survives t ~dst = not (message t ~src:dst ~dst).lost

let control_uniform t = Stdx.Prng.unit_float t.control
