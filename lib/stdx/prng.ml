(* SplitMix64: each call advances the state by a fixed odd constant (a Weyl
   sequence) and scrambles it with two xor-shift-multiply rounds.  See
   Steele, Lea, Flood, "Fast splittable pseudorandom number generators". *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = seed }

let copy g = { state = g.state }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state

let split g =
  let seed = next_int64 g in
  create ~seed

let bits g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2)

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec draw () =
    let r = bits g in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then draw () else v
  in
  draw ()

let int_in_range g ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range: empty range";
  lo + int g (hi - lo + 1)

let unit_float g =
  (* 53 random bits scaled into [0, 1). *)
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 g) 11) in
  r *. 0x1p-53

let float g bound = unit_float g *. bound

let pick g a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int g (Array.length a))

let pick_list g l =
  match l with
  | [] -> invalid_arg "Prng.pick_list: empty list"
  | _ :: _ -> List.nth l (int g (List.length l))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose_weighted g choices =
  let total =
    List.fold_left
      (fun acc (_, w) ->
        if w <= 0.0 then invalid_arg "Prng.choose_weighted: non-positive weight";
        acc +. w)
      0.0 choices
  in
  if total <= 0.0 then invalid_arg "Prng.choose_weighted: empty choice list";
  let target = float g total in
  let rec walk acc = function
    | [] -> invalid_arg "Prng.choose_weighted: empty choice list"
    | [ (x, _) ] -> x
    | (x, w) :: rest -> if acc +. w > target then x else walk (acc +. w) rest
  in
  walk 0.0 choices
