(* SplitMix64: each call advances the state by a fixed odd constant (a Weyl
   sequence) and scrambles it with two xor-shift-multiply rounds.  See
   Steele, Lea, Flood, "Fast splittable pseudorandom number generators".

   The state is 8 bytes read and written as a little-endian int64, not a
   mutable [int64] field: storing an [int64] in a record field boxes it,
   so every draw would allocate.  Read from bytes, the state stays an
   unboxed machine word through the inlined [next_int64], and a draw that
   ends in an [int] or a [float] allocates nothing. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] state g = Bytes.get_int64_le g 0
let[@inline] set_state g s = Bytes.set_int64_le g 0 s

let reseed g ~seed = set_state g seed

let create ~seed =
  let g = Bytes.create 8 in
  reseed g ~seed;
  g

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 g =
  let s = Int64.add (state g) golden_gamma in
  set_state g s;
  mix s

let[@inline] bits g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2)

(* Rejection sampling to avoid modulo bias.  A top-level loop, so a draw
   builds no closure. *)
let rec draw g bound =
  let r = bits g in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then draw g bound else v

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  draw g bound

let int_in_range g ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range: empty range";
  lo + int g (hi - lo + 1)

(* 53 random bits scaled into [0, 1). *)
let[@inline] unit_float g =
  Int64.to_float (Int64.shift_right_logical (next_int64 g) 11) *. 0x1p-53

let float g bound = unit_float g *. bound

let pick g a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int g (Array.length a))

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
