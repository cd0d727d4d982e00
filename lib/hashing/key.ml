(* A key is a 20-byte big-endian string; byte-wise [String.compare] is then
   exactly numeric comparison, and modular arithmetic works byte by byte with
   carries. *)

type t = string

let bits = 160
let byte_count = bits / 8

let zero = String.make byte_count '\000'

let compare = String.compare
let equal = String.equal

let of_string s = Sha1.digest_string s

let prefix56 t =
  let rec go acc i = if i = 7 then acc else go ((acc lsl 8) lor Char.code t.[i]) (i + 1) in
  go 0 0

let of_int n =
  if n < 0 then invalid_arg "Key.of_int: negative value";
  let b = Bytes.make byte_count '\000' in
  let rec fill pos n =
    if n > 0 && pos >= 0 then begin
      Bytes.set b pos (Char.chr (n land 0xFF));
      fill (pos - 1) (n lsr 8)
    end
  in
  fill (byte_count - 1) n;
  Bytes.to_string b

let of_hex s =
  let d = Sha1.of_hex s in
  if String.length d <> byte_count then invalid_arg "Key.of_hex: wrong length";
  d

let to_hex = Sha1.to_hex

let short_hex k = String.sub (to_hex k) 0 8

let xor a b =
  String.init byte_count (fun i -> Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let compare_xor ~target a b =
  (* The first byte where the distances differ decides; nothing is built. *)
  let rec go i =
    if i = byte_count then 0
    else
      let t = Char.code target.[i] in
      let da = t lxor Char.code a.[i] in
      let db = t lxor Char.code b.[i] in
      if da = db then go (i + 1) else Int.compare da db
  in
  go 0

let nibble t i =
  if i < 0 || i >= 2 * byte_count then invalid_arg "Key.nibble: index out of range";
  let byte = Char.code t.[i / 2] in
  if i mod 2 = 0 then byte lsr 4 else byte land 0xF

let add t u =
  (* Byte-wise addition modulo 2^160 (the final carry is discarded). *)
  let out = Bytes.create byte_count in
  let carry = ref 0 in
  for i = byte_count - 1 downto 0 do
    let sum = Char.code t.[i] + Char.code u.[i] + !carry in
    Bytes.set out i (Char.chr (sum land 0xFF));
    carry := sum lsr 8
  done;
  Bytes.to_string out

let sub t u =
  (* Byte-wise subtraction modulo 2^160. *)
  let out = Bytes.create byte_count in
  let borrow = ref 0 in
  for i = byte_count - 1 downto 0 do
    let diff = Char.code t.[i] - Char.code u.[i] - !borrow in
    if diff < 0 then begin
      Bytes.set out i (Char.chr (diff + 256));
      borrow := 1
    end
    else begin
      Bytes.set out i (Char.chr diff);
      borrow := 0
    end
  done;
  Bytes.to_string out

let one = of_int 1

let succ t = add t one

let pow2 i =
  if i < 0 || i >= bits then invalid_arg "Key.add_pow2: exponent out of range";
  let b = Bytes.make byte_count '\000' in
  let byte = byte_count - 1 - (i / 8) in
  Bytes.set b byte (Char.chr (1 lsl (i mod 8)));
  Bytes.to_string b

let add_pow2 t i = add t (pow2 i)

let in_interval_oo k ~lo ~hi =
  if equal lo hi then not (equal k lo)
  else if compare lo hi < 0 then compare lo k < 0 && compare k hi < 0
  else compare lo k < 0 || compare k hi < 0

let in_interval_oc k ~lo ~hi =
  if equal lo hi then true
  else if compare lo hi < 0 then compare lo k < 0 && compare k hi <= 0
  else compare lo k < 0 || compare k hi <= 0

let distance_cw a b = sub b a

let to_float t =
  let acc = ref 0.0 in
  String.iter (fun c -> acc := (!acc *. 256.0) +. float_of_int (Char.code c)) t;
  !acc

let random g =
  String.init byte_count (fun _ -> Char.chr (Stdx.Prng.int g 256))
