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

(* Helpers below take the key as an argument rather than closing over
   it, so the functions that search rings allocate nothing. *)
let rec prefix_from t acc i = if i = 7 then acc else prefix_from t ((acc lsl 8) lor Char.code t.[i]) (i + 1)

let prefix56 t = prefix_from t 0 0

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

let of_bytes s =
  if String.length s <> byte_count then invalid_arg "Key.of_bytes: wrong length";
  s

let of_hex s =
  let d = Sha1.of_hex s in
  if String.length d <> byte_count then invalid_arg "Key.of_hex: wrong length";
  d

let to_hex = Sha1.to_hex

let short_hex k = String.sub (to_hex k) 0 8

let xor a b =
  String.init byte_count (fun i -> Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let bit t i = (Char.code t.[i lsr 3] lsr (7 - (i land 7))) land 1

let rec leading_zeros x k = if x land 0x80 <> 0 then k else leading_zeros (x lsl 1) (k + 1)

let rec common_prefix_from a b i =
  if i = byte_count then bits
  else
    let x = Char.code a.[i] lxor Char.code b.[i] in
    if x = 0 then common_prefix_from a b (i + 1) else (8 * i) + leading_zeros x 0

let common_prefix_bits a b = common_prefix_from a b 0

(* The first byte where the distances differ decides; nothing is built. *)
let rec compare_xor_from target a b i =
  if i = byte_count then 0
  else
    let t = Char.code target.[i] in
    let da = t lxor Char.code a.[i] and db = t lxor Char.code b.[i] in
    if da = db then compare_xor_from target a b (i + 1) else Int.compare da db

let compare_xor ~target a b = compare_xor_from target a b 0

let nibble t i =
  if i < 0 || i >= 2 * byte_count then invalid_arg "Key.nibble: index out of range";
  let byte = Char.code t.[i / 2] in
  if i mod 2 = 0 then byte lsr 4 else byte land 0xF

let sub t u =
  (* Byte-wise subtraction modulo 2^160: a byte's difference lies in
     [-256, 255], so its low byte is the digit and its sign the borrow. *)
  let out = Bytes.create byte_count in
  let borrow = ref 0 in
  for i = byte_count - 1 downto 0 do
    let diff = Char.code t.[i] - Char.code u.[i] - !borrow in
    Bytes.unsafe_set out i (Char.unsafe_chr (diff land 0xFF));
    borrow := (diff lsr 8) land 1
  done;
  Bytes.unsafe_to_string out


(* 2^i lands in one byte; its carry runs towards the top byte and is
   dropped past it.  One copy of the key is the only allocation. *)
let rec carry b pos v =
  if pos >= 0 then begin
    let sum = Char.code (Bytes.get b pos) + v in
    Bytes.set b pos (Char.unsafe_chr (sum land 0xFF));
    if sum > 0xFF then carry b (pos - 1) 1
  end

let add_pow2 t i =
  if i < 0 || i >= bits then invalid_arg "Key.add_pow2: exponent out of range";
  let b = Bytes.of_string t in
  carry b (byte_count - 1 - (i / 8)) (1 lsl (i mod 8));
  Bytes.unsafe_to_string b

let in_interval_oo k ~lo ~hi =
  if equal lo hi then not (equal k lo)
  else if compare lo hi < 0 then compare lo k < 0 && compare k hi < 0
  else compare lo k < 0 || compare k hi < 0

let in_interval_oc k ~lo ~hi =
  if equal lo hi then true
  else if compare lo hi < 0 then compare lo k < 0 && compare k hi <= 0
  else compare lo k < 0 || compare k hi <= 0

let distance_cw a b = sub b a

(* The circular distance from [target] to [a] is [a - target] when that
   is below half the ring (its top bit clear), else [target - a].  One
   pass from the least significant byte forms the four differences
   [a - target], [target - a], [b - target] and [target - b] byte by
   byte, borrowing as [sub] does, and remembers how each pairing of an
   [a] side with a [b] side compares at its most significant differing
   byte so far; the top bytes then pick the pairing that decides.
   Nothing is built. *)
let compare_circular ~target a b =
  let a_up = ref 0 and a_down = ref 0 and b_up = ref 0 and b_down = ref 0 in
  let up_up = ref 0 and up_down = ref 0 and down_up = ref 0 and down_down = ref 0 in
  let a_top = ref 0 and b_top = ref 0 in
  for i = byte_count - 1 downto 0 do
    let t = Char.code target.[i] and x = Char.code a.[i] and y = Char.code b.[i] in
    let au = x - t - !a_up and ad = t - x - !a_down in
    let bu = y - t - !b_up and bd = t - y - !b_down in
    a_up := (au lsr 8) land 1;
    a_down := (ad lsr 8) land 1;
    b_up := (bu lsr 8) land 1;
    b_down := (bd lsr 8) land 1;
    let au = au land 0xFF and ad = ad land 0xFF and bu = bu land 0xFF and bd = bd land 0xFF in
    if au <> bu then up_up := Int.compare au bu;
    if au <> bd then up_down := Int.compare au bd;
    if ad <> bu then down_up := Int.compare ad bu;
    if ad <> bd then down_down := Int.compare ad bd;
    a_top := au;
    b_top := bu
  done;
  match (!a_top < 0x80, !b_top < 0x80) with
  | true, true -> !up_up
  | true, false -> !up_down
  | false, true -> !down_up
  | false, false -> !down_down

let rec byte_bits x n = if x = 0 then n else byte_bits (x lsr 1) (n + 1)

(* [b - a] byte by byte from the least significant end, as [sub] does,
   remembering the most significant nonzero byte seen: nothing is
   built. *)
let rec distance_bits_from a b i borrow top top_byte =
  if i < 0 then if top < 0 then 0 else (8 * (byte_count - 1 - top)) + byte_bits top_byte 0
  else
    let diff = Char.code b.[i] - Char.code a.[i] - borrow in
    let d = diff land 0xFF and borrow = (diff lsr 8) land 1 in
    if d <> 0 then distance_bits_from a b (i - 1) borrow i d
    else distance_bits_from a b (i - 1) borrow top top_byte

let distance_cw_bits a b = distance_bits_from a b (byte_count - 1) 0 (-1) 0

(* The compiler's own loads, which [Int64.to_int] and [Int32.to_int]
   consume unboxed; a key is 20 bytes, so the reads stay in bounds.  The
   machine's byte order only permutes the hash. *)
external get64 : string -> int -> int64 = "%caml_string_get64u"
external get32 : string -> int -> int32 = "%caml_string_get32u"

(* The key's three words folded and mixed, so that the low bits a table
   indexes by depend on every byte: digests are uniform already, but
   prefix-encoded keys share their leading bytes and end in zeros. *)
let hash k =
  let h = Int64.to_int (get64 k 0) * 0x1E3779B97F4A7C15 in
  let h = (h lxor Int64.to_int (get64 k 8)) * 0x1E3779B97F4A7C15 in
  let h = h lxor Int32.to_int (get32 k 16) in
  let h = (h lxor (h lsr 31)) * 0x1CE4E5B9 in
  h lxor (h lsr 29)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* Byte by byte, one [Prng.int g 256] draw each, into a buffer filled in
   place: no closure per key. *)
let random g =
  let b = Bytes.create byte_count in
  for i = 0 to byte_count - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (Stdx.Prng.int g 256))
  done;
  Bytes.unsafe_to_string b
