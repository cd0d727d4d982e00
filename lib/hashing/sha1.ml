(* Two paths compute the same function.  [digest_string] is bound once,
   when this module is initialised: to the C kernel in sha1_stubs.c
   (SHA1RNDS4 and friends) when cpuid reports the SHA extensions, and to
   [reference_digest] below otherwise.

   The reference is RFC 3174 over native ints.  A 32-bit word lives in
   the low bits of an OCaml int and every sum or shift is masked back to
   32 bits, so the rounds run on unboxed registers where [Int32] would box
   each intermediate.  (Needs 63-bit ints: sums of five words reach 35
   bits.)
   The message is read in place: blocks that lie inside the string take
   their words straight from it, and only the one or two final blocks —
   the string's tail, the 0x80 marker, zeros and the 64-bit bit length —
   go through the padding-aware byte reader, so no padded copy is built.
   The message schedule is the RFC's 16-word circular buffer (method 2):
   word [t] overwrites word [t - 16] in place; each domain keeps its own
   buffer, so the 20-byte result is the only allocation.  Each block
   updates the five-word chaining state through 80 rounds in four
   20-round groups. *)

type digest = string

let mask = 0xFFFF_FFFF

let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let[@inline] word_at s off =
  (Char.code (String.unsafe_get s off) lsl 24)
  lor (Char.code (String.unsafe_get s (off + 1)) lsl 16)
  lor (Char.code (String.unsafe_get s (off + 2)) lsl 8)
  lor Char.code (String.unsafe_get s (off + 3))

(* Byte [i] of the padded message, which is [total] bytes long. *)
let padded_byte s ~total i =
  let len = String.length s in
  if i < len then Char.code (String.unsafe_get s i)
  else if i = len then 0x80
  else if i >= total - 8 then ((len * 8) lsr ((total - 1 - i) * 8)) land 0xFF
  else 0

let padded_word s ~total off =
  if off + 4 <= String.length s then word_at s off
  else
  (padded_byte s ~total off lsl 24)
  lor (padded_byte s ~total (off + 1) lsl 16)
  lor (padded_byte s ~total (off + 2) lsl 8)
  lor padded_byte s ~total (off + 3)

(* Schedule word [t] for [t >= 16], written over word [t - 16]. *)
let[@inline] schedule w t =
  let x =
    rotl32
      (Array.unsafe_get w ((t - 3) land 15)
      lxor Array.unsafe_get w ((t - 8) land 15)
      lxor Array.unsafe_get w ((t - 14) land 15)
      lxor Array.unsafe_get w (t land 15))
      1
  in
  Array.unsafe_set w (t land 15) x;
  x

let schedule_buffer = Domain.DLS.new_key (fun () -> Array.make 16 0)

(* Word [v] big-endian at word offset [i] of [out]. *)
let store out i v =
  for j = 0 to 3 do
    Bytes.unsafe_set out ((i * 4) + j) (Char.unsafe_chr ((v lsr ((3 - j) * 8)) land 0xFF))
  done

let reference_digest s =
  let len = String.length s in
  (* Room for the 0x80 marker and the 8-byte length, rounded up to 64. *)
  let total = ((len + 8) / 64 * 64) + 64 in
  let h0 = ref 0x67452301
  and h1 = ref 0xEFCDAB89
  and h2 = ref 0x98BADCFE
  and h3 = ref 0x10325476
  and h4 = ref 0xC3D2E1F0 in
  let w = Domain.DLS.get schedule_buffer in
  for block = 0 to (total / 64) - 1 do
    let base = block * 64 in
    for t = 0 to 15 do
      Array.unsafe_set w t (padded_word s ~total (base + (t * 4)))
    done;
    let a = ref !h0 and b = ref !h1 and c = ref !h2 and d = ref !h3 and e = ref !h4 in
    (* One round per group below; [lnot] sets high bits, which the [land]
       with a 32-bit word clears again. *)
    for t = 0 to 15 do
      let f = (!b land !c) lor (lnot !b land !d) in
      let temp = (rotl32 !a 5 + f + !e + 0x5A827999 + Array.unsafe_get w t) land mask in
      e := !d;
      d := !c;
      c := rotl32 !b 30;
      b := !a;
      a := temp
    done;
    for t = 16 to 19 do
      let f = (!b land !c) lor (lnot !b land !d) in
      let temp = (rotl32 !a 5 + f + !e + 0x5A827999 + schedule w t) land mask in
      e := !d;
      d := !c;
      c := rotl32 !b 30;
      b := !a;
      a := temp
    done;
    for t = 20 to 39 do
      let f = !b lxor !c lxor !d in
      let temp = (rotl32 !a 5 + f + !e + 0x6ED9EBA1 + schedule w t) land mask in
      e := !d;
      d := !c;
      c := rotl32 !b 30;
      b := !a;
      a := temp
    done;
    for t = 40 to 59 do
      let f = (!b land !c) lor (!b land !d) lor (!c land !d) in
      let temp = (rotl32 !a 5 + f + !e + 0x8F1BBCDC + schedule w t) land mask in
      e := !d;
      d := !c;
      c := rotl32 !b 30;
      b := !a;
      a := temp
    done;
    for t = 60 to 79 do
      let f = !b lxor !c lxor !d in
      let temp = (rotl32 !a 5 + f + !e + 0xCA62C1D6 + schedule w t) land mask in
      e := !d;
      d := !c;
      c := rotl32 !b 30;
      b := !a;
      a := temp
    done;
    h0 := (!h0 + !a) land mask;
    h1 := (!h1 + !b) land mask;
    h2 := (!h2 + !c) land mask;
    h3 := (!h3 + !d) land mask;
    h4 := (!h4 + !e) land mask
  done;
  let out = Bytes.create 20 in
  store out 0 !h0;
  store out 1 !h1;
  store out 2 !h2;
  store out 3 !h3;
  store out 4 !h4;
  Bytes.unsafe_to_string out

external available : unit -> bool = "p2pindex_sha1_available" [@@noalloc]
external kernel_digest : string -> digest = "p2pindex_sha1_digest"

let hardware = available ()

let digest_string = if hardware then kernel_digest else reference_digest

let hex_digits = "0123456789abcdef"

let to_hex d =
  let out = Bytes.create (String.length d * 2) in
  String.iteri
    (fun i c ->
      let v = Char.code c in
      Bytes.set out (2 * i) hex_digits.[v lsr 4];
      Bytes.set out ((2 * i) + 1) hex_digits.[v land 0xF])
    d;
  Bytes.to_string out

let of_hex s =
  let len = String.length s in
  if len mod 2 <> 0 then invalid_arg "Sha1.of_hex: odd length";
  let value c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Sha1.of_hex: invalid character"
  in
  String.init (len / 2) (fun i -> Char.chr ((value s.[2 * i] lsl 4) lor value s.[(2 * i) + 1]))
