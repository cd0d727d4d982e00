(* RFC 3174 over native ints.  A 32-bit word lives in the low bits of an
   OCaml int and every sum or shift is masked back to 32 bits, so the
   rounds run on unboxed registers where [Int32] would box each
   intermediate.  (Needs 63-bit ints: sums of five words reach 35 bits.)
   The message is padded to a multiple of 64 bytes with 0x80, zeros, and
   the 64-bit bit length; each block updates the five-word chaining state
   through 80 rounds in four 20-round groups. *)

type digest = string

let mask = 0xFFFF_FFFF

let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let padded_message s =
  let len = String.length s in
  (* Room for the 0x80 marker and the 8-byte length, rounded up to 64. *)
  let total = ((len + 8) / 64 * 64) + 64 in
  let b = Bytes.make total '\000' in
  Bytes.blit_string s 0 b 0 len;
  Bytes.set b len '\x80';
  let bitlen = len * 8 in
  for i = 0 to 7 do
    Bytes.set b (total - 8 + i) (Char.unsafe_chr ((bitlen lsr ((7 - i) * 8)) land 0xFF))
  done;
  b

let word_at b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let digest_string s =
  let msg = padded_message s in
  let h0 = ref 0x67452301
  and h1 = ref 0xEFCDAB89
  and h2 = ref 0x98BADCFE
  and h3 = ref 0x10325476
  and h4 = ref 0xC3D2E1F0 in
  let w = Array.make 80 0 in
  let blocks = Bytes.length msg / 64 in
  for block = 0 to blocks - 1 do
    let base = block * 64 in
    for t = 0 to 15 do
      w.(t) <- word_at msg (base + (t * 4))
    done;
    for t = 16 to 79 do
      w.(t) <- rotl32 (w.(t - 3) lxor w.(t - 8) lxor w.(t - 14) lxor w.(t - 16)) 1
    done;
    let a = ref !h0 and b = ref !h1 and c = ref !h2 and d = ref !h3 and e = ref !h4 in
    (* One round per group below; [lnot] sets high bits, which the [land]
       with a 32-bit word clears again. *)
    for t = 0 to 19 do
      let f = (!b land !c) lor (lnot !b land !d) in
      let temp = (rotl32 !a 5 + f + !e + 0x5A827999 + w.(t)) land mask in
      e := !d;
      d := !c;
      c := rotl32 !b 30;
      b := !a;
      a := temp
    done;
    for t = 20 to 39 do
      let f = !b lxor !c lxor !d in
      let temp = (rotl32 !a 5 + f + !e + 0x6ED9EBA1 + w.(t)) land mask in
      e := !d;
      d := !c;
      c := rotl32 !b 30;
      b := !a;
      a := temp
    done;
    for t = 40 to 59 do
      let f = (!b land !c) lor (!b land !d) lor (!c land !d) in
      let temp = (rotl32 !a 5 + f + !e + 0x8F1BBCDC + w.(t)) land mask in
      e := !d;
      d := !c;
      c := rotl32 !b 30;
      b := !a;
      a := temp
    done;
    for t = 60 to 79 do
      let f = !b lxor !c lxor !d in
      let temp = (rotl32 !a 5 + f + !e + 0xCA62C1D6 + w.(t)) land mask in
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
  let store i v =
    for j = 0 to 3 do
      Bytes.set out ((i * 4) + j) (Char.unsafe_chr ((v lsr ((3 - j) * 8)) land 0xFF))
    done
  in
  store 0 !h0;
  store 1 !h1;
  store 2 !h2;
  store 3 !h3;
  store 4 !h4;
  Bytes.to_string out

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
