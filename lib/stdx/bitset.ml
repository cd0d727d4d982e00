type t = { bits : Bytes.t; len : int }

let bad_index what i len =
  invalid_arg (Printf.sprintf "Bitset.%s: index %d out of range [0, %d)" what i len)

(* lint: allow P1 — creation path: runs once per bitset, never per access *)
let create ~len ~default =
  if len < 0 then invalid_arg "Bitset.create: negative length";
  let fill = if default then '\xff' else '\x00' in
  { bits = Bytes.make ((len + 7) / 8) fill; len }

let length t = t.len

let[@hot] get t i =
  if i < 0 || i >= t.len then bad_index "get" i t.len;
  let byte = Char.code (Bytes.unsafe_get t.bits (i lsr 3)) in
  byte land (1 lsl (i land 7)) <> 0

let[@hot] set t i v =
  if i < 0 || i >= t.len then bad_index "set" i t.len;
  let pos = i lsr 3 in
  let mask = 1 lsl (i land 7) in
  let byte = Char.code (Bytes.unsafe_get t.bits pos) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.unsafe_set t.bits pos (Char.unsafe_chr byte)
