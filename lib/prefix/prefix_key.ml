let max_bytes = Hashing.Key.bits / 8

(* The term's first [max_bytes] bytes, then [pad] up to [max_bytes]. *)
let padded s ~pad =
  let b = Bytes.make max_bytes pad in
  Bytes.blit_string s 0 b 0 (Stdlib.min (String.length s) max_bytes);
  Hashing.Key.of_bytes (Bytes.unsafe_to_string b)

let encode s = padded s ~pad:'\x00'

let range p = (padded p ~pad:'\x00', padded p ~pad:'\xff')

let in_range p ~key =
  let lo, hi = range p in
  Hashing.Key.compare lo key <= 0 && Hashing.Key.compare key hi <= 0

let is_prefix p s =
  String.length p <= String.length s
  && String.equal p (String.sub s 0 (String.length p))
