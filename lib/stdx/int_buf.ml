type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 8) () =
  if capacity < 1 then invalid_arg "Int_buf.create: capacity must be >= 1";
  { data = Array.make capacity 0; len = 0 }

let length t = t.len
let clear t = t.len <- 0

let[@hot] push t v =
  if t.len = Array.length t.data then begin
    let data = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  Array.unsafe_set t.data t.len v;
  t.len <- t.len + 1

let[@hot] get t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Int_buf.get: index %d out of range [0, %d)" i t.len);
  Array.unsafe_get t.data i

let[@hot] unsafe_get t i = Array.unsafe_get t.data i

let to_list t = List.init t.len (fun i -> t.data.(i))
