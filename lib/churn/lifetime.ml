type t = { mean : float }

let exponential ~mean =
  if not (mean > 0.) then invalid_arg "Lifetime.exponential: mean must be > 0";
  { mean }

let mean t = t.mean

(* [Prng.float] yields u in [0, 1); the inversion below needs the open
   side at u = 1 instead, so use 1 - u which lies in (0, 1]. *)
let sample t prng =
  let u = 1.0 -. Stdx.Prng.float prng 1.0 in
  -.t.mean *. log u

let label t = Printf.sprintf "exp(mean=%g)" t.mean
