type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

(* splitmix64 step: solid statistical quality, trivially seedable, and the
   whole library stays deterministic under a single integer seed. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits t n =
  if n < 1 || n > 62 then invalid_arg "Rng.bits";
  Int64.to_int (Int64.shift_right_logical (next_int64 t) (64 - n))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  (* Rejection sampling over the smallest covering power of two keeps the
     distribution exactly uniform. *)
  let rec width n = if 1 lsl n >= bound then n else width (n + 1) in
  let w = width 1 in
  let rec draw () =
    let v = bits t w in
    if v < bound then v else draw ()
  in
  draw ()

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. v /. 9007199254740992.0 (* 2^53 *)

let bool t = bits t 1 = 1

let bytes t n =
  String.init n (fun _ -> Char.chr (bits t 8))

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))
