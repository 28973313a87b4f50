let sorted l = List.sort compare l

let median l =
  match sorted l with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles(values, n=4)]
   computes them (the default "exclusive" method), so the spread printed
   here is the spread anyone re-deriving it from the JSON gets. *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let ld = Array.length a in
  if ld < 2 then None
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    Some (q 1, q 3)
  end

(* Inter-quartile distance as a share of the median; 0 when it cannot be
   formed (fewer than two values, or a zero median). *)
let spread l =
  match quartiles l with
  | Some (q1, q3) ->
    let m = median l in
    if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
  | None -> 0.0

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [q] of the samples at or below it. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
