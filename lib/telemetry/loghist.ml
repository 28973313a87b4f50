let lo = 0.0005
let buckets = 20
let bounds = Array.init buckets (fun i -> Float.ldexp lo i)

type t = {
  counts : int array;  (* finite buckets 0..buckets-1, overflow at index buckets *)
  mutable count : int;
  stats : float array;  (* [| sum; max_seen |], unboxed *)
}

let create () = { counts = Array.make (buckets + 1) 0; count = 0; stats = [| 0.0; 0.0 |] }

(* floor (log2 v) of a positive float, from its biased exponent bits. *)
let exponent v = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 52) - 1023
let lo_exponent = exponent lo

(* Index of the first bucket whose bound [lo *. 2^i] is >= v.  Bound i is
   the only bound in the binade [2^(lo_exponent+i), 2^(lo_exponent+i+1)),
   so for v in that binade every lower bound is < v and bound i+1 is > v:
   v sits in bucket i when v <= bound i, in bucket i+1 otherwise. *)
let index v =
  if v <= lo then 0
  else
    let i = exponent v - lo_exponent in
    if i >= buckets then buckets else if v <= bounds.(i) then i else i + 1

let bound i = if i >= buckets then infinity else bounds.(i)

let observe t v =
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  t.stats.(0) <- t.stats.(0) +. v;
  if v > t.stats.(1) then t.stats.(1) <- v

let count t = t.count
let sum t = t.stats.(0)
let max_seen t = t.stats.(1)

let merge a b =
  let m = create () in
  Array.iteri (fun i c -> m.counts.(i) <- c + b.counts.(i)) a.counts;
  m.count <- a.count + b.count;
  m.stats.(0) <- sum a +. sum b;
  m.stats.(1) <- Float.max (max_seen a) (max_seen b);
  m

let quantile t q =
  if t.count = 0 then 0.0
  else begin
    let target = max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
    let rec walk i cum =
      if i >= buckets then max_seen t
      else
        let cum = cum + t.counts.(i) in
        if cum >= target then Float.min bounds.(i) (max_seen t) else walk (i + 1) cum
    in
    walk 0 0
  end

let bucket_counts t = Array.mapi (fun i c -> (bound i, c)) t.counts
