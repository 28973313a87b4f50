type t = {
  lo : float;
  counts : int array;  (* finite buckets 0..n-1, overflow at index n *)
  mutable count : int;
  mutable sum : float;
  mutable max_seen : float;
}

let create ?(lo = 0.0005) ?(buckets = 20) () =
  if lo <= 0.0 then invalid_arg "Loghist.create: lo must be positive";
  if buckets < 1 then invalid_arg "Loghist.create: need at least one bucket";
  { lo; counts = Array.make (buckets + 1) 0; count = 0; sum = 0.0; max_seen = 0.0 }

let buckets t = Array.length t.counts - 1

(* Index of the first bucket whose bound [lo *. 2^i] is >= v, by exponent
   extraction: with v/lo = m * 2^e (m in [0.5, 1)), that index is e — or
   e-1 when v/lo is exactly a power of two. *)
let index t v =
  if v <= t.lo then 0
  else begin
    let m, e = Float.frexp (v /. t.lo) in
    let i = if m = 0.5 then e - 1 else e in
    if i < 0 then 0 else min i (buckets t)
  end

let observe t v =
  let i = index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v > t.max_seen then t.max_seen <- v

let count t = t.count
let sum t = t.sum
let max_seen t = t.max_seen

let merge a b =
  if a.lo <> b.lo || Array.length a.counts <> Array.length b.counts then
    invalid_arg "Loghist.merge: shape mismatch";
  let m = create ~lo:a.lo ~buckets:(buckets a) () in
  Array.iteri (fun i c -> m.counts.(i) <- c + b.counts.(i)) a.counts;
  m.count <- a.count + b.count;
  m.sum <- a.sum +. b.sum;
  m.max_seen <- Float.max a.max_seen b.max_seen;
  m

let quantile t q =
  if t.count = 0 then 0.0
  else begin
    let target = max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
    let n = buckets t in
    let rec walk i cum =
      if i >= n then t.max_seen
      else
        let cum = cum + t.counts.(i) in
        if cum >= target then Float.min (t.lo *. (2.0 ** float_of_int i)) t.max_seen
        else walk (i + 1) cum
    in
    walk 0 0
  end

let bucket_counts t =
  let n = buckets t in
  Array.init (n + 1) (fun i ->
      if i = n then (infinity, t.counts.(n)) else (t.lo *. (2.0 ** float_of_int i), t.counts.(i)))
