(* Little-endian limbs in base 2^26.  The invariant is that the highest
   limb is non-zero; zero is the empty array.  Base 2^26 keeps every
   intermediate product (limb*limb plus carries) well under 2^62, so plain
   native ints suffice throughout. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int i =
  if i < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs i = if i = 0 then [] else (i land limb_mask) :: limbs (i lsr limb_bits) in
  Array.of_list (limbs i)

let to_int_opt a =
  let n = Array.length a in
  if n * limb_bits <= 62 then begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl limb_bits) lor a.(i)
    done;
    Some !v
  end
  else begin
    (* May still fit if the top limb is small. *)
    let v = ref 0 and ok = ref true in
    for i = n - 1 downto 0 do
      if !v > (max_int - a.(i)) lsr limb_bits then ok := false
      else v := (!v lsl limb_bits) lor a.(i)
    done;
    if !ok then Some !v else None
  end

let is_zero a = Array.length a = 0
let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let bits_of_limb v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let num_bits a =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * limb_bits) + bits_of_limb a.(n - 1)

let testbit a i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  out.(n) <- !carry;
  normalize out

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let t = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      (* Propagate the final carry (it can span several limbs only when
         out.(i+lb) was already populated by earlier rows). *)
      let j = ref (i + lb) in
      while !carry <> 0 do
        let t = out.(!j) + !carry in
        out.(!j) <- t land limb_mask;
        carry := t lsr limb_bits;
        incr j
      done
    done;
    normalize out
  end

let shift_left (a : t) bits : t =
  if bits < 0 then invalid_arg "Bignum.shift_left";
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    let out = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl off in
      out.(i + limbs) <- out.(i + limbs) lor (v land limb_mask);
      out.(i + limbs + 1) <- v lsr limb_bits
    done;
    normalize out
  end

let shift_right (a : t) bits : t =
  if bits < 0 then invalid_arg "Bignum.shift_right";
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limbs) lsr off in
        let hi = if off > 0 && i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - off)) land limb_mask else 0 in
        out.(i) <- lo lor hi
      done;
      normalize out
    end
  end

let succ a = add a one
let pred a = sub a one

(* Division by a single limb; returns quotient and remainder. *)
let divmod_small (a : t) (d : int) : t * int =
  assert (d > 0 && d < base);
  let la = Array.length a in
  let out = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    out.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize out, !r)

(* Knuth Algorithm D (TAOCP vol. 2, 4.3.1). *)
let divmod_knuth (u : t) (v : t) : t * t =
  let n = Array.length v in
  (* Normalise so the divisor's top limb has its high bit set. *)
  let shift = limb_bits - bits_of_limb v.(n - 1) in
  let u' = shift_left u shift and v' = shift_left v shift in
  let v' = (v' : int array) in
  let m = Array.length u' - n in
  (* Working copy of the dividend with one extra high limb. *)
  let w = Array.make (Array.length u' + 1) 0 in
  Array.blit u' 0 w 0 (Array.length u');
  let q = Array.make (max (m + 1) 1) 0 in
  let vn1 = v'.(n - 1) in
  let vn2 = if n >= 2 then v'.(n - 2) else 0 in
  for j = m downto 0 do
    let top = (w.(j + n) lsl limb_bits) lor w.(j + n - 1) in
    let qhat = ref (top / vn1) and rhat = ref (top mod vn1) in
    if !qhat >= base then begin
      qhat := base - 1;
      rhat := top - (!qhat * vn1)
    end;
    let continue = ref true in
    while !continue && !rhat < base do
      let lhs = !qhat * vn2 in
      let rhs = (!rhat lsl limb_bits) lor (if n >= 2 then w.(j + n - 2) else 0) in
      if lhs > rhs then begin
        decr qhat;
        rhat := !rhat + vn1
      end
      else continue := false
    done;
    (* Multiply-and-subtract. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v'.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = w.(i + j) - (p land limb_mask) - !borrow in
      if d < 0 then begin
        w.(i + j) <- d + base;
        borrow := 1
      end
      else begin
        w.(i + j) <- d;
        borrow := 0
      end
    done;
    let d = w.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add the divisor back. *)
      w.(j + n) <- d + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s = w.(i + j) + v'.(i) + !c in
        w.(i + j) <- s land limb_mask;
        c := s lsr limb_bits
      done;
      w.(j + n) <- (w.(j + n) + !c) land limb_mask
    end
    else w.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = normalize (Array.sub w 0 n) in
  (normalize q, shift_right r shift)

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_small a b.(0) in
    (q, of_int r)
  end
  else divmod_knuth a b

let rem a b = snd (divmod a b)

let modpow b e m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else begin
    let b = rem b m in
    let result = ref one and acc = ref b in
    let nbits = num_bits e in
    for i = 0 to nbits - 1 do
      if testbit e i then result := rem (mul !result !acc) m;
      if i < nbits - 1 then acc := rem (mul !acc !acc) m
    done;
    !result
  end

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* Signed values for the extended Euclid walk: (negative?, magnitude). *)
let signed_sub (sa, ma) (sb, mb) =
  (* (sa,ma) - (sb,mb) *)
  if sa = sb then
    if compare ma mb >= 0 then (sa, sub ma mb) else (not sa, sub mb ma)
  else (sa, add ma mb)

let signed_mul_nat (s, m) n = (s, mul m n)

let modinv a m =
  if is_zero m then raise Division_by_zero;
  let a = rem a m in
  (* Invariants: r = x*a + y*m for each (r, x) pair tracked. *)
  let rec go r0 x0 r1 x1 =
    if is_zero r1 then
      if equal r0 one then
        let s, mag = x0 in
        let v = rem mag m in
        Some (if s && not (is_zero v) then sub m v else v)
      else None
    else begin
      let q, r2 = divmod r0 r1 in
      let x2 = signed_sub x0 (signed_mul_nat x1 q) in
      go r1 x1 r2 x2
    end
  in
  if is_zero a then None else go m (false, zero) a (false, one)

(* Conversions ------------------------------------------------------- *)

let of_bytes_be s =
  let v = ref zero in
  String.iter (fun c -> v := add (shift_left !v 8) (of_int (Char.code c))) s;
  !v

let to_bytes_be a =
  if is_zero a then ""
  else begin
    let nbytes = (num_bits a + 7) / 8 in
    String.init nbytes (fun i ->
        let bit = 8 * (nbytes - 1 - i) in
        let limb = bit / limb_bits and off = bit mod limb_bits in
        let lo = a.(limb) lsr off in
        let hi =
          if off > limb_bits - 8 && limb + 1 < Array.length a then a.(limb + 1) lsl (limb_bits - off)
          else 0
        in
        Char.chr ((lo lor hi) land 0xFF))
  end

let to_bytes_be_padded a width =
  let s = to_bytes_be a in
  let n = String.length s in
  if n > width then invalid_arg "Bignum.to_bytes_be_padded: value too large";
  String.make (width - n) '\x00' ^ s

let of_hex s =
  let s = if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then String.sub s 2 (String.length s - 2) else s in
  let s = if String.length s mod 2 = 1 then "0" ^ s else s in
  of_bytes_be (Encoding.hex_decode s)

let to_hex a = if is_zero a then "0" else Encoding.hex_encode (to_bytes_be a)

let random_bits rng n =
  if n < 0 then invalid_arg "Bignum.random_bits";
  if n = 0 then zero
  else begin
    let nbytes = (n + 7) / 8 in
    let s = Rng.bytes rng nbytes in
    let v = of_bytes_be s in
    (* Mask down to exactly n bits. *)
    if nbytes * 8 > n then rem v (shift_left one n) else v
  end

let random_below rng bound =
  if is_zero bound then invalid_arg "Bignum.random_below: zero bound";
  let n = num_bits bound in
  let rec draw () =
    let v = random_bits rng n in
    if compare v bound < 0 then v else draw ()
  in
  draw ()
