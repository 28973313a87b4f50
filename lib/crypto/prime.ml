let small_primes =
  (* Sieve of Eratosthenes below 1000, computed once at load. *)
  let limit = 1000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  List.filter (fun i -> sieve.(i)) (List.init (limit + 1) Fun.id)

let divisible_by_small_prime n =
  List.exists
    (fun p ->
      let bp = Bignum.of_int p in
      (* p itself is prime, not a witness of compositeness. *)
      Bignum.compare n bp > 0 && Bignum.is_zero (Bignum.rem n bp))
    small_primes

(* One Miller-Rabin round with the given witness. *)
let miller_rabin_witness n witness =
  let n1 = Bignum.pred n in
  (* n-1 = d * 2^s with d odd *)
  let rec split d s = if Bignum.is_even d then split (Bignum.shift_right d 1) (s + 1) else (d, s) in
  let d, s = split n1 0 in
  let x = Bignum.modpow witness d n in
  if Bignum.equal x Bignum.one || Bignum.equal x n1 then true
  else begin
    let rec squares x i =
      if i >= s - 1 then false
      else begin
        let x = Bignum.rem (Bignum.mul x x) n in
        if Bignum.equal x n1 then true else squares x (i + 1)
      end
    in
    squares x 0
  end

let is_probably_prime rng n =
  match Bignum.to_int_opt n with
  | Some v when v < 1000 -> List.mem v small_primes
  | _ ->
    if Bignum.is_even n then false
    else if divisible_by_small_prime n then false
    else begin
      let n3 = Bignum.sub n (Bignum.of_int 3) in
      let rec rounds_loop i =
        if i >= 20 then true
        else begin
          (* Witness in [2, n-2]. *)
          let w = Bignum.add (Bignum.random_below rng (Bignum.succ n3)) Bignum.two in
          if miller_rabin_witness n w then rounds_loop (i + 1) else false
        end
      in
      rounds_loop 0
    end

let generate rng ~bits =
  if bits < 8 then invalid_arg "Prime.generate: need at least 8 bits";
  let top = Bignum.shift_left Bignum.one (bits - 1) in
  let rec try_candidate () =
    let r = Bignum.random_bits rng (bits - 1) in
    (* Force the top bit (exact width) and the low bit (odd). *)
    let c = Bignum.add top r in
    let c = if Bignum.is_even c then Bignum.succ c else c in
    (* Fast filter: one round with witness 2 kills almost all composites
       before the full battery runs. *)
    if (not (divisible_by_small_prime c)) && miller_rabin_witness c Bignum.two
       && is_probably_prime rng c
    then c
    else try_candidate ()
  in
  try_candidate ()
