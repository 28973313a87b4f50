(** Probabilistic primality testing and random prime generation. *)

val is_probably_prime : Rng.t -> Bignum.t -> bool
(** Trial division by small primes followed by 20 Miller–Rabin
    witnesses.  Composites pass with probability at most 4{^-20}. *)

val generate : Rng.t -> bits:int -> Bignum.t
(** A random probable prime with exactly [bits] bits (top bit set).
    [bits] must be at least 8. *)
