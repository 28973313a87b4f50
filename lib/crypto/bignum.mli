(** Arbitrary-precision natural numbers.

    Little-endian limbs in base 2{^26}, sized for simulator-scale RSA
    (hundreds to a couple of thousand bits).  All values are non-negative;
    subtraction of a larger from a smaller value is a programming error and
    raises. *)

type t

val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int_opt : t -> int option
(** [None] when the value exceeds [max_int]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val is_zero : t -> bool
val is_even : t -> bool

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0]. *)

(** {1 Arithmetic} *)

val add : t -> t -> t

val sub : t -> t -> t
(** @raise Invalid_argument when the result would be negative. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [r < b].
    @raise Division_by_zero when [b] is zero. *)

val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val succ : t -> t
val pred : t -> t

(** {1 Modular arithmetic} *)

val modpow : t -> t -> t -> t
(** [modpow base exp m] is [base]{^ [exp]} mod [m]. @raise Division_by_zero
    when [m] is zero. *)

val gcd : t -> t -> t

val modinv : t -> t -> t option
(** [modinv a m] is [Some x] with [a*x = 1 (mod m)] when
    [gcd a m = 1], else [None]. *)

(** {1 Conversions} *)

val of_bytes_be : string -> t
(** Big-endian byte-string interpretation (leading zeros allowed). *)

val to_bytes_be_padded : t -> int -> string
(** Fixed-width big-endian encoding. @raise Invalid_argument when the value
    does not fit. *)

val of_hex : string -> t
val to_hex : t -> string

(** {1 Random values} *)

val random_bits : Rng.t -> int -> t
(** Uniform over [\[0, 2{^n})]. *)

val random_below : Rng.t -> t -> t
(** Uniform over [\[0, bound)]; [bound] must be non-zero. *)
