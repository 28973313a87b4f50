(** Deterministic pseudo-random generator (splitmix64).

    Every stochastic choice in the DACS libraries — key generation,
    simulated message loss, workload generation — draws from an explicit
    [Rng.t] so that experiments and tests are reproducible bit-for-bit. *)

type t

val create : int64 -> t
(** Generator seeded with the given value. *)

val next_int64 : t -> int64
(** Uniform over all 2{^64} values. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bytes : t -> int -> string
(** [bytes t n] is an [n]-byte random string. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. @raise Invalid_argument on []. *)
