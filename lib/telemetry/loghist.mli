(** Streaming, mergeable log-bucket latency histograms: the one histogram
    of DACS.

    Every histogram has the same shape: bucket [i] counts observations
    [v <= 0.5 ms *. 2^i] for [i = 0 … 19] (top bound 262.144 s), and one
    overflow bucket ([+Inf]) holds the rest.  The workload engine's
    per-PEP latency accounting and every {!Metrics} histogram series sit
    on it, so every quantile in the repo comes from {!quantile}.

    O(1) per observation (the bucket index is read from the float's
    exponent bits, no search, no allocation), constant memory, and
    mergeable — per-PEP instances combine into one population histogram
    at report time, so recording never contends on a shared structure
    and scenario memory stays O(PEPs), not O(observations). *)

type t

val buckets : int
(** Number of finite buckets (20); the overflow bucket has index
    [buckets]. *)

val create : unit -> t

val index : float -> int
(** The bucket an observation lands in: the first [i] with
    [v <= bound i].  Non-positive values land in bucket 0. *)

val bound : int -> float
(** Upper bound of bucket [i]: [0.0005 *. 2^i], [infinity] for the
    overflow bucket. *)

val observe : t -> float -> unit
(** O(1), allocates nothing. *)

val count : t -> int
val sum : t -> float
val max_seen : t -> float
(** 0 when empty. *)

val merge : t -> t -> t
(** Fresh histogram holding both populations. *)

val quantile : t -> float -> float
(** Upper-bound estimate of the [q]-quantile (0 on an empty histogram):
    the bound of the bucket holding the [ceil (q * count)]-th
    observation, clamped to {!max_seen} — so the overflow bucket reports
    the exact maximum, and estimates never exceed the observed range. *)

val bucket_counts : t -> (float * int) array
(** (upper bound, count) per finite bucket plus [(infinity, overflow)]. *)
