(** Discrete-event simulation engine.

    A priority queue of timestamped callbacks and a virtual clock.  Every
    distributed scenario in DACS (authorisation flows, failovers, cache
    expiry) runs on this engine, so results are deterministic and message
    counts/latencies are exact. *)

type t

val create : ?seed:int64 -> unit -> t
(** Fresh engine at time 0.0.  [seed] initialises the engine's RNG
    (default 1). *)

val now : t -> float
(** Current virtual time (seconds). *)

val rng : t -> Dacs_crypto.Rng.t
(** The engine's deterministic random source. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run a callback [delay] seconds from now.  A negative or NaN delay
    raises [Invalid_argument]. *)

val schedule_at : t -> at:float -> (unit -> unit) -> unit
(** Run a callback at an absolute time.  A time before the current one,
    or NaN, raises [Invalid_argument]. *)

val run : ?until:float -> t -> unit
(** Process events in timestamp order until the queue is empty or the
    clock would pass [until].  Events scheduled while running are
    processed too.  Every event takes a sequence number from the engine
    when it is scheduled (a {!Deadlines} timer when it is added), and
    ties follow the order in which those numbers were taken. *)

val step : t -> bool
(** Process a single event; [false] when the queue is empty. *)

val pending : t -> int
(** Number of queued events.  A {!Deadlines} class counts one, for its
    earliest timer, however many it holds. *)

(** {1 Timers of one delay}

    Timers that share one delay expire in the order they were added, so
    they need no priority queue (Varghese and Lauck, "Hashed and
    Hierarchical Timing Wheels", SOSP 1987).  A class keeps its timers
    in a ring and only the earliest in the event queue; a timer that is
    no longer live is dropped unrun when the one ahead of it fires,
    unless it is the class's last.  Every other timer fires at exactly
    the instant, and in exactly the order among all events, that
    {!schedule} [~delay] would have given it at the moment it was
    added, and the clock reaches every class's latest deadline, as it
    would have. *)
module Deadlines : sig
  type engine := t
  type t

  val create : engine -> delay:float -> live:(int -> bool) -> fire:(int -> unit) -> t
  (** A class of timers [delay] seconds long.  [fire id] runs when timer
      [id] expires; [live id] says whether it still has to, and must
      stay [false] once it is.  A negative or NaN delay raises
      [Invalid_argument]. *)

  val add : t -> int -> unit
  (** [add d id] starts a timer for [id], expiring [delay] seconds from
      now.  It takes its sequence number from the engine at once. *)
end
