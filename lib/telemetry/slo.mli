(** SLO monitor: rolling-window availability and latency objectives with
    error-budget burn rates (§3 management challenge — the layer that
    turns per-decision telemetry into "are we keeping our promises").

    Two objectives per monitor:

    - {b availability}: the fraction of decisions that were {e served} —
      answered by policy (any cache tier, the live tier, or a
      bounded-stale serve) rather than failed closed.
    - {b latency}: the fraction of decisions answered within the
      threshold.

    Decisions are accounted into fixed-width slices of the virtual clock
    (window/60 each); a {!status} sums the slices inside the window, so
    traffic ages out deterministically as virtual time advances and a
    given seed always reproduces the same statuses. *)

type objective = {
  availability_target : float;  (** e.g. [0.999]: >= 99.9% of decisions served *)
  latency_threshold : float;  (** seconds; a decision this fast is compliant *)
  latency_target : float;  (** e.g. [0.99]: >= 99% within the threshold *)
  window : float;  (** rolling window, seconds of virtual time *)
}

val objective : objective
(** Every monitor's: 99.9% availability, 99% of decisions within 250 ms,
    over 60 s. *)

type t

val create : now:(unit -> float) -> unit -> t
(** [now] must be the virtual clock for deterministic windows. *)

val record : t -> ok:bool -> latency:float -> unit
(** Account one decision at the current virtual time.  [ok] means the
    decision was served (not failed closed); [latency] is its end-to-end
    decision latency in seconds. *)

type status = {
  at : float;
  total : int;  (** decisions inside the window *)
  ok : int;
  fast : int;
  availability : float;  (** ok/total; 1.0 over an empty window *)
  latency_compliance : float;  (** fast/total; 1.0 over an empty window *)
  availability_burn : float;
      (** error rate as a multiple of the error budget: 1.0 burns the
          budget exactly at the sustainable rate, above 1.0 exhausts it *)
  latency_burn : float;
  availability_met : bool;
  latency_met : bool;
}

val status : t -> status
(** The window ending now. *)
