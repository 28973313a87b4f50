(** Decision provenance: which rung of the serving ladder answered a
    request, and in what operating conditions (§3 dependability — every
    authorization outcome must be explainable).

    A record that reached the decision tier is built by
    {!Pdp_tier.decide} when it delivers, as the record of that query's
    trip; the PEP forwards it for a live answer and re-stages a copy for
    a stale, offline or fail-closed one.  Every other rung's record is
    the PEP's own ({!Pep.decide_explained} and the wire handler above
    it).  The record is attached to the audit entry and carried to
    coalesced waiters verbatim apart from their own [coalesced] flag — a
    waiter was served by the leader's descent. *)

type stage =
  | L1  (** fresh hit in the PEP's own decision cache *)
  | L2  (** fresh hit in the domain's shared cache *)
  | Live  (** answered by a live PDP replica through the PEP's tier *)
  | Stale  (** bounded-stale serve from an expired L1 entry *)
  | Offline
      (** partitioned: decided from the domain's signed offline event log
          (below bounded-stale, above fail-closed) *)
  | Fail_closed  (** no rung could answer; Indeterminate, denied *)
  | Shed  (** refused by the bounded admission queue before any descent *)
  | Local  (** agent-mode PEP: embedded PDP, no network *)
  | Capability  (** push-mode PEP: decided from a presented capability *)

type t = {
  stage : stage;
  shard : string option;  (** serving PDP replica/shard for [Live] *)
  batch : int;  (** queries in the tier frame that carried the answer; 0 = n/a *)
  coalesced : bool;  (** folded onto an identical in-flight descent *)
  failovers : int;  (** replicas/shards skipped before this answer *)
  retried : bool;  (** the tier re-sent this query after a failed frame *)
  breaker_tripped : bool;
      (** this query's route skipped a shard for its breaker, or a frame
          carrying it was refused by a breaker or failed leaving it open *)
  stale_age : float;  (** seconds past TTL for [Stale] serves; 0 otherwise *)
  epoch : int;
      (** deciding PDP's compilation epoch — or, for [Offline] serves,
          the replica's offline epoch; 0 = unknown (no policy installed,
          or a rung that did not consult a PDP) *)
  at : float;  (** virtual-clock time the decision was delivered *)
  log_head : string option;
      (** offline log head (short digest) the decision was served from;
          [Offline] serves only *)
}

val make :
  ?shard:string ->
  ?batch:int ->
  ?coalesced:bool ->
  ?failovers:int ->
  ?retried:bool ->
  ?breaker_tripped:bool ->
  ?stale_age:float ->
  ?epoch:int ->
  ?log_head:string ->
  at:float ->
  stage ->
  t

val stage_name : stage -> string
(** ["l1"], ["l2"], ["live"], ["stale"], ["offline"], ["fail-closed"],
    ["shed"], ["local"], ["capability"]. *)

val stage_index : stage -> int
(** Dense index in [0, stage_count) — what per-stage handle caches (e.g.
    the PEP's ladder-latency histograms) key their memo arrays by. *)

val stage_count : int

val to_string : t -> string
(** One-line rendering, omitting zero-valued fields. *)

val to_json : t -> string
(** All fields, as one JSON object. *)
