(** Policy Enforcement Point: the barrier around one exposed resource.

    Supports the paper's three authorisation-decision query sequences
    (§2.2):

    - {b Pull} (policy-issuing, Fig. 3): the PEP turns each access request
      into an authorisation query to the {!Pdp_tier} its caller built and
      holds — {!Pdp_tier.ordered} for ordered failover across PDP replicas
      (one plain query frame per attempt, replicas tried in list order),
      {!Pdp_tier.create} for hash-partitioned, batched shards.  One
      decision ladder (see {!decide}) serves both; its live step is one
      tier call.  The tier's trust store, retry policy and membership are
      set on the tier itself ({!Pdp_tier.require_signed_decisions},
      {!Pdp_tier.set_retry_policy}, {!Pdp_tier.set_shards}), so a push or
      agent PEP has none to be handed.
    - {b Push} (capability-issuing, Fig. 2): the request must carry a
      signed capability assertion; the PEP verifies it locally, optionally
      checks revocation with the issuer, and can still consult a local PDP
      for the resource provider's final say.
    - {b Agent}: an embedded PDP decides locally from syndicated policies
      — no per-request network traffic at all.

    Every decision is enforced together with its obligations: audit
    obligations append to the domain audit log; encrypt-response
    obligations return the content encrypted. *)

type mode =
  | Sharded of { tier : Pdp_tier.t; cache : Decision_cache.t option }
      (** Pull enforcement over any caller-built tier, ordered or
          rendezvous-sharded: the live step is one {!Pdp_tier.decide},
          and [cache] is the PEP's L1. *)
  | Push of {
      trusted_issuer : string -> Dacs_crypto.Rsa.public_key option;
      check_revocation : Dacs_net.Net.node_id option;
          (** capability service to ask before honouring an assertion *)
      local_pdp : Pdp_service.t option;  (** resource provider's own check *)
    }
  | Agent of Pdp_service.t

type t

val create :
  Dacs_ws.Service.t ->
  node:Dacs_net.Net.node_id ->
  domain:string ->
  resource:string ->
  ?content:string ->
  ?audit:Audit.t ->
  ?encryption_key:string ->
  mode ->
  t
(** Registers the ["access"] service on [node].  [content] is what a
    permitted requester receives; [encryption_key] (required for the
    encrypt-response obligation) protects it when obliged to, each
    response under a fresh nonce from a stream seeded by [node]. *)

val node : t -> Dacs_net.Net.node_id
val resource : t -> string

val invalidate_region : t -> Dacs_policy.Delta.t -> int
(** The PEP's one L1 purge, called when it learns its policy changed or
    a right was revoked: drop the entries a change-impact region covers
    ([Unbounded] empties L1; see {!Decision_cache.invalidate_region});
    returns the entries dropped, 0 for a PEP without an L1. *)

val decide : t -> Dacs_policy.Context.t -> (Dacs_policy.Decision.result -> unit) -> unit
(** The decision ladder for a context without the inbound access RPC or
    enforcement: L1 fresh -> L2 fresh -> live -> bounded-stale L1 ->
    offline log -> fail closed.  Identical concurrent queries (same
    {!Decision_cache.request_key}) always share one descent.  Its live
    step is one call to the PEP's tier.  A live answer in flight across an L1 purge is served
    but not stored, and an Indeterminate live answer is never published
    to the L2.  This is
    what the differential oracle drives to prove that no cache level can
    change a decision.  In push mode (capabilities live on the wire)
    answers Indeterminate. *)

val decide_explained :
  t ->
  Dacs_policy.Context.t ->
  (Dacs_policy.Decision.result -> Provenance.t -> unit) ->
  unit
(** {!decide} plus the decision's provenance record: the ladder rung that
    answered (L1/L2/live/stale/offline/fail-closed/shed), the serving
    shard, batch size, failover count, resilience flags, staleness age,
    the deciding PDP's compilation epoch (or offline epoch) and, for
    offline serves, the log head.  A descent that reached the tier
    carries the tier's record of its query's trip ({!Pdp_tier.decide}),
    re-staged for a stale, offline or fail-closed exit (a stale or
    offline answer to the tier's offer reads [hedged]), so its
    resilience flags are that query's own; an L1 or L2 hit reads both
    flags false.  Coalesced waiters receive the
    leader's record with the [coalesced] flag set and [at] re-stamped to
    their own delivery instant; since the leader's record is made at
    completion, a waiter parked across a partition transition observes
    the rung that actually answered.  The same record is
    attached to the audit entry by the wire handler, and the ladder
    latency is observed into [pep_decide_seconds{node,stage}] (with trace
    exemplars when tracing is on). *)

(** {1 Hierarchical caching} *)

val set_l2 : t -> Dacs_net.Net.node_id option -> unit
(** Attach (or detach) the domain's shared {!Cache_hierarchy.L2} service:
    a pull PEP consults it between an L1 miss and the live
    tier, warm L1 from its hits, and publish live decisions back to it.
    An unreachable L2 degrades to a miss, never a failure. *)

(** {1 Overload protection} *)

type admission = { max_inflight : int; max_queue : int }
(** At most [max_inflight] concurrent decision-ladder descents; at most
    [max_queue] further requests parked behind them in arrival order. *)

val set_admission : t -> admission option -> unit
(** Bound the admission queue (default: unbounded).  A request arriving
    with the queue full is {e shed}: it fails closed immediately with an
    Indeterminate carrying {!shed_reason} (the enforcement layer denies
    it) and increments [pep_shed_total{node}] — bounded backlog means the
    latency of admitted requests stays bounded too.  [None] removes the
    bound and admits everything currently waiting.  [max_inflight] must
    be positive and [max_queue] non-negative, else [Invalid_argument]. *)

val admission_inflight : t -> int
val admission_queue_length : t -> int

val shed_reason : string
(** The Indeterminate message carried by shed requests, so load drivers
    can tell shedding apart from other authorisation errors. *)

(** {1 Resilience}

    Orthogonal to the mode: how hard this PEP fights to reach its
    decision (and revocation) authorities, and how far it degrades when
    it cannot.  Every such call goes through the bus's circuit breaker,
    which is on by default ({!Dacs_net.Rpc.create}); bounded-stale
    serving defaults off, and so do the tier's retries
    ({!Pdp_tier.set_retry_policy}).  A push PEP's revocation check is one
    breaker-guarded attempt that fails closed. *)

val set_stale_window : t -> float -> unit
(** Pull mode with a cache only: when the live step reaches no PDP
    (every replica or shard of the tier is unreachable), or every shard
    left to the query is suspected ({!Pdp_tier.decide}'s offer), serve
    a cached decision expired by at most this many seconds instead
    of denying (recorded in [stale_serves]).  The safety bound: a served
    decision is never older than [cache ttl + window], and it is always
    a decision the policy really issued.  [0.0] (the default) disables
    degraded serving; negative windows raise [Invalid_argument]. *)

val set_offline_replica : t -> Offline.t option -> unit
(** Attach the domain's offline replica: a new rung of the decision
    ladder, {e below} bounded-stale and {e above} fail-closed.  When the
    live tier is unreachable, or every shard left to the query is
    suspected, and no stale entry is servable, the PEP
    decides from the replica's signed event log ({!Offline.decide}),
    marks the replica offline (starting an offline epoch), and stamps
    the decision with [offline] provenance carrying the epoch and log
    head.  Offline answers are never written to L1/L2 — deny-wins replay
    on heal retroactively invalidates any the converged state
    contradicts.  An offline Indeterminate falls through to fail-closed
    and is never logged.  [None] (the default) removes the rung. *)

(** {1 Statistics} *)

type stats = {
  requests : int;
  granted : int;
  denied : int;
  pdp_calls : int;  (** live descents: queries put to the PEP's tier *)
  failovers : int;
      (** the tier's re-routes after a failed frame
          ([pdp_tier_failovers_total]); a replica whose breaker sheds is
          skipped without one *)
  retries : int;  (** re-sends issued after a failed attempt *)
  breaker_trips : int;  (** circuit-breaker opens observed on our calls *)
  breaker_rejections : int;  (** calls shed without touching the network *)
  cache_hits : int;
  l2_hits : int;  (** decisions served fresh from the shared L2 cache *)
  coalesced : int;  (** queries folded onto an identical in-flight one *)
  stale_serves : int;  (** degraded answers served from expired cache *)
  offline_serves : int;  (** decisions served from the offline event log *)
  shed : int;  (** requests refused by the bounded admission queue *)
  assertion_rejections : int;
  revocation_checks : int;
  obligations_fulfilled : int;
}

val stats : t -> stats
(** A thin read over the bus-wide metrics registry: every field is a
    [pep_*_total{node}] counter, except the resilience trio which reads
    the very [rpc_*_total{src=node}] series the RPC layer increments,
    and [failovers], the tier's own count. *)
