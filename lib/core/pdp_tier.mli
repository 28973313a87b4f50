(** Sharded PDP tier: a client-side dispatcher that spreads authorisation
    load across a set of {!Pdp_service} replicas (§3.1 scale, §3.2
    communication performance).

    Placement ranks every shard for each request.  A tier from {!create}
    hash-partitions requests by their decision-cache key
    ({!Decision_cache.request_key}) with rendezvous (highest-random-weight)
    hashing: a key goes to the shard that ranks it highest, each shard
    ranking by a mix of the key's hash and the shard's own seed.  Each
    replica sees a stable, even slice of the request space — its policy
    working set and any downstream caches stay warm — losing a replica
    only remaps the keys that replica owned, and adding one only moves
    keys onto it.  A tier from {!ordered} is a pull PEP's failover list
    (Fig. 3): every key ranks the shards in list order, so the first
    live shard answers everything.

    Queries headed for the same shard are coalesced into a single batched
    RPC frame: up to [batch] queries per round-trip, and a partial batch
    flushes at the end of the current virtual instant, so it merges
    every query issued at that instant.  A flush that carries one query
    sends it as a plain [authz-query] frame, Fig. 3's wire bytes, and
    maps its answer exactly as a one-part batch's; only a flush of
    several queries pays the batch envelope.  A tier whose batch limit
    is 1 therefore never sends a batch.  Each frame, plain or batch,
    waits the tier's frame timeout (1 s, or an ordered tier's
    [call_timeout]), is one attempt, and goes through the bus's circuit
    breaker.  A frame is one fault unit: a transport failure fails the
    whole frame.  The tier is the only code that re-sends a query: after
    a timeout or a breaker rejection, each query with attempts left under
    the tier's retry policy ({!set_retry_policy}; one attempt by
    default) is queued again for the same shard after one backoff
    ({!Dacs_net.Rpc.retry_after}, drawn and counted once per frame), so
    the queries of a lost frame are re-sent together, as a frame of the
    tier's own.  Every other query is individually re-routed to the
    next shard in its own key's ranking, excluding every shard that
    already failed it, with a fresh count of attempts.  When no shard
    remains the query fails closed with an [Indeterminate] decision.

    Routing — first and on every re-route — skips each shard whose
    circuit breaker would shed a call now ({!Dacs_net.Rpc.breaker_sheds}).
    A skipped shard is sent no frame and is not a failover; it counts
    once in [rpc_breaker_rejections_total{src}] under the tier's node,
    as a shed call would, and the query's provenance records the
    breaker.  When every shard is skipped, the query fails closed before
    {!decide} returns: no frame, no flush event, no failover.
    Each query hashes its key once, and every re-route ranks the same
    hash.

    Each shard has a failure detector.  The tier keeps a Jacobson/Karels
    estimate of the shard's round trip over its answered frames, and
    [RTO = clamp (srtt + 4·rttvar) 0.2 timeout] seconds — the frame
    timeout until the first answer (RFC 6298).  A shard with frames
    outstanding that has answered nobody on the bus
    ({!Dacs_net.Rpc.heard_from}) since the latest of its last answer,
    the start of its current busy period and its last suspicion, for one
    RTO, is suspected: {!Dacs_net.Rpc.expire} fails its waiting frames
    with a timeout at that instant, and their queries are re-sent or
    fail over as above.  A re-sent frame is outstanding like any other:
    it restarts the shard's silence window and gets its own RTO.  Each
    expired frame counts as one breaker failure, so the breaker still
    trips on its own rule.  Silence, not a shorter deadline, is the
    evidence: a saturated shard that keeps answering is never suspected,
    however slow its round trips.  A shard that has never answered gets
    the full frame timeout.

    The tier registers its telemetry in the bus-wide registry:
    [pdp_tier_dispatch_total{node,shard}] and
    [pdp_tier_batches_total{node,shard}] per shard, the
    [pdp_tier_batch_size{node}] histogram, and tier-level
    [pdp_tier_failovers_total], [pdp_tier_rebalance_total] and
    [pdp_tier_exhausted_total{node}] counters, and
    [pdp_tier_expiries_total{node}], registered at the first
    suspicion. *)

type t

val create :
  Dacs_ws.Service.t ->
  node:Dacs_net.Net.node_id ->
  shards:Dacs_net.Net.node_id list ->
  ?batch:int ->
  unit ->
  t
(** Rendezvous-placed dispatcher issuing calls from [node] with a 1 s
    frame timeout.  [batch] (default 8) is the maximum queries per
    frame.  Each per-query response body is decoded by the reply reader
    of {!Wire.Services.authz_query_checked}; see
    {!require_signed_decisions}. *)

val ordered :
  Dacs_ws.Service.t ->
  node:Dacs_net.Net.node_id ->
  pdps:Dacs_net.Net.node_id list ->
  call_timeout:float ->
  t
(** A pull PEP's tier: placement in [pdps] order, batch limit 1 (one
    query per flush, so plain frames only), and [call_timeout] as the
    timeout of every frame it sends and the RTO cap. *)

val require_signed_decisions : t -> Dacs_crypto.Cert.Trust_store.t -> unit
(** From now on, accept only per-query answers signed by a PDP whose
    certificate the given trust store trusts
    ({!Dacs_crypto.Cert.Trust_store.trusts}), over the bytes the PDP
    wrote.  A forged or unsigned answer is delivered as an
    [Indeterminate] decision ("unacceptable PDP response: ...") from the
    shard that sent it, at epoch 0 — the PEP denies it, and the shard
    is not failed over. *)

val set_retry_policy : t -> Dacs_net.Rpc.retry_policy -> unit
(** The retry policy of every query from now on ({!Dacs_net.Rpc.no_retry}
    by default): a query whose frame times out or is shed by the breaker
    is re-sent to its shard with backoff until its attempts there are
    spent, then fails over.  Raises [Invalid_argument] when the policy
    fails {!Dacs_net.Rpc.validate_retry}. *)

val shards : t -> Dacs_net.Net.node_id list

val set_shards : t -> Dacs_net.Net.node_id list -> unit
(** Replace the shard set (a no-op when the set is unchanged, in any
    order — on an ordered tier, in the same order; otherwise counted in
    [pdp_tier_rebalance_total]).  Only future
    routing is affected: already-queued batches still go to their shard
    and fail over normally if it is gone.  This is what discovery-driven
    rebinding calls. *)

val shard_for : t -> string -> Dacs_net.Net.node_id option
(** The shard that ranks a raw key highest (exposed for tests); [None]
    iff the tier has no shards.  The pure owner: breakers play no part,
    and the order of the shard list matters only on an ordered tier. *)

val rto : t -> Dacs_net.Net.node_id -> float
(** The shard's current retransmission timeout in seconds (exposed for
    tests): the frame timeout before its first answered frame, then
    [srtt + 4·rttvar] clamped to \[0.2, timeout\]. *)

val decide :
  ?key:string ->
  t ->
  Dacs_policy.Context.t ->
  ((Dacs_policy.Decision.result, string) result -> Provenance.t -> unit) ->
  unit
(** Route one authorisation query through the tier.  The continuation
    fires exactly once, with the shard's answer as [Ok] (which may itself
    be an [Indeterminate] decision — e.g. a malformed response or a SOAP
    fault), or [Error reason] when the tier could not obtain a decision
    at all (no shard reachable, every shard's breaker open, or the tier
    is empty).  Callers decide how to degrade — a PEP falls back to
    bounded-stale cache, then fails closed.

    The continuation also receives the query's provenance record, built
    by the tier as it delivers: stage [Live] on [Ok], [Fail_closed] on
    [Error].  [shard] is the shard that answered ([None] when none
    could); [batch] the queries in the flush that carried the answer on
    a sharded tier — 1 for a flush of one, though it rides a plain frame
    — and 0 on an ordered tier or when no shard answered; [failovers]
    the shards excluded before the answer; [epoch] the deciding PDP's
    compilation epoch (0 = unknown).  [retried] says the tier re-sent
    this query after a failed frame.  [breaker_tripped] says its route
    skipped a shard for its breaker, or a frame carrying it was refused
    by a breaker or failed leaving the shard's breaker open.  Both flags
    are this query's own: another query's re-send or breaker shed never
    sets them.

    [key] is the request's routing key when the caller already built it
    ({!Decision_cache.request_key} is computed otherwise) — the PEP
    passes its own cache key down so the hot path builds each key
    exactly once. *)

(** {1 Statistics} *)

type stats = {
  dispatched : int;  (** queries routed (including re-routes and re-sends) *)
  batches : int;  (** frames flushed (including re-sends) *)
  failovers : int;  (** queries re-routed after a shard failure *)
  rebalances : int;  (** shard-set changes *)
  exhausted : int;  (** queries failed closed *)
  expiries : int;  (** silent-shard suspicions that expired waiting frames *)
}

val stats : t -> stats
(** A thin read over the tier's registry series.  Per-shard sums cover
    the {e current} shard set. *)
