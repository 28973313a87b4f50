(** Multi-level caching for the decision path (§3.2 communication
    performance).

    Three mechanisms, composable and individually optional, that cut the
    per-decision message count without changing any decision:

    - {!Attr_cache}: a PDP-side TTL cache of attribute bags, filled by
      batched PIP round trips and invalidated explicitly when a PIP
      drops a subject attribute.
    - {!Single_flight}: concurrent identical in-flight queries (same
      {!Decision_cache.request_key}) share one upstream call instead of
      stampeding the decision tier.
    - {!L2}: a domain-level shared decision cache service, consulted by
      PEPs between their private L1 and the PDP tier; purges — each a
      change-impact region, [Unbounded] for a revocation — fan out along
      the syndication hierarchy (push) with an anti-entropy poll as the
      backstop, so a revoked grant is purged from every member within
      one round.

    The stale-degradation ladder composes unchanged:
    L1 fresh -> L2 fresh -> live tier -> bounded-stale L1 -> fail closed. *)

(** {1 PDP-side attribute cache} *)

module Attr_cache : sig
  type t

  val create : Dacs_telemetry.Metrics.t -> node:string -> ttl:float -> unit -> t
  (** Mirrors hits/misses/invalidations into
      [pdp_attr_cache_*_total{node}].  The table is pre-sized for 1024
      entries.  Raises [Invalid_argument] on a non-positive TTL. *)

  val pair_sym : Dacs_policy.Context.category -> string -> int
  (** Intern an attribute position once (e.g. at resolver setup) and use
      the sym-based lookups below on the hot path. *)

  val subject_sym : string -> int

  val find_sym : t -> now:float -> pair:int -> subject_sym:int -> Dacs_policy.Value.bag option
  (** [Some bag] within the TTL (the bag may be empty: negative entries
      suppress refetching attributes no PIP has); [None] on miss or
      expiry (the expired entry is dropped).  Takes pre-interned ids:
      one packed-word table probe, no string hashing.  What
      {!Pdp_service} uses per evaluation. *)

  val store :
    t ->
    now:float ->
    category:Dacs_policy.Context.category ->
    id:string ->
    subject:string ->
    Dacs_policy.Value.bag ->
    unit

  val invalidate_subject : t -> subject:string -> id:string -> unit
  (** What a PIP's [attribute-invalidate] push triggers: drop the cached
      subject-category bag for (subject, id). *)

  val clear : t -> unit
  val size : t -> int
  val hits : t -> int
end

(** {1 Single-flight coalescing} *)

module Single_flight : sig
  type 'w t
  (** The descents in flight, one per request key; ['w] is what a
      waiter parks to be answered. *)

  type 'w flight
  (** One descent in flight and the waiters parked on it. *)

  val create : Dacs_telemetry.Metrics.t -> node:string -> 'w t
  (** Coalesced joins count into [coalesced_total{node}]. *)

  val find : 'w t -> key:string -> 'w flight option
  (** The descent in flight for [key], if any; [None] allocates nothing. *)

  val wait : 'w t -> 'w flight -> 'w -> unit
  (** Park a waiter on a descent in flight, counted as one coalesced
      query: it is answered when the leader settles. *)

  val lead : 'w t -> key:string -> 'w flight
  (** Start the descent for [key]: identical queries {!find} it until it
      settles. *)

  val settle : 'w t -> 'w flight -> 'w list
  (** The descent is answered: unregister it — so a continuation issuing
      the same query again starts a new flight — and return its waiters
      in arrival order, for the leader to answer after itself. *)

  val coalesced : 'w t -> int

  val counter : 'w t -> Dacs_telemetry.Metrics.counter
  (** The [coalesced_total] cell, for owners folding it into their own
      stats/reset machinery. *)
end

(** {1 Domain-level shared L2 decision cache} *)

module L2 : sig
  type t

  val create :
    Dacs_ws.Service.t ->
    node:Dacs_net.Net.node_id ->
    ?metrics:Dacs_telemetry.Metrics.t ->
    ?max_entries:int ->
    ttl:float ->
    unit ->
    t
  (** Registers [cache-lookup], [cache-put], [cache-region] and
      [cache-sync] on [node]; [max_entries] defaults to 4096.  Storage is
      a {!Decision_cache} (owner = node), so the usual
      [decision_cache_*{cache}] series apply on top of the
      [l2_*_total{node}] counters and the
      [l2_invalidation_latency_seconds{node}] histogram.  A
      [cache-region] frame is applied only when its caller is this
      cache's parent (set by {!subscribe} or {!enable_anti_entropy});
      any other caller gets a [soap:Sender] fault and purges nothing. *)

  val node : t -> Dacs_net.Net.node_id

  val subscribe : t -> child:t -> unit
  (** Wire [child] under this cache: every purge fans out to each
      subscribed child (and recursively to theirs), and the child
      records this cache's node as its parent, the one node whose
      purges it accepts. *)

  val enable_anti_entropy : t -> parent:Dacs_net.Net.node_id -> period:float -> unit
  (** Record [parent] as this cache's parent and poll its purge epoch
      every [period] seconds, applying any purge the push missed as a
      full purge — the one-round staleness bound for revocations. *)

  val set_on_region : t -> (Dacs_policy.Delta.t -> unit) -> unit
  (** Local hook run with the region of every purge applied here
      ([Unbounded] for a full purge or an anti-entropy repair); domains
      use it to purge their PEPs' L1 caches in the same round. *)

  val invalidate_region : t -> Dacs_policy.Delta.t -> unit
  (** The one purge entry point.  Drop the entries the region covers
      (see {!Decision_cache.invalidate_region}; [Unbounded] is the full
      flush a revocation sends), bump the epoch, run the hook and fan a
      [cache-region] frame to subscribed children.  [Empty] is a no-op
      (no epoch bump, no fan-out).  The epoch bump means a child that
      misses the push repairs itself at its next anti-entropy poll (as a
      full purge); a child that receives it advances its parent-epoch
      view and does not re-purge. *)

  val epoch : t -> int
  val size : t -> int

  val rejected_puts : t -> int
  (** Puts stamped before the last purge, dropped instead of
      resurrecting the entry they carried. *)

  type stats = { lookups : int; hits : int; puts : int; invalidations : int; size : int; epoch : int }

  val stats : t -> stats

  (** {2 Client side (PEP helpers)} *)

  val remote_lookup :
    Dacs_ws.Service.t ->
    src:Dacs_net.Net.node_id ->
    l2:Dacs_net.Net.node_id ->
    key:string ->
    (Dacs_policy.Decision.result option -> unit) ->
    unit
  (** One plain call with a 1 s timeout.  Transport failures and
      malformed answers are reported as misses: the shared cache can
      never make a decision path fail. *)

  val remote_put :
    Dacs_ws.Service.t ->
    src:Dacs_net.Net.node_id ->
    l2:Dacs_net.Net.node_id ->
    key:string ->
    Dacs_policy.Decision.result ->
    unit
  (** Fire-and-forget. *)
end
