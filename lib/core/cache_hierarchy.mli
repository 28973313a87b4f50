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
      PEPs between their private L1 and the PDP tier.  Its owner purges
      it by change-impact region ([Unbounded] for a revocation); a
      domain does so, with its PEPs' L1s, whenever its PAP accepts a
      policy update, so one VO publish purges each member once.

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
  (** Registers [cache-lookup] and the one-way [cache-put] on [node];
      [max_entries] defaults to 4096.  Storage is a {!Decision_cache}
      (owner = node), so the usual [decision_cache_*{cache}] series apply
      on top of the [l2_*_total{node}] counters.  Nothing is purged over
      the network: the owner purges with {!invalidate_region} (a domain
      does so when its PAP accepts an update, see {!Domain.create}). *)

  val node : t -> Dacs_net.Net.node_id

  val invalidate_region : t -> Dacs_policy.Delta.t -> unit
  (** Drop the entries the region covers (see
      {!Decision_cache.invalidate_region}; [Unbounded] is the full flush
      a revocation sends) and stamp the purge, so a put sent before it is
      rejected.  [Empty] is a no-op. *)

  val size : t -> int

  val rejected_puts : t -> int
  (** Puts stamped before the last purge, dropped instead of
      resurrecting the entry they carried. *)

  type stats = { lookups : int; hits : int; puts : int; invalidations : int; size : int }

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
  (** Sends the put as one one-way frame ({!Dacs_ws.Service.cast}),
      stamped with the send time: nothing answers it, and the L2 drops
      a put sent before its last purge. *)
end
