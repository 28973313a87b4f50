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
      PEPs between their private L1 and the PDP tier; revocation-driven
      invalidations fan out along the syndication hierarchy (push) with
      an anti-entropy poll as the backstop, so a revoked grant is purged
      from every member within one round.

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
  (** {!find} with pre-interned ids: one packed-word table probe, no
      string hashing.  What {!Pdp_service} uses per evaluation. *)

  val store_sym : t -> now:float -> pair:int -> subject_sym:int -> Dacs_policy.Value.bag -> unit

  val find :
    t ->
    now:float ->
    category:Dacs_policy.Context.category ->
    id:string ->
    subject:string ->
    Dacs_policy.Value.bag option
  (** [Some bag] within the TTL (the bag may be empty: negative entries
      suppress refetching attributes no PIP has); [None] on miss or
      expiry (the expired entry is dropped). *)

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

  val invalidate_region : t -> Dacs_policy.Delta.t -> int
  (** Drop the bags at every attribute position the region's pins and
      guards mention, resolved once to pair syms and tested against each
      entry's packed key (pair syms the intern table never minted drop
      conservatively); returns the number dropped.  [Unbounded] clears
      the cache, [Empty] drops nothing. *)

  val clear : t -> unit
  val size : t -> int
  val hits : t -> int
end

(** {1 Single-flight coalescing} *)

module Single_flight : sig
  type 'a t

  type 'a join =
    | Leader of ('a -> unit)
        (** proceed upstream; call the returned continuation with the
            result to deliver to yourself and every coalesced waiter *)
    | Coalesced  (** an identical query is in flight; your continuation
                     fires when the leader's result arrives *)

  val create : Dacs_telemetry.Metrics.t -> node:string -> 'a t
  (** Coalesced joins count into [coalesced_total{node}]. *)

  val join : 'a t -> key:string -> ('a -> unit) -> 'a join

  val coalesced : 'a t -> int

  val counter : 'a t -> Dacs_telemetry.Metrics.counter
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
  (** Registers [cache-lookup], [cache-put], [cache-invalidate] and
      [cache-sync] on [node]; [max_entries] defaults to 4096.  Storage is a {!Decision_cache} (owner =
      node), so the usual [decision_cache_*{cache}] series apply on top
      of the [l2_*_total{node}] counters and the
      [l2_invalidation_latency_seconds{node}] histogram. *)

  val node : t -> Dacs_net.Net.node_id

  val subscribe : t -> child:Dacs_net.Net.node_id -> unit
  (** Wire a child L2 under this one: full purges and keyed drops fan
      out to every subscribed child (and recursively to theirs). *)

  val enable_anti_entropy : t -> parent:Dacs_net.Net.node_id -> period:float -> unit
  (** Poll the parent's invalidation epoch every [period] seconds and
      apply any full purge the push missed — the one-round staleness
      bound for revocations. *)

  val set_on_invalidate : t -> (string option -> unit) -> unit
  (** Local hook run on every applied invalidation ([None] = full
      purge); domains use it to purge their PEPs' L1 caches in the same
      round. *)

  val set_on_region : t -> (Dacs_policy.Delta.t -> unit) -> unit
  (** Like {!set_on_invalidate} for targeted purges: domains use it to
      region-invalidate their PEPs' L1 caches in the same round. *)

  val invalidate_all : t -> unit
  (** Revocation entry point: purge here, bump the epoch, fan out. *)

  val invalidate : t -> key:string -> unit

  val invalidate_region : t -> Dacs_policy.Delta.t -> unit
  (** Targeted purge from a policy publish: drop only matching entries
      (see {!Decision_cache.invalidate_region}), bump the epoch, fan a
      [cache-region] frame to subscribed children.  [Unbounded] falls
      back to {!invalidate_all}; [Empty] is a no-op (no epoch bump, no
      fan-out).  The epoch bump means a child that misses the push
      repairs itself at its next anti-entropy poll (as a conservative
      full purge); a child that receives it advances its parent-epoch
      view and does not re-purge. *)

  val epoch : t -> int
  val size : t -> int

  val rejected_puts : t -> int
  (** Puts stamped before the last full/region purge, dropped instead of
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
