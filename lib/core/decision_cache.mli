(** Decision cache for enforcement points (§3.2 communication
    performance).

    Caching authorisation decisions cuts PEP→PDP traffic at the price the
    paper warns about: entries may outlive the policy that produced them,
    yielding stale (false-positive or false-negative) decisions until the
    TTL lapses.  The experiments measure both sides of that trade.

    Beyond the TTL, an entry may linger for a bounded staleness window
    (see {!lookup}): when every decision point is unreachable, a pull
    PEP may choose degraded availability — serving the last known
    decision — over denying everything, as long as the decision is not
    older than [ttl + max_stale]. *)

type t

val create :
  ?metrics:Dacs_telemetry.Metrics.t -> ?owner:string -> ?max_entries:int -> ttl:float -> unit -> t
(** [max_entries] defaults to 1024; insertion past the limit evicts the
    entry whose latest insertion is oldest.  Every stat is counted in
    [decision_cache_*_total{cache=owner}] series ([owner] defaults to
    ["default"]) of [metrics], or of a private registry when [metrics] is
    absent.  Series are shared by name and labels, so caches counting
    into one registry need distinct owners. *)

val get : t -> now:float -> key:string -> Dacs_policy.Decision.result option
(** [None] on miss or expiry (expired entries are dropped). *)

(** {1 Stale-tolerant lookup} *)

type lookup =
  | Fresh of Dacs_policy.Decision.result  (** within TTL *)
  | Stale of { result : Dacs_policy.Decision.result; age : float }
      (** expired by [age <= max_stale] seconds; the entry is retained *)
  | Absent  (** never cached, or expired beyond the window (dropped) *)

val lookup : t -> now:float -> max_stale:float -> key:string -> lookup
(** Like {!get} but distinguishing a bounded-stale entry from a true
    miss.  [get] is [lookup ~max_stale:0.0] collapsed to an option.
    [Fresh] counts as a hit, [Stale] and [Absent] as misses; entries
    expired beyond [max_stale] are removed and counted as expiries. *)

val put : ?since:int -> t -> now:float -> key:string -> Dacs_policy.Decision.result -> unit
(** Permit, Deny and NotApplicable are all cached under the same TTL —
    negative caching: absorbing a hot denied request saves the same
    round trips as a hot granted one.  Indeterminate results are never
    stored: they describe a machinery fault at one instant, and caching
    one would keep failing requests after the fault clears.

    [since] is the {!purges} count read when the answer's descent
    started: if the cache has been purged since, the fill is dropped, so
    an answer in flight across a purge cannot re-enter the cache after
    it (the L1 twin of the shared L2's sent-before-purge rejection). *)

val purges : t -> int
(** Purges applied so far: each {!invalidate_region} with a
    non-[Empty] region counts one. *)

val invalidate_region : t -> Dacs_policy.Delta.t -> int
(** The one way entries leave other than expiry and eviction: drop the
    entries whose keys the region covers; returns the number dropped.
    The region is compiled once per call ({!Intern.compile_region}).
    When the cache's census proves that no live key can be in it
    ({!Intern.census_misses}) the purge visits no entry; otherwise each
    packed key is tested as integer atoms ({!Intern.census_in_region}),
    exactly as [Delta.covers] would judge the context the key decodes
    to, and the scan allocates nothing per key or per dropped entry
    (a first scan also starts counting the region's pairs).  Conservative
    on both unreadable keys (a shared L2 stores keys its peers put over
    the wire, and a digest, a corrupted key or an atom id the intern
    table never minted drops) and environment-guarded pins (keys carry
    no Environment atoms, so such pins never exclude).  [Unbounded]
    empties the cache (what a PEP applies when a policy change has no
    bounded region, or a right is revoked); [Empty] drops nothing. *)

val region_scans : t -> int
(** Bounded-region purges that visited the entries: the {!purges} with
    a [Zones] region that the census could not prove missed. *)

val size : t -> int

val fold_live : t -> now:float -> (string -> 'a -> 'a) -> 'a -> 'a
(** Fold over the keys still fresh at [now], in the table's order; no
    counter moves.  What an L2 announces to a new subscriber. *)

type stats = {
  hits : int;
  misses : int;
  expiries : int;
  evictions : int;
  stale_hits : int;  (** lookups answered [Stale] *)
}

val stats : t -> stats
(** A read over this cache's [decision_cache_*_total{cache=owner}]
    counters. *)

(** {1 Request keys} *)

val request_key : Dacs_policy.Context.t -> string
(** Canonical cache key: the packed interned atom tuple of the subject,
    resource and action attribute multisets ({!Intern.request_key}).
    Environment attributes (e.g. the request time) are deliberately
    excluded — they change on every request, and a cached decision is
    precisely one that skips re-evaluating them until the TTL lapses. *)
