(** Networked Policy Decision Point.

    Serves ["authz-query"] on its node: fetches/refreshes its policy from
    a PAP (version-gated, TTL-cached), gathers missing attributes from
    PIPs (the context-handler loop of Fig. 4), evaluates, and replies with
    a decision plus obligations. *)

type policy_refresh =
  | Never  (** use the locally installed policy only *)
  | Every_query  (** revalidate against the PAP before each decision *)
  | Ttl of float  (** revalidate when the cached copy is older than this *)

type t

val create :
  Dacs_ws.Service.t ->
  node:Dacs_net.Net.node_id ->
  name:string ->
  ?root:Dacs_policy.Policy.child ->
  ?pap:Dacs_net.Net.node_id ->
  ?refresh:policy_refresh ->
  ?pips:Dacs_net.Net.node_id list ->
  ?signer:Dacs_crypto.Rsa.private_key * Dacs_crypto.Cert.t ->
  ?service_time:float ->
  ?rule_cost:float ->
  ?max_inflight:int ->
  ?attr_cache_ttl:float ->
  unit ->
  t
(** [refresh] defaults to [Every_query] when a PAP is given, else
    [Never].  With [signer], every decision response is signed and carries
    the PDP's certificate (see {!Wire.write_signed_authz_response}) so PEPs can
    authenticate their decision point (§3.2).  The PDP's own upstream
    calls — PAP policy fetches and PIP attribute queries — take one
    attempt each through the bus's circuit breaker.  [service_time] (seconds of virtual time, default 0) models
    evaluation capacity: each query occupies the PDP for that long and
    queues FIFO behind in-progress work, which is what makes single-PDP
    saturation — and the sharded tier's speedup — measurable (E16).  0
    preserves the historical instantaneous behaviour exactly.

    [max_inflight] (default: unbounded) caps that FIFO: at most this many
    queries accepted off the wire but not yet answered.  A query arriving
    past the bound is rejected immediately with an Indeterminate
    ("pdp overloaded") response and counted in [pdp_overload_total{node}]
    — the shard sheds load instead of queueing doomed work, which is what
    keeps admitted-request latency bounded under saturation (E18).

    [attr_cache_ttl] (default: no cache) enables a PDP-side attribute
    cache: fetched bags (including empty ones — negative entries) are
    reused across decisions for that long, the PDP subscribes to its
    PIPs for explicit invalidation pushes ([remove_subject_attribute]
    purges subscribed caches immediately), and serves
    ["attribute-invalidate"].

    Attributes missing from a context-handler round are fetched together:
    one multi-part frame per PIP (the B/BT batch envelope), or a plain
    call when only one is missing.  PIPs are tried in [pips] order and
    the first non-empty bag wins; only the attributes a PIP answered
    empty, or all of them when its frame failed, move on to the next
    PIP.  Attributes no PIP holds are cached as empty bags when the
    attribute cache is on.

    [rule_cost] (seconds of virtual time per rule scanned, default 0)
    extends the capacity model: each query additionally occupies the PDP
    for [rule_cost] times the number of rules evaluation considers —
    the candidates {!Dacs_policy.Compiled} dispatch selects for the
    request.

    Every installed or fetched policy is compiled
    ({!Dacs_policy.Compiled.compile}, then incrementally
    {!Dacs_policy.Compiled.recompile}) and every decision is served by
    {!Dacs_policy.Compiled.evaluate}; {!Dacs_policy.Policy.evaluate_child}
    remains the reference the differential oracle checks it against. *)

val node : t -> Dacs_net.Net.node_id

val attr_cache : t -> Cache_hierarchy.Attr_cache.t option
(** The attribute cache, when [attr_cache_ttl] was given. *)

val install_policy : t -> Dacs_policy.Policy.child -> unit
(** Local installation (also what a PAP fetch does internally): compiles
    the tree, incrementally against the previously installed one. *)

val policy_version : t -> int
(** Last version seen from the PAP (0 when none). *)

val compiled_enabled : t -> bool
(** Always [true]: compiled evaluation is the only serving evaluator.
    Kept for callers that attribute evaluation cost to it. *)

val compilation_epoch : t -> int
(** Epoch of the current compiled form (0 when no policy is installed).
    Bumped whenever an installed or fetched policy actually changed the
    tree; a structurally identical install keeps it. *)

val evaluate_local :
  t -> Dacs_policy.Context.t -> (Dacs_policy.Decision.result -> unit) -> unit
(** The full decision pipeline without the inbound network hop (used by
    agent-mode PEPs that embed their PDP). *)

(** {1 Statistics} *)

type stats = {
  queries : int;
  permits : int;
  denies : int;
  pip_fetches : int;  (** attribute-query RPC frames issued (a batched
                          multi-attribute round trip counts once) *)
  pap_fetches : int;  (** policy-query calls issued *)
  pap_refresh_hits : int;  (** PAP said "current" *)
  overloads : int;  (** queries rejected by the max-inflight bound *)
}

val stats : t -> stats
(** A thin read over the bus-wide metrics registry's [pdp_*_total{node}]
    counters. *)

val reset_stats : t -> unit
(** Zeros this PDP's series in the shared registry. *)
