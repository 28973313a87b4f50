(** Deterministic VO-scale workload engine (the load side of §3's
    communication-performance challenge).

    Builds a synthetic virtual organisation on the simulated network —
    PDP shards behind per-PEP tiers, optional L1 decision caches, bounded
    admission queues — and drives {!Dacs_core.Pep.decide} with generated
    traffic: a Zipf-skewed population of users hitting Zipf-skewed
    enforcement points, arriving either open-loop (Poisson, a fixed
    offered rate that does not slow down when the system does — the
    regime where overload protection matters) or closed-loop (a fixed
    client population with think time).

    Everything is deterministic: arrivals, population sampling and the
    virtual clock all derive from the scenario seed, so the same scenario
    renders a byte-identical report every run — load tests are replayable
    evidence, not weather. *)

type arrivals =
  | Open_loop of { rate : float }
      (** Poisson arrivals at [rate] requests per virtual second;
          exponential inter-arrival times off the seeded RNG. *)
  | Closed_loop of { clients : int; think_time : float }
      (** [clients] loops, each issuing its next request [think_time]
          virtual seconds after its previous answer. *)

type partition = { from : float; until : float }
(** Virtual-second window during which every PEP node is cut off from
    every PDP shard ([Dacs_net.Net.partition] at [from], reconnect at
    [until]). *)

type churn = { churn_period : float; churn_targeted : bool }
(** Policy-churn schedule: every [churn_period] virtual seconds install
    the next policy generation on every shard (a single rotating
    admins-read rule spliced over the base serving policy) and
    invalidate PEP L1 caches — with the publish's
    {!Dacs_policy.Delta.between} change-impact region when
    [churn_targeted], or with {!Dacs_policy.Delta.unbounded} (the
    classic full flush) as the ablation baseline.  Both arms install
    identical policy sequences, so their decisions must agree. *)

type scenario = {
  seed : int;
  domains : int;  (** domains the PEPs are spread across (naming only) *)
  peps : int;  (** enforcement points, each guarding one resource *)
  shards : int;  (** PDP replicas behind every PEP's tier *)
  users : int;  (** subject population; roles assigned round-robin *)
  zipf : float;  (** skew for user and resource popularity; 0 = uniform *)
  arrivals : arrivals;
  duration : float;  (** virtual seconds during which traffic is offered *)
  cache_ttl : float;  (** L1 decision-cache TTL; <= 0 disables the cache *)
  cache_capacity : int;  (** L1 max entries (the E22 warm-working-set knob) *)
  service_time : float;  (** per-query PDP occupancy (the FIFO model) *)
  batch : int;  (** tier batch limit *)
  admission : Dacs_core.Pep.admission option;  (** per-PEP bound *)
  pdp_max_inflight : int option;  (** per-shard bound *)
  rule_cost : float;
      (** extra per-rule-scanned PDP occupancy (seconds); 0 keeps the
          flat [service_time] model *)
  partition : partition option;  (** cut PEPs off from the decision tier *)
  offline : bool;
      (** give every PEP an offline replica holding the serving policy,
          so partitioned requests are answered from the signed local log
          ([offline] provenance) instead of failing closed *)
  churn : churn option;  (** the E23 policy-churn schedule; [None] = static policy *)
}

val default : scenario
(** 1 domain, 4 PEPs, 2 shards, 200 users, zipf 1.1, open-loop 200 req/s
    for 5 s, cache off (capacity 1024 when enabled), 4 ms service time,
    admission (32, 32), per-shard bound 64, seed 42, no rule cost, no
    partition, offline mode off.

    The serving policy guards each PEP's resource with its own
    doctor/nurse rule pair (all pinned by resource-id) over a final
    default-deny, so compiled dispatch considers only the requested
    resource's pair — with a positive [rule_cost], that is what each
    query occupies a shard for. *)

type percentiles = { p50 : float; p95 : float; p99 : float; max : float }
(** p50/p95/p99 are bucket upper bounds (Prometheus-style estimates from
    the log-bucketed histogram); [max] is exact. *)

type report = {
  offered : int;  (** requests issued *)
  completed : int;  (** continuations fired (includes shed) *)
  granted : int;
  denied : int;
  errors : int;  (** Indeterminate answers other than shedding *)
  offline_serves : int;
      (** decisions served from the offline log, [pep_offline_serves_total] *)
  shed : int;  (** refused by PEP admission queues, [pep_shed_total] *)
  pdp_overloads : int;  (** shard-level rejections, [pdp_overload_total] *)
  throughput : float;  (** admitted answers per second of makespan *)
  latency : percentiles;  (** over admitted (non-shed) requests *)
  mean_latency : float;
  makespan : float;  (** virtual time of the last completion *)
  messages : int;  (** network messages sent end-to-end *)
  active_users : int;
      (** distinct users that actually issued a request — the only users
          the engine materialises state for, so at 1M+ Zipf populations
          this stays far below [users] and so does scenario memory *)
  cache_hits : int;
      (** L1 decision-cache hits across all PEPs,
          [decision_cache_hits_total] — the E23 churn ablation's figure
          of merit: targeted invalidation retains warm entries a full
          flush discards *)
  publishes : int;  (** policy generations the churn schedule installed *)
  shed_reasons : (string * int) list;
      (** per-reason breakdown of [shed], from
          [pep_shed_reason_total{node,reason}], summed by reason *)
  slo : Dacs_telemetry.Slo.status;
      (** {!Dacs_telemetry.Slo.default_objective} over the run's virtual
          clock: every non-Indeterminate answer counts as served, shed
          and fail-closed answers burn the availability budget *)
}

val zipf_sampler : Dacs_crypto.Rng.t -> n:int -> skew:float -> unit -> int
(** A sampler of Zipf([skew]) over \[0, n): index [i] has weight
    [1/(i+1)^skew], drawn by Walker's alias method — O(n) setup, then one
    uniform draw from the given stream per sample.  [skew <= 0] is
    uniform.  The engine draws users and PEPs with it; E22 draws its
    warm-L1 working set. *)

val churned_policy : resources:int -> gen:int -> Dacs_policy.Policy.t
(** The churn schedule's generation [gen] policy over [resources]
    guarded resources: generation 0 is exactly the base serving policy;
    generation [g > 0] splices one fully pinned rule
    ([admins-read-churn], granting admins read on res[g mod resources])
    in front of the default-deny.  Consecutive generations therefore
    differ in one rule and {!Dacs_policy.Delta.between} yields a small
    bounded region — the corpus E23 and the delta test-suites churn
    over. *)

val run : scenario -> report
(** Stand the scenario up on a fresh seeded network, offer the traffic,
    run the simulation to quiescence and collect the report.  Raises
    [Invalid_argument] on nonsensical scenarios (no users, no shards,
    non-positive duration or rate...). *)

val conservation_ok : report -> bool
(** Every offered request was answered exactly once and every answer is
    accounted for: [completed = offered] and
    [granted + denied + errors + shed = completed]. *)

val render : report -> string
(** Fixed-format text report — byte-identical across runs of the same
    scenario (the determinism contract [dacs load] and E18 gate on). *)

val render_json : report -> string

(** {1 The words of one cold decision} *)

type cold_probe = {
  words_per_decision : float;  (** minor words of one measured decision *)
  decisions : int;  (** decisions made, warm-up included *)
  answered : int;  (** decisions whose answer arrived *)
  permitted : int;  (** answers that were Permit: all of them, when sound *)
}

val cold_decision_probe : unit -> cold_probe
(** Minor words of one uncached decision through a one-shard sharded PEP
    guarding res5 under the 129-rule serving policy, every subject a
    doctor or nurse reading: [Pep.decide_explained] to the answer, each
    decision drained alone by [Net.run] (its timers included), so every
    flush carries one query.  The whole path a cold-wide decision takes:
    the PEP ladder, the tier, the SOAP and RPC framing, two deliveries,
    the PDP's FIFO and evaluation, and back.  Twenty warm-up decisions,
    then 200 measured.  Deterministic: the words of one binary are the
    same on every run.  E16's [cold_words_per_decision] and [test_tier]'s
    word bound both read this probe. *)
