(* The one experiment registry.  Every experiment and every gated
   scenario is declared here once: E1-E23 (no E13, E20 or E22) and the seven
   gated dacs subcommands, each built from its flags with their defaults.
   bench/main.exe selects entries by name and runs them at their
   defaults; dacs <name> [flags] runs a subcommand entry with the flags
   given. *)

open Cmdliner
module Experiment = Dacs_experiment.Experiment

type entry = { name : string; doc : string option; term : Experiment.experiment Term.t }

let plain name body = { name; doc = None; term = Term.const (Experiment.v name (fun _ -> body ())) }
let gated e = { name = Experiment.name e; doc = None; term = Term.const e }
let command name ~doc term = { name; doc = Some doc; term }

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")

let sim_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed (deterministic).")

let shards_arg =
  Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc:"Number of PDP replicas in the tier.")

let batch_arg =
  Arg.(value & opt int 8 & info [ "batch" ] ~docv:"K" ~doc:"Maximum queries coalesced per RPC frame.")

let requests_arg =
  Arg.(value & opt int 24 & info [ "requests" ] ~docv:"R" ~doc:"Requests per burst (two bursts are sent).")

let rate_arg =
  Arg.(
    value
    & opt float 200.0
    & info [ "rate" ] ~docv:"R" ~doc:"Open-loop Poisson arrival rate (requests per virtual second).")

let clients_arg =
  Arg.(
    value
    & opt int 0
    & info [ "clients" ] ~docv:"N"
        ~doc:"Switch to closed-loop arrivals with N looping clients (0 = open loop).")

let think_arg =
  Arg.(
    value
    & opt float 0.01
    & info [ "think" ] ~docv:"S" ~doc:"Closed-loop think time between a reply and the next request.")

let duration_arg =
  Arg.(
    value
    & opt float 5.0
    & info [ "duration" ] ~docv:"S" ~doc:"Virtual seconds during which traffic is offered.")

let peps_arg =
  Arg.(value & opt int 4 & info [ "peps" ] ~docv:"N" ~doc:"Enforcement points (one resource each).")

let users_arg =
  Arg.(value & opt int 200 & info [ "users" ] ~docv:"N" ~doc:"Subject population size.")

let zipf_arg =
  Arg.(
    value
    & opt float 1.1
    & info [ "zipf" ] ~docv:"S" ~doc:"Zipf skew for user and resource popularity (0 = uniform).")

let cache_ttl_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "cache-ttl" ] ~docv:"S" ~doc:"L1 decision-cache TTL in seconds (0 disables caching).")

let cache_entries_arg =
  Arg.(
    value
    & opt int 1024
    & info [ "cache-entries" ] ~docv:"N"
        ~doc:"L1 decision-cache capacity in entries (the warm working-set bound).")

let service_time_arg =
  Arg.(
    value
    & opt float 0.004
    & info [ "service-time" ] ~docv:"S" ~doc:"Virtual seconds each PDP evaluation occupies a shard.")

let max_inflight_arg =
  Arg.(
    value
    & opt int 32
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:"PEP admission bound: concurrent decision descents (0 = unbounded).")

let queue_arg =
  Arg.(
    value
    & opt int 32
    & info [ "queue" ] ~docv:"N" ~doc:"PEP admission queue depth behind the in-flight bound.")

let pdp_inflight_arg =
  Arg.(
    value
    & opt int 64
    & info [ "pdp-max-inflight" ] ~docv:"N"
        ~doc:"Per-shard max-inflight bound on the PDP FIFO (0 = unbounded).")

let rule_cost_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "rule-cost" ] ~docv:"S"
        ~doc:
          "Extra virtual seconds of shard occupancy per rule compiled dispatch selects (0 keeps \
           the flat service-time model).")

let entries =
  [
    plain "e1" Paper.e1_vo_baseline;
    plain "e2" Paper.e2_push_vs_pull;
    plain "e3" Paper.e3_xacml_eval;
    plain "e4" Paper.e4_caching;
    plain "e5" Paper.e5_syndication;
    plain "e6" Paper.e6_message_size;
    plain "e7" Paper.e7_conflicts;
    plain "e8" Paper.e8_dependability;
    plain "e9" Paper.e9_negotiation;
    plain "e10" Paper.e10_delegation;
    plain "e11" Paper.e11_rbac_scale;
    plain "e12" Paper.e12_discovery_ablation;
    plain "e14" Paper.e14_resilience;
    plain "e15" Paper.e15_telemetry;
    gated Gated.e16;
    gated Gated.e17;
    gated Gated.e18;
    gated Gated.e19;
    gated Gated.e21;
    gated Gated.e23;
    command "tier"
      ~doc:
        "Run a burst of authorisation requests through a sharded, batched PDP tier, crash a \
         shard, and run the burst again — printing per-shard load and failover counts"
      Term.(const Gated.tier $ shards_arg $ batch_arg $ sim_seed_arg $ requests_arg $ json_flag);
    command "cache"
      ~doc:
        "Walk one workload down the decision-cache ladder (L1, shared L2, PDP attribute cache \
         with batched PIP fetches, single-flight coalescing) and report per-level hit counts"
      Term.(const Gated.cache $ sim_seed_arg $ json_flag);
    command "explain"
      ~doc:
        "Walk one request population down every rung of the decision ladder (live, coalesced, \
         shared L2, L1, bounded-stale, fail-closed) and print each decision's provenance record \
         from the audit log, the latency attribution, and the critical path"
      Term.(const Gated.explain $ sim_seed_arg $ json_flag);
    command "slo"
      ~doc:
        "Run the workload engine inside and far beyond its serving capacity and report the SLO \
         monitor's availability/latency objectives and error-budget burn rates for both regimes"
      Term.(const Gated.slo $ sim_seed_arg $ json_flag);
    command "offline"
      ~doc:
        "Run the partition-window workload with and without offline replicas, then the \
         replica-level diverge/tamper/heal story: signed-log serving under partition, \
         tampered-segment rejection, deny-wins convergence with conflict surfacing and \
         retroactive invalidation.  Exits non-zero when an OFFLINE CHECK fails"
      Term.(const Gated.offline $ sim_seed_arg $ json_flag);
    command "load"
      ~doc:
        "Drive the deterministic workload engine: Zipf-skewed traffic against a sharded, \
         admission-controlled serving path on the virtual clock.  Same seed, byte-identical \
         report.  Exits non-zero when a LOAD CHECK fails"
      Term.(
        const Gated.load $ sim_seed_arg $ rate_arg $ clients_arg $ think_arg $ duration_arg
        $ peps_arg $ shards_arg $ users_arg $ zipf_arg $ cache_ttl_arg $ cache_entries_arg
        $ service_time_arg $ batch_arg $ max_inflight_arg $ queue_arg $ pdp_inflight_arg
        $ rule_cost_arg $ json_flag);
    command "delta"
      ~doc:
        "Analyse policy change impact: compute the region of decisions a publish can affect \
         (Delta.between over consecutive churn generations), spot-check its soundness against \
         direct evaluation, and show what targeted cache invalidation saves over a full flush. \
         Exits non-zero when a DELTA CHECK fails"
      Term.(const Gated.delta $ json_flag);
  ]

let at_defaults e =
  match Cmd.eval_value ~argv:[| e.name |] (Cmd.v (Cmd.info e.name) e.term) with
  | Ok (`Ok x) -> x
  | _ -> invalid_arg ("Registry: no defaults for " ^ e.name)

let all = List.map at_defaults entries

let commands =
  List.filter_map
    (fun e ->
      Option.map
        (fun doc -> Cmd.v (Cmd.info e.name ~doc) Term.(const Experiment.run_one $ e.term))
        e.doc)
    entries
