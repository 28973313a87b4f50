(* The four workloads and the metric catalogue.  Bounds are not repeated
   here: BENCHMARK.json is their single home, read back by [compare]. *)

type workload = {
  name : string;
  peps : int;
  domains : int;  (** PEP i lives in domain (i mod domains) *)
  resources : int;  (** policy resources; PEP i guards res(i mod resources) *)
  shards : int;
  users : int;
  zipf : float;  (** user popularity skew; PEPs and actions are uniform *)
  rate : float;  (** open-loop arrivals per virtual second *)
  warmup : float;  (** untimed virtual seconds before the timed phase *)
  duration : float;  (** timed virtual seconds *)
  service_time : float;  (** per-query PDP occupancy *)
  l1 : int option;  (** per-PEP L1 capacity; TTL is [l1_ttl] *)
  l2 : bool;  (** one shared L2 per domain *)
  churn_period : float option;
  partition : (float * float) option;  (** PEPs cut off from the shards *)
  offline : bool;  (** one offline replica per domain *)
  admission : (int * int) option;  (** per-PEP (max_inflight, max_queue) *)
}

let l1_ttl = 60.0
let l2_capacity = 16384

(* The SLO behind [within_slo_share]: answered, not Indeterminate, within
   this many virtual seconds of its due time. *)
let slo_seconds = 0.050

let base =
  {
    name = "";
    peps = 16;
    domains = 4;
    resources = 16;
    shards = 8;
    users = 100_000;
    zipf = 1.1;
    rate = 1000.0;
    warmup = 0.0;
    duration = 10.0;
    service_time = 0.001;
    l1 = None;
    l2 = false;
    churn_period = None;
    partition = None;
    offline = false;
    admission = None;
  }

(* Durations are sized so one timed repetition takes about 2.5-4 s of wall
   time on a 2-core machine, and all four workloads with the traced pass
   stay within 90 s. *)
let workloads =
  [
    (* Every request takes the whole uncached stack (PEP -> tier -> SOAP/
       XML/RPC -> PDP -> evaluator and back) against a 129-rule
       first-applicable policy, so evaluator and codec changes show here;
       the L1/L2, delta and offline paths stay idle.  The default ring
       sends ~20% of keys to one of the 8 shards: at 3000 req/s that shard
       runs near 60% load; at 4000 it nears 80% and its rare long queue
       episodes make p999 vary up to 2x between seeds. *)
    { base with name = "cold-wide"; peps = 64; resources = 64; users = 10_000; zipf = 0.6;
      rate = 3000.0; duration = 20.0 };
    (* A 1M-user Zipf population over four domains, each fronting one
       resource with four PEP replicas: key building and L1/L2 probes do
       most of the work and the evaluator little.  The control for
       evaluator changes and the showcase for key and cache changes. *)
    { base with name = "warm-zipf"; resources = 4; users = 1_000_000; rate = 8000.0;
      warmup = 5.0; duration = 16.0; l1 = Some 4096; l2 = true };
    (* Reads beside writes: a new policy generation every 0.25 s with a
       targeted region purge of every L1.  A read-path gain that makes
       publishes dearer, or purges more than it needs to, shows here. *)
    { base with name = "churn-rw"; rate = 5000.0; duration = 20.0; l1 = Some 4096;
      churn_period = Some 0.25 };
    (* Dependability: PEPs lose the shards for 15 s and fall back to
       their domain's signed offline log; admission slots stay held for
       the failover timeouts, and the heal syncs the two logs. *)
    { base with name = "partition-offline"; domains = 2; shards = 2; users = 10_000; zipf = 0.6;
      rate = 1000.0; duration = 40.0; partition = Some (10.0, 25.0); offline = true;
      admission = Some (100, 4096) };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* Scale a workload's virtual-time quantities and its population (the
   smoke test runs at 1/100); rates stay, so the load shape is unchanged. *)
let scaled f w =
  {
    w with
    users = max 100 (int_of_float (float_of_int w.users *. f));
    warmup = w.warmup *. f;
    duration = w.duration *. f;
    churn_period = Option.map (fun p -> p *. f) w.churn_period;
    partition = Option.map (fun (a, b) -> (a *. f, b *. f)) w.partition;
  }

type better = Lower | Higher

type metric = { m_name : string; m_unit : string; m_better : better }

let m m_name m_unit m_better = { m_name; m_unit; m_better }

let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "decisions_per_s" "1/s" Higher;
    m "minor_words_per_decision" "words" Lower;
    m "heap_peak_mb" "MB" Lower;
    m "latency_mean_ms" "ms" Lower;
    m "latency_p99_ms" "ms" Lower;
    m "latency_p999_ms" "ms" Lower;
    m "within_slo_share" "share" Higher;
    m "answered_share" "share" Higher;
    m "msgs_per_decision" "msgs" Lower;
    m "bytes_per_decision" "bytes" Lower;
  ]

(* Replayed layers, in path order.  [xml] is a sub-layer of [soap] and
   [hmac] of [offline]/[offline_sync]: their shares are already inside
   their parents' and are left out of the residual. *)
let layers =
  [ "intern"; "decision_cache"; "wire"; "soap"; "xml"; "rpc"; "policy"; "compiled"; "delta";
    "invalidate_region"; "offline"; "offline_sync"; "hmac" ]

let sub_layers = [ "xml"; "hmac" ]

let per_layer =
  List.concat_map
    (fun l -> [ m (l ^ ".ns_per_call") "ns" Lower; m (l ^ ".words_per_call") "words" Lower;
                m (l ^ ".share") "share" Lower ])
    layers
  @ [
      m "residual.share" "share" Lower;
      m "pep.l1_hit_ratio" "ratio" Higher;
      m "l2.hit_ratio" "ratio" Higher;
      m "pep.coalesced_share" "share" Higher;
      m "pep.stale_share" "share" Lower;
      m "pep.shed_share" "share" Lower;
      m "tier.exhausted_share" "share" Lower;
      m "pdp.overload_share" "share" Lower;
      m "offline.serve_share" "share" Higher;
      m "tier.batch_mean" "queries" Higher;
      m "pdp.queries_per_decision" "queries" Lower;
      m "live.latency_p99_ms" "ms" Lower;
      m "churn.purged_per_publish" "entries" Lower;
      m "net.bytes_per_msg" "bytes" Lower;
      m "tracing.overhead_s" "s" Lower;
    ]
