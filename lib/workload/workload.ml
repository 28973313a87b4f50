module Net = Dacs_net.Net
module Engine = Dacs_net.Engine
module Rng = Dacs_crypto.Rng
module Service = Dacs_ws.Service
module Metrics = Dacs_telemetry.Metrics
module Slo = Dacs_telemetry.Slo
module Context = Dacs_policy.Context
module Value = Dacs_policy.Value
module Decision = Dacs_policy.Decision
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Target = Dacs_policy.Target
open Dacs_core

type arrivals =
  | Open_loop of { rate : float }
  | Closed_loop of { clients : int; think_time : float }

type partition = { from : float; until : float }

type scenario = {
  seed : int;
  peps : int;
  shards : int;
  users : int;
  zipf : float;
  arrivals : arrivals;
  duration : float;
  cache_ttl : float;
  cache_capacity : int;
  service_time : float;
  batch : int;
  admission : Pep.admission option;
  pdp_max_inflight : int option;
  rule_cost : float;
  partition : partition option;
  offline : bool;
}

let default =
  {
    seed = 42;
    peps = 4;
    shards = 2;
    users = 200;
    zipf = 1.1;
    arrivals = Open_loop { rate = 200.0 };
    duration = 5.0;
    cache_ttl = 0.0;
    cache_capacity = 1024;
    service_time = 0.004;
    batch = 8;
    admission = Some { Pep.max_inflight = 32; max_queue = 32 };
    pdp_max_inflight = Some 64;
    rule_cost = 0.0;
    partition = None;
    offline = false;
  }

(* Powers of two from 0.5 ms to ~4 min: wide enough that a saturated
   FIFO's queueing delay still lands in a finite bucket. *)

type percentiles = { p50 : float; p95 : float; p99 : float; max : float }

type report = {
  offered : int;
  completed : int;
  granted : int;
  denied : int;
  errors : int;
  offline_serves : int;
  shed : int;
  pdp_overloads : int;
  throughput : float;
  latency : percentiles;
  mean_latency : float;
  makespan : float;
  messages : int;
  active_users : int;
  cache_hits : int;
  shed_reasons : (string * int) list;
  slo : Slo.status;
}

let validate s =
  let bad fmt = Printf.ksprintf invalid_arg ("Workload.run: " ^^ fmt) in
  if s.peps < 1 then bad "peps must be >= 1";
  if s.shards < 1 then bad "shards must be >= 1";
  if s.users < 1 then bad "users must be >= 1";
  if s.zipf < 0.0 then bad "zipf skew must be non-negative";
  if s.duration <= 0.0 then bad "duration must be positive";
  if s.cache_capacity < 1 then bad "cache_capacity must be >= 1";
  if s.batch < 1 then bad "batch must be >= 1";
  if s.rule_cost < 0.0 then bad "rule_cost must be non-negative";
  (match s.partition with
  | Some { from; until } ->
    if from < 0.0 || until <= from then bad "partition window must satisfy 0 <= from < until"
  | None -> ());
  match s.arrivals with
  | Open_loop { rate } -> if rate <= 0.0 then bad "open-loop rate must be positive"
  | Closed_loop { clients; think_time } ->
    if clients < 1 then bad "closed-loop clients must be >= 1";
    if think_time < 0.0 then bad "think_time must be non-negative"

(* --- population sampling ------------------------------------------------ *)

(* Zipf(skew) over [0, n): weight 1/(i+1)^skew, sampled by Walker's
   alias method — an O(n) one-time setup (two arrays of n words) and
   O(1) per sample (one uniform draw, one table probe), replacing the
   old O(n)-float cumulative table with its O(log n) binary search per
   draw.  At n = 10^6 that is the difference between sampling being free
   and sampling being the workload.  skew 0 degenerates to uniform. *)
let zipf_sampler rng ~n ~skew =
  if skew <= 0.0 then fun () -> Rng.int rng n
  else begin
    let scaled = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** skew)) in
    let total = Array.fold_left ( +. ) 0.0 scaled in
    let norm = float_of_int n /. total in
    for i = 0 to n - 1 do
      scaled.(i) <- scaled.(i) *. norm
    done;
    let prob = Array.make n 1.0 in
    let alias = Array.init n Fun.id in
    (* Pair each under-full column with an over-full donor; the leftover
       mass of the donor re-enters whichever worklist it now belongs to.
       Every column ends holding its own probability plus one alias. *)
    let small = ref [] and large = ref [] in
    for i = n - 1 downto 0 do
      if scaled.(i) < 1.0 then small := i :: !small else large := i :: !large
    done;
    let rec pair () =
      match (!small, !large) with
      | s :: ss, l :: ls ->
        prob.(s) <- scaled.(s);
        alias.(s) <- l;
        scaled.(l) <- scaled.(l) -. (1.0 -. scaled.(s));
        small := ss;
        large := ls;
        if scaled.(l) < 1.0 then small := l :: !small else large := l :: !large;
        pair ()
      | _, _ -> ()
    in
    pair ();
    fun () ->
      let u = Rng.float rng (float_of_int n) in
      let i = min (int_of_float u) (n - 1) in
      if u -. float_of_int i < prob.(i) then i else alias.(i)
  end

let roles = [| "doctor"; "nurse"; "admin" |]
let actions = [| "read"; "write" |]
let role_of u = roles.(u mod Array.length roles)

(* The serving policy: doctors do anything, nurses read, everyone else is
   denied — a deterministic grant/deny mix over the population.  The
   doctor/nurse rules are written out once per guarded resource (each
   pinned to its resource-id, the nurse rule also to the read action), so
   the policy grows with the deployment the way a real multi-resource
   store does: decisions are identical to the three-rule form, while
   compiled dispatch jumps straight to the guarded resource's pair. *)
let serving_policy ~resources =
  let per_resource i =
    let res = Printf.sprintf "res%d" i in
    [
      Rule.make
        ~target:Target.(any |> subject_is "role" "doctor" |> resource_is "resource-id" res)
        Rule.Permit
        (Printf.sprintf "doctors-%d" i);
      Rule.make
        ~target:
          Target.(
            any
            |> subject_is "role" "nurse"
            |> resource_is "resource-id" res
            |> action_is "action-id" "read")
        Rule.Permit
        (Printf.sprintf "nurses-read-%d" i);
    ]
  in
  Policy.make ~id:"workload-policy" ~rule_combining:Dacs_policy.Combine.First_applicable
    (List.concat_map per_resource (List.init resources Fun.id)
    @ [ Rule.make Rule.Deny "default-deny" ])

(* The policy-churn family: generation [gen] grants admins read access
   to one rotating resource (res[gen mod resources]) via a single rule
   spliced in front of the default-deny.  Generation 0 is exactly
   {!serving_policy}.  Consecutive generations differ in one fully
   pinned rule, so {!Dacs_policy.Delta.between} yields a tight region
   (admin ∧ read ∧ the two rotating resources), and a targeted purge
   keeps every other cached decision warm. *)
let churned_policy ~resources ~gen =
  let base = serving_policy ~resources in
  if gen <= 0 then base
  else begin
    let res = Printf.sprintf "res%d" (gen mod resources) in
    let extra =
      Rule.make
        ~target:
          Target.(
            any
            |> subject_is "role" "admin"
            |> resource_is "resource-id" res
            |> action_is "action-id" "read")
        Rule.Permit "admins-read-churn"
    in
    let rec splice = function
      | [ deny ] -> [ extra; deny ]
      | r :: rest -> r :: splice rest
      | [] -> [ extra ]
    in
    { base with Policy.rules = splice base.Policy.rules }
  end

(* --- the engine --------------------------------------------------------- *)

let run s =
  validate s;
  let net = Net.create ~seed:(Int64.of_int s.seed) () in
  let engine = Net.engine net in
  let services = Service.create (Dacs_net.Rpc.create net) in
  let metrics = Service.metrics services in
  (* Two independent seeded streams: one for the arrival process, one for
     request content (user/PEP/action draws).  Arrivals are scheduled
     lazily — each event draws its successor's gap — so without the split
     the draw order would depend on event interleaving; with it, both
     streams are deterministic however the engine orders work. *)
  let rng = Rng.create (Int64.of_int (s.seed + 0x5eed)) in
  let rng_req = Rng.create (Int64.of_int (s.seed + 0xca11)) in
  (* Decision tier: [shards] replicas sharing the FIFO capacity model. *)
  let shards =
    List.init s.shards (fun i ->
        let node = Printf.sprintf "pdp.%d" i in
        Net.add_node net node;
        Pdp_service.create services ~node ~name:node
          ~root:(Policy.Inline_policy (serving_policy ~resources:s.peps))
          ~service_time:s.service_time ~rule_cost:s.rule_cost ?max_inflight:s.pdp_max_inflight ())
  in
  let shard_nodes = List.map Pdp_service.node shards in
  (* Enforcement points of one domain, one resource each, each
     dispatching through its own tier client over the same shards. *)
  let peps =
    Array.init s.peps (fun i ->
        let node = Printf.sprintf "dom0.pep%d" i in
        Net.add_node net node;
        let tier = Pdp_tier.create services ~node ~shards:shard_nodes ~batch:s.batch () in
        let cache =
          if s.cache_ttl > 0.0 then
            Some
              (Decision_cache.create ~metrics ~owner:node ~max_entries:s.cache_capacity
                 ~ttl:s.cache_ttl ())
          else None
        in
        let pep =
          Pep.create services ~node ~domain:"dom0"
            ~resource:(Printf.sprintf "res%d" i)
            (Pep.Sharded { tier; cache })
        in
        Pep.set_admission pep s.admission;
        pep)
  in
  (* Offline mode: one shared replica holding the serving policy, wired
     to every PEP — partitioned enforcement points descend to the
     [offline] rung instead of failing closed.  The replica decides from
     the context's own attributes (the request carries its role), so its
     answers match what the live tier would have said. *)
  let offline_replica =
    if not s.offline then None
    else begin
      let o =
        Offline.create ~metrics
          ~now:(fun () -> Net.now net)
          ~key:(Dacs_crypto.Sha256.digest "workload-offline-mesh")
          ~author:"workload" ()
      in
      Offline.publish o (Policy.Inline_policy (serving_policy ~resources:s.peps));
      Array.iter (fun pep -> Pep.set_offline_replica pep (Some o)) peps;
      Some o
    end
  in
  (* Partition schedule: cut every PEP node off from every shard at
     [from], reconnect at [until].  Reconnection also ends the offline
     episode, so later windows get their own epoch. *)
  (match s.partition with
  | None -> ()
  | Some { from; until } ->
    let pep_nodes = Array.to_list (Array.map Pep.node peps) in
    Engine.schedule_at engine ~at:from (fun () -> Net.partition net pep_nodes shard_nodes);
    Engine.schedule_at engine ~at:until (fun () ->
        Net.unpartition net pep_nodes shard_nodes;
        Option.iter (fun o -> Offline.set_offline o false) offline_replica));
  (* Latency accounting: one streaming log-bucket histogram per PEP,
     merged at report time — O(1) per observation and O(PEPs) memory
     however many requests run. *)
  let lhists = Array.init s.peps (fun _ -> Dacs_telemetry.Loghist.create ()) in
  let c_offered = Metrics.counter metrics ~help:"Requests issued by the generator" "workload_offered_total" in
  let c_completed = Metrics.counter metrics ~help:"Continuations fired" "workload_completed_total" in
  let c_granted = Metrics.counter metrics ~help:"Permit answers" "workload_granted_total" in
  let c_denied = Metrics.counter metrics ~help:"Deny/NotApplicable answers" "workload_denied_total" in
  let c_errors =
    Metrics.counter metrics ~help:"Indeterminate answers other than shedding" "workload_error_total"
  in
  (* SLO accounting rides the same virtual clock: availability counts
     every non-Indeterminate answer as served (shed and fail-closed both
     burn the budget), latency is end-to-end decision latency. *)
  let slo = Slo.create ~now:(fun () -> Net.now net) () in
  let last_completion = ref 0.0 in
  let sample_user = zipf_sampler rng_req ~n:s.users ~skew:s.zipf in
  let sample_pep = zipf_sampler rng_req ~n:s.peps ~skew:s.zipf in
  (* Per-user state is materialised lazily, on a user's first request:
     with a Zipf population most of a million users never arrive, and the
     engine must not pay memory for the ones that don't.  The state is
     just the subject attribute list (built once, reused every request),
     and the table's population is the report's [active_users]. *)
  let user_states = Hashtbl.create (max 64 (min s.users 65536)) in
  let subject_of u =
    match Hashtbl.find_opt user_states u with
    | Some attrs -> attrs
    | None ->
      let attrs =
        [
          ("subject-id", Value.String (Printf.sprintf "user%d" u));
          ("role", Value.String (role_of u));
        ]
      in
      Hashtbl.add user_states u attrs;
      attrs
  in
  let resource_attrs =
    Array.map (fun pep -> [ ("resource-id", Value.String (Pep.resource pep)) ]) peps
  in
  let action_attrs = Array.map (fun a -> [ ("action-id", Value.String a) ]) actions in
  let issue on_done =
    let u = sample_user () in
    let p = sample_pep () in
    let a = Rng.int rng_req (Array.length actions) in
    let pep = peps.(p) in
    let ctx =
      Context.make ~subject:(subject_of u) ~resource:resource_attrs.(p)
        ~action:action_attrs.(a) ()
    in
    let t0 = Net.now net in
    Metrics.inc c_offered;
    Pep.decide pep ctx (fun result ->
        Metrics.inc c_completed;
        last_completion := Net.now net;
        let dt = Net.now net -. t0 in
        let shed, served =
          match result.Decision.decision with
          | Decision.Permit ->
            Metrics.inc c_granted;
            (false, true)
          | Decision.Deny | Decision.Not_applicable ->
            Metrics.inc c_denied;
            (false, true)
          | Decision.Indeterminate m when m = Pep.shed_reason -> (true, false)
          | Decision.Indeterminate _ ->
            Metrics.inc c_errors;
            (false, false)
        in
        Slo.record slo ~ok:served ~latency:dt;
        if not shed then Dacs_telemetry.Loghist.observe lhists.(p) dt;
        on_done ())
  in
  (match s.arrivals with
  | Open_loop { rate } ->
    (* Streaming Poisson arrivals: each arrival event draws and schedules
       its own successor, so the engine holds one pending arrival at a
       time instead of the whole schedule — multi-million-request runs
       keep O(inflight) event-queue memory.  The gap draws come from the
       arrival stream [rng], the per-request draws inside [issue] from
       [rng_req], so laziness changes no sample. *)
    let next_gap () = -.log (1.0 -. Rng.float rng 1.0) /. rate in
    let rec arrive at =
      if at <= s.duration then
        Engine.schedule_at engine ~at (fun () ->
            issue (fun () -> ());
            arrive (at +. next_gap ()))
    in
    arrive (next_gap ())
  | Closed_loop { clients; think_time } ->
    for c = 0 to clients - 1 do
      let rec loop () =
        if Net.now net <= s.duration then
          issue (fun () -> Engine.schedule engine ~delay:think_time loop)
      in
      Engine.schedule_at engine ~at:(float_of_int (c + 1) *. 0.001) loop
    done);
  Net.run net;
  (* Collect: counters and the histogram are read back from the registry;
     shed/overload totals come from the serving-side series the PEPs and
     shards incremented. *)
  let offered = Metrics.counter_value c_offered in
  let completed = Metrics.counter_value c_completed in
  let shed = Metrics.sum_counter metrics "pep_shed_total" in
  let answered = completed - shed in
  let merged =
    Array.fold_left Dacs_telemetry.Loghist.merge (Dacs_telemetry.Loghist.create ()) lhists
  in
  let total = Dacs_telemetry.Loghist.count merged in
  let q = Dacs_telemetry.Loghist.quantile merged in
  let makespan = !last_completion in
  {
    offered;
    completed;
    granted = Metrics.counter_value c_granted;
    denied = Metrics.counter_value c_denied;
    errors = Metrics.counter_value c_errors;
    offline_serves = Metrics.sum_counter metrics "pep_offline_serves_total";
    shed;
    pdp_overloads = Metrics.sum_counter metrics "pdp_overload_total";
    throughput = (if makespan > 0.0 then float_of_int answered /. makespan else 0.0);
    latency =
      {
        p50 = q 0.50;
        p95 = q 0.95;
        p99 = q 0.99;
        max = Dacs_telemetry.Loghist.max_seen merged;
      };
    mean_latency =
      (if total > 0 then Dacs_telemetry.Loghist.sum merged /. float_of_int total else 0.0);
    makespan;
    messages = (Net.total_sent net).Net.count;
    active_users = Hashtbl.length user_states;
    cache_hits = Metrics.sum_counter metrics "decision_cache_hits_total";
    shed_reasons = Metrics.sum_counter_by metrics "pep_shed_reason_total" ~label:"reason";
    slo = Slo.status slo;
  }

let conservation_ok r =
  r.completed = r.offered && r.granted + r.denied + r.errors + r.shed = r.completed

let burn_str v = if v = infinity then "inf" else Printf.sprintf "%.2fx" v

let render r =
  let reasons =
    if r.shed_reasons = [] then "none"
    else String.concat "  " (List.map (fun (why, n) -> Printf.sprintf "%s=%d" why n) r.shed_reasons)
  in
  String.concat "\n"
    [
      Printf.sprintf "offered %d  completed %d  shed %d  pdp-overloads %d" r.offered r.completed
        r.shed r.pdp_overloads;
      Printf.sprintf "granted %d  denied %d  errors %d  offline-serves %d  active-users %d"
        r.granted r.denied r.errors r.offline_serves r.active_users;
      Printf.sprintf "cache-hits %d" r.cache_hits;
      Printf.sprintf "shed reasons: %s" reasons;
      Printf.sprintf "throughput %.2f req/s over %.6f s makespan  (%d messages)" r.throughput
        r.makespan r.messages;
      Printf.sprintf "latency p50 %.6f  p95 %.6f  p99 %.6f  max %.6f  mean %.6f" r.latency.p50
        r.latency.p95 r.latency.p99 r.latency.max r.mean_latency;
      Printf.sprintf "slo availability %.3f%% (burn %s) %s  latency %.3f%% (burn %s) %s"
        (r.slo.Slo.availability *. 100.0)
        (burn_str r.slo.Slo.availability_burn)
        (if r.slo.Slo.availability_met then "OK" else "VIOLATED")
        (r.slo.Slo.latency_compliance *. 100.0)
        (burn_str r.slo.Slo.latency_burn)
        (if r.slo.Slo.latency_met then "OK" else "VIOLATED");
      "";
    ]

(* Burn rates can be infinite (zero error budget); keep the JSON valid by
   quoting that case. *)
let json_burn v = if v = infinity then "\"inf\"" else Printf.sprintf "%.4f" v

let render_json r =
  let shed_reasons =
    String.concat ","
      (List.map (fun (why, n) -> Printf.sprintf "%s:%d" (Metrics.json_string why) n) r.shed_reasons)
  in
  let slo =
    Printf.sprintf
      "{\"total\":%d,\"availability\":%.6f,\"latency_compliance\":%.6f,\"availability_burn\":%s,\"latency_burn\":%s,\"availability_met\":%b,\"latency_met\":%b}"
      r.slo.Slo.total r.slo.Slo.availability r.slo.Slo.latency_compliance
      (json_burn r.slo.Slo.availability_burn)
      (json_burn r.slo.Slo.latency_burn)
      r.slo.Slo.availability_met r.slo.Slo.latency_met
  in
  Printf.sprintf
    "{\"offered\":%d,\"completed\":%d,\"shed\":%d,\"shed_reasons\":{%s},\"pdp_overloads\":%d,\"granted\":%d,\"denied\":%d,\"errors\":%d,\"offline_serves\":%d,\"active_users\":%d,\"cache_hits\":%d,\"throughput\":%.2f,\"makespan\":%.6f,\"messages\":%d,\"latency\":{\"p50\":%.6f,\"p95\":%.6f,\"p99\":%.6f,\"max\":%.6f,\"mean\":%.6f},\"slo\":%s}"
    r.offered r.completed r.shed shed_reasons r.pdp_overloads r.granted r.denied r.errors
    r.offline_serves r.active_users r.cache_hits r.throughput r.makespan r.messages
    r.latency.p50 r.latency.p95 r.latency.p99 r.latency.max r.mean_latency slo

type cold_probe = { words_per_decision : float; decisions : int; answered : int; permitted : int }

let cold_decision_probe () =
  let net = Net.create ~seed:5L () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  Net.add_node net "pdp.0";
  ignore
    (Pdp_service.create services ~node:"pdp.0" ~name:"pdp.0"
       ~root:(Policy.Inline_policy (churned_policy ~resources:64 ~gen:0))
       ~service_time:0.001 ());
  Net.add_node net "pep";
  let tier = Pdp_tier.create services ~node:"pep" ~shards:[ "pdp.0" ] () in
  let pep =
    Pep.create services ~node:"pep" ~domain:"demo" ~resource:"res5"
      (Pep.Sharded { tier; cache = None })
  in
  let warm = 20 and n = 200 in
  (* Contexts are built before measuring: building one is the caller's
     cost, not the decision's. *)
  let ctxs =
    Array.init (warm + n) (fun i ->
        Context.make
          ~subject:
            [
              ("subject-id", Value.String ("user" ^ string_of_int i));
              ("role", Value.String (if i mod 2 = 0 then "doctor" else "nurse"));
            ]
          ~resource:[ ("resource-id", Value.String "res5") ]
          ~action:[ ("action-id", Value.String "read") ]
          ())
  in
  let answered = ref 0 and permitted = ref 0 in
  let on_answer r _ =
    incr answered;
    if Decision.is_permit r then incr permitted
  in
  let decide i =
    Pep.decide_explained pep ctxs.(i) on_answer;
    Net.run net
  in
  for i = 0 to warm - 1 do
    decide i
  done;
  let before = Gc.minor_words () in
  for i = warm to warm + n - 1 do
    decide i
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  { words_per_decision = words; decisions = warm + n; answered = !answered; permitted = !permitted }
