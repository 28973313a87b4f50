(* Chaos suite: the paper's Fig. 2/Fig. 3 authorisation flows replayed
   under declarative fault schedules (Faults), exercising retry with
   backoff, the RPC circuit breaker and the PEP's stale-cache
   degradation.

   Every scenario checks the same safety invariant — a subject the policy
   denies is never granted, no matter what the network does — and, once
   the schedule clears, liveness: an authorised subject gets through. *)

module Value = Dacs_policy.Value
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Target = Dacs_policy.Target
module Combine = Dacs_policy.Combine
module Engine = Dacs_net.Engine
module Net = Dacs_net.Net
module Rpc = Dacs_net.Rpc
module Faults = Dacs_net.Faults
module Service = Dacs_ws.Service
open Dacs_core

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* --- fixture ---------------------------------------------------------------- *)

let doctor_policy resource =
  Policy.Inline_policy
    (Policy.make ~id:"p" ~issuer:"domain-a" ~rule_combining:Combine.First_applicable
       [
         Rule.permit
           ~target:
             Target.(
               any |> subject_is "role" "doctor" |> resource_is "resource-id" resource
               |> action_is "action-id" "read")
           "permit-doctor-read";
         Rule.deny "default-deny";
       ])

let doctor_subject user = [ ("subject-id", Value.String user); ("role", Value.String "doctor") ]
let intern_subject user = [ ("subject-id", Value.String user); ("role", Value.String "intern") ]

type fixture = {
  net : Net.t;
  rpc : Rpc.t;
  pep : Pep.t;
  tier : Pdp_tier.t;  (* the PEP's ordered tier *)
  alice : Client.t;
  mallory : Client.t;
  pdp_nodes : Net.node_id list;
}

let setup ?(seed = 7L) ?(pdps = 1) ?cache ?(call_timeout = 0.5) () =
  let net = Net.create ~seed () in
  let rpc = Rpc.create net in
  let services = Service.create rpc in
  let add id =
    Net.add_node net id;
    id
  in
  let pdp_nodes =
    List.init pdps (fun i ->
        let node = add (Printf.sprintf "pdp%d" i) in
        ignore (Pdp_service.create services ~node ~name:node ~root:(doctor_policy "r") ());
        node)
  in
  let node = add "pep" in
  let tier = Pdp_tier.ordered services ~node ~pdps:pdp_nodes ~call_timeout in
  let pep =
    Pep.create services ~node ~domain:"a" ~resource:"r" ~content:"the-content" (Pep.Sharded { tier; cache })
  in
  let alice = Client.create services ~node:(add "alice") ~subject:(doctor_subject "alice") in
  let mallory = Client.create services ~node:(add "mallory") ~subject:(intern_subject "mallory") in
  { net; rpc; pep; tier; alice; mallory; pdp_nodes }

(* Schedule a request at [at]; outcomes accumulate as (time, result). *)
let request_at fx client ~at ?(timeout = 30.0) ?retry ~action outcomes =
  Engine.schedule_at (Net.engine fx.net) ~at (fun () ->
      Client.request client ~pep:"pep" ~action ~timeout ?retry (fun r ->
          outcomes := (at, r) :: !outcomes))

let granted = function Ok (Wire.Granted _) -> true | _ -> false

let outcome_at outcomes at =
  match List.assoc_opt at !outcomes with
  | Some r -> r
  | None -> Alcotest.failf "no outcome recorded for request at t=%g" at

(* The safety invariant: none of these outcomes may be a grant. *)
let assert_never_granted name outcomes =
  List.iter
    (fun (at, r) ->
      if granted r then Alcotest.failf "%s: policy-denied subject granted at t=%g" name at)
    !outcomes

let steady_retry = { Rpc.attempts = 4; base_delay = 0.2; multiplier = 2.0; max_delay = 2.0; jitter = 0.0 }

(* --- scenario 1: latency spike --------------------------------------------- *)

let test_latency_spike () =
  let fx = setup () in
  Pdp_tier.set_retry_policy fx.tier steady_retry;
  (* Retries alone.  Both requests' timed-out attempts count against
     pdp0's one shared breaker, which would trip and shed alice's last
     attempt; the breaker has its own scenario (7). *)
  Rpc.set_breaker fx.rpc { Rpc.failure_threshold = max_int; cooldown = 0.0 };
  (* The pep<->pdp link runs at 2 s one-way while every call times out at
     0.5 s; only retries that land after the spike clears can succeed. *)
  Faults.apply fx.net
    [ Faults.Latency_spike { a = "pep"; b = "pdp0"; latency = 2.0; window = { from_ = 0.5; until_ = 3.0 } } ];
  let a = ref [] and m = ref [] in
  request_at fx fx.alice ~at:1.0 ~action:"read" a;
  request_at fx fx.mallory ~at:1.2 ~action:"read" m;
  Net.run fx.net;
  check bool_ "alice granted once spike cleared" true (granted (outcome_at a 1.0));
  (match outcome_at m 1.2 with
  | Ok (Wire.Denied _) -> ()
  | _ -> Alcotest.fail "mallory should be denied by policy");
  assert_never_granted "latency spike" m;
  let s = Pep.stats fx.pep in
  check bool_ "retries were needed" true (s.Pep.retries >= 2);
  check int_ "both requests served" 2 s.Pep.requests

(* --- scenario 2: drop burst ------------------------------------------------- *)

let test_drop_burst () =
  let fx = setup () in
  Pdp_tier.set_retry_policy fx.tier steady_retry;
  (* Heavy loss for ~3 s; the client retries its own leg too, so the flow
     survives whichever hop the loss model hits. *)
  Faults.apply fx.net [ Faults.Drop_burst { rate = 0.8; window = { from_ = 0.1; until_ = 3.0 } } ];
  let client_retry =
    { Rpc.attempts = 8; base_delay = 0.3; multiplier = 2.0; max_delay = 2.0; jitter = 0.0 }
  in
  let a = ref [] and m = ref [] in
  request_at fx fx.alice ~at:0.3 ~timeout:5.0 ~retry:client_retry ~action:"read" a;
  request_at fx fx.mallory ~at:0.4 ~timeout:5.0 ~retry:client_retry ~action:"read" m;
  Net.run fx.net;
  check bool_ "alice granted after burst" true (granted (outcome_at a 0.3));
  assert_never_granted "drop burst" m;
  check bool_ "messages were dropped" true (Net.dropped_count fx.net > 0);
  check (Alcotest.float 1e-9) "drop rate restored after window" 0.0 (Net.drop_rate fx.net)

(* --- scenario 3: crash and restart ------------------------------------------ *)

let test_crash_restart () =
  let fx = setup () in
  Pdp_tier.set_retry_policy fx.tier
    { Rpc.attempts = 6; base_delay = 0.3; multiplier = 2.0; max_delay = 2.0; jitter = 0.0 };
  let schedule = [ Faults.Crash_restart { node = "pdp0"; at = 0.5; restart = Some 4.0 } ] in
  check bool_ "schedule clears" true (Faults.clears_by schedule = Some 4.0);
  Faults.apply fx.net schedule;
  let a = ref [] and m = ref [] in
  request_at fx fx.alice ~at:1.0 ~action:"read" a;
  request_at fx fx.mallory ~at:1.1 ~action:"read" m;
  Net.run fx.net;
  check bool_ "alice granted after restart" true (granted (outcome_at a 1.0));
  assert_never_granted "crash/restart" m;
  check bool_ "took several retries" true ((Pep.stats fx.pep).Pep.retries >= 3)

(* --- scenario 4: flapping partition ----------------------------------------- *)

let test_flapping_partition () =
  let fx = setup () in
  Pdp_tier.set_retry_policy fx.tier steady_retry;
  (* Retries alone, as in the latency spike. *)
  Rpc.set_breaker fx.rpc { Rpc.failure_threshold = max_int; cooldown = 0.0 };
  Faults.apply fx.net
    [
      Faults.Flapping_partition
        {
          group_a = [ "pep" ];
          group_b = [ "pdp0" ];
          period = 0.4;
          window = { from_ = 0.5; until_ = 2.9 };
        };
    ];
  let a = ref [] and m = ref [] in
  (* Fired mid-cut: the first attempts keep landing in cut phases. *)
  request_at fx fx.alice ~at:0.6 ~action:"read" a;
  request_at fx fx.mallory ~at:0.7 ~action:"read" m;
  Net.run fx.net;
  check bool_ "alice granted despite flapping" true (granted (outcome_at a 0.6));
  assert_never_granted "flapping partition" m;
  check bool_ "retried through the flaps" true ((Pep.stats fx.pep).Pep.retries >= 1);
  (* The link must end healed: a fresh request goes straight through.
     (Scheduled after the first run, whose timeout bookkeeping has already
     advanced the clock past any fixed probe time.) *)
  let late_at = Net.now fx.net +. 1.0 in
  let late = ref [] in
  request_at fx fx.alice ~at:late_at ~action:"read" late;
  Net.run fx.net;
  check bool_ "healed at window end" true (granted (outcome_at late late_at))

(* --- scenario 5: slow PDP, ordered failover --------------------------------- *)

let test_slow_pdp_failover () =
  let fx = setup ~pdps:2 () in
  (* pdp0 is overloaded, not dead: +2 s on all its links while calls time
     out at 0.5 s.  The PEP must fail over to the healthy pdp1. *)
  Faults.apply fx.net
    [ Faults.Slow_node { node = "pdp0"; extra = 2.0; window = { from_ = 0.2; until_ = 5.0 } } ];
  let a = ref [] and m = ref [] in
  request_at fx fx.alice ~at:1.0 ~action:"read" a;
  request_at fx fx.mallory ~at:1.1 ~action:"read" m;
  Net.run fx.net;
  check bool_ "alice granted via replica" true (granted (outcome_at a 1.0));
  assert_never_granted "slow pdp" m;
  let s = Pep.stats fx.pep in
  check bool_ "failover happened" true (s.Pep.failovers >= 2);
  check int_ "no degraded serving involved" 0 s.Pep.stale_serves

(* --- scenario 6: total outage, stale-cache degradation ----------------------- *)

let test_stale_cache_degradation () =
  let cache = Decision_cache.create ~ttl:1.0 () in
  let fx = setup ~cache () in
  Pep.set_stale_window fx.pep 5.0;
  (* Warm the cache while the PDP is alive, then lose it for good. *)
  let warm_a = ref [] and warm_m = ref [] in
  request_at fx fx.alice ~at:0.2 ~action:"read" warm_a;
  request_at fx fx.mallory ~at:0.25 ~action:"read" warm_m;
  Faults.apply fx.net [ Faults.Crash_restart { node = "pdp0"; at = 1.0; restart = None } ];
  let a_stale = ref [] and m_stale = ref [] and a_late = ref [] in
  (* Expired (ttl 1 s) but within the 5 s stale window: degraded serve. *)
  request_at fx fx.alice ~at:3.0 ~action:"read" a_stale;
  request_at fx fx.mallory ~at:3.2 ~action:"read" m_stale;
  (* Beyond ttl + window: the PEP must fail closed. *)
  request_at fx fx.alice ~at:10.0 ~action:"read" a_late;
  Net.run fx.net;
  check bool_ "warm grant" true (granted (outcome_at warm_a 0.2));
  check bool_ "stale grant within window" true (granted (outcome_at a_stale 3.0));
  (match outcome_at m_stale 3.2 with
  | Ok (Wire.Denied _) -> ()
  | _ -> Alcotest.fail "mallory's stale answer must still be the cached deny");
  (match outcome_at a_late 10.0 with
  | Ok (Wire.Denied _) -> ()
  | _ -> Alcotest.fail "beyond the staleness bound the PEP must deny");
  assert_never_granted "stale cache" warm_m;
  assert_never_granted "stale cache" m_stale;
  let s = Pep.stats fx.pep in
  check bool_ "stale serves recorded" true (s.Pep.stale_serves >= 2);
  check bool_ "bounded: the late request was not stale-served" true (s.Pep.stale_serves <= 2)

(* --- scenario 7: circuit breaker lifecycle ----------------------------------- *)

let test_breaker_recovery () =
  let fx = setup () in
  Rpc.set_breaker fx.rpc { Rpc.failure_threshold = 3; cooldown = 2.0 };
  Faults.apply fx.net [ Faults.Crash_restart { node = "pdp0"; at = 0.3; restart = Some 6.0 } ];
  let a = ref [] in
  (* Three timeouts trip the breaker... *)
  request_at fx fx.alice ~at:0.5 ~action:"read" a;
  request_at fx fx.alice ~at:1.2 ~action:"read" a;
  request_at fx fx.alice ~at:1.9 ~action:"read" a;
  (* ...this one is shed without touching the network... *)
  request_at fx fx.alice ~at:2.5 ~action:"read" a;
  (* ...the half-open probe fails (still down), re-opening... *)
  request_at fx fx.alice ~at:4.6 ~action:"read" a;
  (* ...and after the restart a probe succeeds and closes the breaker. *)
  request_at fx fx.alice ~at:7.5 ~action:"read" a;
  Net.run fx.net;
  List.iter
    (fun at ->
      match outcome_at a at with
      | Ok (Wire.Denied _) -> ()
      | _ -> Alcotest.failf "expected fail-closed denial at t=%g" at)
    [ 0.5; 1.2; 1.9; 2.5; 4.6 ];
  check bool_ "recovered through half-open" true (granted (outcome_at a 7.5));
  check bool_ "breaker closed again" true (Rpc.breaker_state fx.rpc "pdp0" = Rpc.Closed);
  let s = Pep.stats fx.pep in
  check bool_ "trips observed" true (s.Pep.breaker_trips >= 2);
  check int_ "exactly the shed call rejected" 1 s.Pep.breaker_rejections;
  check int_ "every request consulted its PDP (or its breaker)" 6 s.Pep.pdp_calls

(* --- scenario 8: total outage, offline event-log serving ---------------------- *)

let test_offline_log_serving () =
  let fx = setup () in
  let offline =
    Offline.create
      ~now:(fun () -> Engine.now (Net.engine fx.net))
      ~key:"chaos-mesh-key" ~author:"a" ()
  in
  Offline.publish offline (doctor_policy "r");
  Pep.set_offline_replica fx.pep (Some offline);
  (* The only PDP dies at 1 s and is restored at 6 s. *)
  Faults.apply fx.net [ Faults.Crash_restart { node = "pdp0"; at = 1.0; restart = Some 6.0 } ];
  let warm = ref [] and a = ref [] and m = ref [] and late = ref [] in
  request_at fx fx.alice ~at:0.2 ~action:"read" warm;
  (* During the outage the signed local log answers instead of failing closed. *)
  request_at fx fx.alice ~at:3.0 ~action:"read" a;
  request_at fx fx.mallory ~at:3.2 ~action:"read" m;
  (* After the restart the live tier takes over again. *)
  request_at fx fx.alice ~at:8.0 ~action:"read" late;
  Net.run fx.net;
  check bool_ "warm grant served live" true (granted (outcome_at warm 0.2));
  check bool_ "granted from the offline log during the outage" true (granted (outcome_at a 3.0));
  (match outcome_at m 3.2 with
  | Ok (Wire.Denied _) -> ()
  | _ -> Alcotest.fail "the offline rung must still deny the intern");
  assert_never_granted "offline log" m;
  check bool_ "healed: served live again after the restart" true (granted (outcome_at late 8.0));
  let s = Pep.stats fx.pep in
  check int_ "exactly the outage requests were served offline" 2 s.Pep.offline_serves;
  check bool_ "an offline episode was recorded" true (Offline.epoch offline >= 1);
  check bool_ "offline decisions entered the signed log" true
    ((Offline.stats offline).Offline.offline_decides >= 2)

(* --- scenario 9: random schedules (property) --------------------------------- *)

let random_schedule_safety =
  QCheck.Test.make ~name:"chaos: random schedules keep enforcement safe and live" ~count:25
    QCheck.(int_bound 10_000)
    (fun seed ->
      let fx = setup ~seed:(Int64.of_int (seed + 1)) ~pdps:2 () in
      Pdp_tier.set_retry_policy fx.tier steady_retry;
      let rng = Dacs_crypto.Rng.create (Int64.of_int (seed * 31 + 7)) in
      let horizon = 6.0 in
      let schedule =
        Faults.random_schedule ~rng ~nodes:("pep" :: fx.pdp_nodes) ~horizon
      in
      Faults.apply fx.net schedule;
      (match Faults.clears_by schedule with
      | Some t when t <= horizon -> ()
      | _ -> QCheck.Test.fail_report "random schedule must clear by the horizon");
      let m = ref [] and live = ref [] in
      (* Hostile requests throughout the chaos... *)
      List.iter (fun at -> request_at fx fx.mallory ~at ~action:"read" m) [ 0.5; 2.0; 4.0; 5.5 ];
      (* ...and a liveness probe well after everything cleared (past the
         horizon plus the deepest retry tail and the client timeout). *)
      request_at fx fx.alice ~at:40.0 ~action:"read" live;
      Net.run fx.net;
      assert_never_granted "random schedule" m;
      if not (granted (outcome_at live 40.0)) then
        QCheck.Test.fail_report "liveness probe after the horizon was not granted";
      true)

(* --- determinism (satellite): same seed, same run ----------------------------- *)

let run_once seed =
  let fx = setup ~seed ~pdps:2 () in
  Pdp_tier.set_retry_policy fx.tier steady_retry;
  Net.set_tracing fx.net true;
  Faults.apply fx.net
    [
      Faults.Drop_burst { rate = 0.5; window = { from_ = 0.1; until_ = 2.0 } };
      Faults.Crash_restart { node = "pdp0"; at = 0.5; restart = Some 3.0 };
      Faults.Latency_spike { a = "pep"; b = "pdp1"; latency = 0.8; window = { from_ = 1.0; until_ = 4.0 } };
    ];
  let a = ref [] and m = ref [] in
  List.iter (fun at -> request_at fx fx.alice ~at ~action:"read" a) [ 0.3; 1.5; 4.5 ];
  List.iter (fun at -> request_at fx fx.mallory ~at ~action:"read" m) [ 0.4; 2.5 ];
  Net.run fx.net;
  assert_never_granted "determinism run" m;
  let rendered =
    List.map
      (fun e -> Printf.sprintf "%.9f %s>%s %s" e.Net.t_time e.Net.t_src e.Net.t_dst e.Net.t_category)
      (Net.trace fx.net)
  in
  (rendered, Net.dropped_count fx.net, (Pep.stats fx.pep).Pep.retries)

let test_determinism () =
  let t1, d1, r1 = run_once 1234L in
  let t2, d2, r2 = run_once 1234L in
  check bool_ "non-trivial run" true (List.length t1 > 0 && d1 > 0);
  check (Alcotest.list Alcotest.string) "identical traces" t1 t2;
  check int_ "identical drop counts" d1 d2;
  check int_ "identical retry counts" r1 r2;
  (* Random schedules are equally reproducible. *)
  let sched s =
    List.map Faults.describe
      (Faults.random_schedule ~rng:(Dacs_crypto.Rng.create s) ~nodes:[ "a"; "b"; "c" ] ~horizon:5.0)
  in
  check (Alcotest.list Alcotest.string) "identical schedules from one seed" (sched 9L) (sched 9L)

(* --- schedule validation ------------------------------------------------------ *)

let test_schedule_validation () =
  let net = Net.create () in
  Net.add_node net "a";
  Net.add_node net "b";
  let rejects spec =
    try
      Faults.apply net [ spec ];
      Alcotest.failf "expected Invalid_argument for %s" (Faults.describe spec)
    with Invalid_argument _ -> ()
  in
  rejects (Faults.Drop_burst { rate = 1.5; window = { from_ = 0.0; until_ = 1.0 } });
  rejects (Faults.Drop_burst { rate = 0.5; window = { from_ = 2.0; until_ = 1.0 } });
  rejects
    (Faults.Flapping_partition
       { group_a = [ "a" ]; group_b = [ "b" ]; period = 0.0; window = { from_ = 0.0; until_ = 1.0 } });
  rejects (Faults.Crash_restart { node = "a"; at = 2.0; restart = Some 1.0 });
  rejects (Faults.Slow_node { node = "a"; extra = -0.1; window = { from_ = 0.0; until_ = 1.0 } })

let () =
  Alcotest.run "dacs_chaos"
    [
      ( "scenarios",
        [
          Alcotest.test_case "latency spike" `Quick test_latency_spike;
          Alcotest.test_case "drop burst" `Quick test_drop_burst;
          Alcotest.test_case "crash and restart" `Quick test_crash_restart;
          Alcotest.test_case "flapping partition" `Quick test_flapping_partition;
          Alcotest.test_case "slow pdp failover" `Quick test_slow_pdp_failover;
          Alcotest.test_case "total outage, stale-cache degradation" `Quick
            test_stale_cache_degradation;
          Alcotest.test_case "breaker open/half-open/recovery" `Quick test_breaker_recovery;
          Alcotest.test_case "total outage, offline-log serving" `Quick test_offline_log_serving;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest random_schedule_safety ]);
      ( "determinism",
        [
          Alcotest.test_case "identical seeds, identical runs" `Quick test_determinism;
          Alcotest.test_case "schedule validation" `Quick test_schedule_validation;
        ] );
    ]
