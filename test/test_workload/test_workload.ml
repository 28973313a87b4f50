(* Workload engine + overload protection: determinism, conservation,
   shedding behaviour, and the admission/max-inflight primitives the
   engine drives (E18's unit-level counterpart). *)

module W = Dacs_workload.Workload
module Net = Dacs_net.Net
module Service = Dacs_ws.Service
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Expr = Dacs_policy.Expr
module Value = Dacs_policy.Value
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
open Dacs_core

let open_loop ?(seed = 7) ?(shards = 2) ?(cache_ttl = 0.0) ?(duration = 1.5) rate =
  {
    W.default with
    W.seed;
    shards;
    cache_ttl;
    duration;
    arrivals = W.Open_loop { rate };
  }

let check_conserved r = Alcotest.(check bool) "conservation" true (W.conservation_ok r)

(* -------------------------------------------------------------------- *)
(* Engine-level properties                                              *)
(* -------------------------------------------------------------------- *)

let test_determinism () =
  let s = open_loop ~shards:1 800.0 in
  let a = W.run s and b = W.run s in
  Alcotest.(check string) "same seed renders byte-identical" (W.render a) (W.render b);
  Alcotest.(check string) "json render too" (W.render_json a) (W.render_json b)

(* The O(active) scale contract: a 100k-user Zipf population runs to
   completion materialising state only for users that actually issued a
   request, same-seed reports stay byte-identical at that scale, and a
   million-user population is admissible without a million-entry table.
   CI's million-user load smoke adds same-seed byte identity at 1M. *)
let test_scale_lazy_users () =
  let s =
    {
      (open_loop ~shards:2 ~cache_ttl:30.0 ~duration:1.5 600.0) with
      W.users = 100_000;
      cache_capacity = 4096;
    }
  in
  let a = W.run s and b = W.run s in
  Alcotest.(check string) "100k-user same-seed render byte-identical" (W.render a) (W.render b);
  Alcotest.(check string) "100k-user json render too" (W.render_json a) (W.render_json b);
  check_conserved a;
  Alcotest.(check bool) "only active users materialised" true (a.W.active_users < s.W.users);
  Alcotest.(check bool) "active bounded by offered" true (a.W.active_users <= a.W.offered);
  Alcotest.(check bool) "someone was active" true (a.W.active_users > 0);
  (* A 1M-user population must be admissible — lazy state means the user
     count prices the sampler, not the table. *)
  let big = W.run { s with W.users = 1_000_000; duration = 0.5 } in
  check_conserved big;
  Alcotest.(check bool) "1M users stay O(active)" true (big.W.active_users < 10_000)

let test_seed_sensitivity () =
  let a = W.run (open_loop ~seed:7 400.0) and b = W.run (open_loop ~seed:8 400.0) in
  Alcotest.(check bool) "different seeds differ" false (W.render a = W.render b)

let test_conservation () =
  List.iter
    (fun s -> check_conserved (W.run s))
    [
      open_loop 50.0;
      open_loop ~shards:1 1600.0;
      open_loop ~cache_ttl:30.0 ~shards:1 1600.0;
      { W.default with W.duration = 1.0; arrivals = W.Closed_loop { clients = 8; think_time = 0.02 } };
    ]

let test_no_shed_below_saturation () =
  let r = W.run (open_loop 50.0) in
  Alcotest.(check int) "nothing shed" 0 r.W.shed;
  Alcotest.(check int) "no shard overloads" 0 r.W.pdp_overloads;
  Alcotest.(check bool) "traffic flowed" true (r.W.offered > 0);
  Alcotest.(check bool) "some grants" true (r.W.granted > 0)

let test_shedding_engages () =
  let r = W.run (open_loop ~shards:1 1600.0) in
  Alcotest.(check bool) "shed > 0 past saturation" true (r.W.shed > 0);
  Alcotest.(check bool) "shed < offered (not everything refused)" true (r.W.shed < r.W.offered);
  check_conserved r

let test_cache_relieves_shedding () =
  let uncached = W.run (open_loop ~shards:1 1600.0) in
  let cached = W.run (open_loop ~shards:1 ~cache_ttl:30.0 1600.0) in
  Alcotest.(check bool)
    (Printf.sprintf "cache sheds less (%d < %d)" cached.W.shed uncached.W.shed)
    true
    (cached.W.shed < uncached.W.shed)

let test_latency_monotone () =
  let r = W.run (open_loop ~shards:1 1600.0) in
  let l = r.W.latency in
  Alcotest.(check bool) "p50 <= p95" true (l.W.p50 <= l.W.p95);
  Alcotest.(check bool) "p95 <= p99" true (l.W.p95 <= l.W.p99);
  Alcotest.(check bool) "p99 <= max" true (l.W.p99 <= l.W.max);
  Alcotest.(check bool) "max positive under load" true (l.W.max > 0.0)

let test_closed_loop () =
  let s =
    { W.default with W.duration = 1.0; arrivals = W.Closed_loop { clients = 8; think_time = 0.02 } }
  in
  let r = W.run s in
  check_conserved r;
  Alcotest.(check bool) "offered > clients" true (r.W.offered > 8);
  Alcotest.(check int) "closed loop never sheds with default bounds" 0 r.W.shed;
  Alcotest.(check string) "closed loop deterministic too" (W.render r) (W.render (W.run s))

let test_invalid_scenarios () =
  let raises s =
    match W.run s with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "zero users" true (raises { W.default with W.users = 0 });
  Alcotest.(check bool) "zero shards" true (raises { W.default with W.shards = 0 });
  Alcotest.(check bool) "zero peps" true (raises { W.default with W.peps = 0 });
  Alcotest.(check bool) "non-positive duration" true (raises { W.default with W.duration = 0.0 });
  Alcotest.(check bool) "non-positive rate" true
    (raises { W.default with W.arrivals = W.Open_loop { rate = 0.0 } });
  Alcotest.(check bool) "no clients" true
    (raises { W.default with W.arrivals = W.Closed_loop { clients = 0; think_time = 0.01 } })

(* -------------------------------------------------------------------- *)
(* Policy churn (E23's unit-level counterpart)                          *)
(* -------------------------------------------------------------------- *)

let churn_scenario ~targeted =
  {
    (open_loop ~seed:11 ~shards:2 ~cache_ttl:30.0 ~duration:2.0 600.0) with
    W.churn = Some { W.churn_period = 0.5; churn_targeted = targeted };
  }

let test_churn_determinism () =
  let s = churn_scenario ~targeted:true in
  let a = W.run s and b = W.run s in
  Alcotest.(check string) "churning run renders byte-identical" (W.render a) (W.render b);
  Alcotest.(check string) "json render too" (W.render_json a) (W.render_json b);
  check_conserved a;
  Alcotest.(check bool) "the schedule really published" true (a.W.publishes > 0)

let test_churn_conservation_both_arms () =
  let t = W.run (churn_scenario ~targeted:true) in
  let f = W.run (churn_scenario ~targeted:false) in
  check_conserved t;
  check_conserved f;
  Alcotest.(check int) "same publish schedule in both arms" t.W.publishes f.W.publishes

let test_churn_targeted_retains_hits () =
  let t = W.run (churn_scenario ~targeted:true) in
  let f = W.run (churn_scenario ~targeted:false) in
  Alcotest.(check bool)
    (Printf.sprintf "targeted invalidation retains more cache hits (%d > %d)" t.W.cache_hits
       f.W.cache_hits)
    true
    (t.W.cache_hits > f.W.cache_hits)

let test_churn_validation () =
  match W.run { W.default with W.churn = Some { W.churn_period = 0.0; churn_targeted = true } } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive churn period must be rejected"

(* -------------------------------------------------------------------- *)
(* The primitives the engine drives, in isolation                       *)
(* -------------------------------------------------------------------- *)

let permit_all = Policy.Inline_policy (Policy.make ~id:"p" [ Rule.permit "all" ])

let ctx_for user =
  Context.make
    ~subject:[ ("subject-id", Value.String user) ]
    ~resource:[ ("resource-id", Value.String "r") ]
    ~action:[ ("action-id", Value.String "read") ]
    ()

(* One PEP in sharded mode over a single slow shard; admission bound
   (1 in flight, 1 queued) so the third concurrent request must shed. *)
let rig ?admission ?max_inflight () =
  let net = Net.create ~seed:3L () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  Net.add_node net "pdp.0";
  Net.add_node net "pep";
  let _pdp =
    Pdp_service.create services ~node:"pdp.0" ~name:"pdp.0" ~root:permit_all ~service_time:0.05
      ?max_inflight ()
  in
  let tier = Pdp_tier.create services ~node:"pep" ~shards:[ "pdp.0" ] ~batch:1 () in
  let pep =
    Pep.create services ~node:"pep" ~domain:"d" ~resource:"r"
      (Pep.Sharded { tier; cache = None })
  in
  Pep.set_admission pep admission;
  (net, pep)

let test_admission_sheds_third () =
  let net, pep = rig ~admission:{ Pep.max_inflight = 1; max_queue = 1 } () in
  let results = ref [] in
  let issue tag = Pep.decide pep (ctx_for tag) (fun r -> results := (tag, r) :: !results) in
  issue "a";
  issue "b";
  issue "c";
  (* The third was refused synchronously, before the network even ran. *)
  Alcotest.(check int) "one shed before run" 1 (List.length !results);
  (match !results with
  | [ ("c", r) ] -> (
    match r.Decision.decision with
    | Decision.Indeterminate m -> Alcotest.(check string) "shed reason" Pep.shed_reason m
    | _ -> Alcotest.fail "shed request must fail closed with Indeterminate")
  | _ -> Alcotest.fail "expected exactly the third request shed");
  Net.run net;
  Alcotest.(check int) "all three answered" 3 (List.length !results);
  let stats = Pep.stats pep in
  Alcotest.(check int) "pep_shed_total" 1 stats.Pep.shed;
  List.iter
    (fun tag ->
      match List.assoc tag !results with
      | r -> Alcotest.(check bool) (tag ^ " admitted and granted") true (r.Decision.decision = Decision.Permit))
    [ "a"; "b" ];
  Alcotest.(check int) "queue drained" 0 (Pep.admission_queue_length pep);
  Alcotest.(check int) "no inflight left" 0 (Pep.admission_inflight pep)

let test_admission_lift_drains_queue () =
  let net, pep = rig ~admission:{ Pep.max_inflight = 1; max_queue = 2 } () in
  let results = ref [] in
  let issue tag = Pep.decide pep (ctx_for tag) (fun r -> results := (tag, r) :: !results) in
  issue "a";
  issue "b";
  issue "c";
  Alcotest.(check int) "two parked" 2 (Pep.admission_queue_length pep);
  (* Lifting the bound admits the parked requests instead of dropping them. *)
  Pep.set_admission pep None;
  Alcotest.(check int) "queue empty after lift" 0 (Pep.admission_queue_length pep);
  Net.run net;
  Alcotest.(check int) "all answered" 3 (List.length !results);
  Alcotest.(check int) "nothing shed" 0 (Pep.stats pep).Pep.shed;
  List.iter
    (fun (tag, r) ->
      Alcotest.(check bool) (tag ^ " granted") true (r.Decision.decision = Decision.Permit))
    !results

let test_admission_validation () =
  let _, pep = rig () in
  let invalid a =
    match Pep.set_admission pep (Some a) with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  Alcotest.(check bool) "max_inflight 0 rejected" true
    (invalid { Pep.max_inflight = 0; max_queue = 1 });
  Alcotest.(check bool) "negative queue rejected" true
    (invalid { Pep.max_inflight = 1; max_queue = -1 })

let test_pdp_max_inflight () =
  let net = Net.create ~seed:4L () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  Net.add_node net "pdp.0";
  Net.add_node net "client";
  let pdp =
    Pdp_service.create services ~node:"pdp.0" ~name:"pdp.0" ~root:permit_all ~service_time:0.05
      ~max_inflight:1 ()
  in
  let answers = ref [] in
  let ask tag =
    Service.call services ~src:"client" ~dst:"pdp.0" Wire.Services.authz_query
      (fun buf -> Wire.write_authz_query buf (ctx_for tag))
      (fun reply ->
        match reply with
        | Ok (Ok (r, _)) -> answers := (tag, r) :: !answers
        | Ok (Error e) -> Alcotest.fail e
        | Error _ -> Alcotest.fail "transport error")
  in
  ask "a";
  ask "b";
  ask "c";
  Net.run net;
  Alcotest.(check int) "all answered" 3 (List.length !answers);
  let overloaded =
    List.filter
      (fun (_, r) ->
        match r.Decision.decision with Decision.Indeterminate _ -> true | _ -> false)
      !answers
  in
  let admitted = List.filter (fun (_, r) -> r.Decision.decision = Decision.Permit) !answers in
  Alcotest.(check int) "one admitted under max_inflight 1" 1 (List.length admitted);
  Alcotest.(check int) "two rejected" 2 (List.length overloaded);
  List.iter
    (fun (_, r) ->
      match r.Decision.decision with
      | Decision.Indeterminate m -> Alcotest.(check string) "overload reason" "pdp overloaded" m
      | _ -> ())
    overloaded;
  Alcotest.(check int) "pdp_overload_total" 2 (Pdp_service.stats pdp).Pdp_service.overloads

let () =
  Alcotest.run "workload"
    [
      ( "engine",
        [
          Alcotest.test_case "same-seed determinism" `Quick test_determinism;
          Alcotest.test_case "100k users: byte-identical and O(active)" `Quick
            test_scale_lazy_users;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "no shed below saturation" `Quick test_no_shed_below_saturation;
          Alcotest.test_case "shedding engages past saturation" `Quick test_shedding_engages;
          Alcotest.test_case "cache relieves shedding" `Quick test_cache_relieves_shedding;
          Alcotest.test_case "latency percentiles monotone" `Quick test_latency_monotone;
          Alcotest.test_case "closed loop" `Quick test_closed_loop;
          Alcotest.test_case "invalid scenarios rejected" `Quick test_invalid_scenarios;
        ] );
      ( "policy-churn",
        [
          Alcotest.test_case "churning runs stay deterministic" `Quick test_churn_determinism;
          Alcotest.test_case "conservation under churn, both arms" `Quick
            test_churn_conservation_both_arms;
          Alcotest.test_case "targeted invalidation retains more hits" `Quick
            test_churn_targeted_retains_hits;
          Alcotest.test_case "churn validation" `Quick test_churn_validation;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bounded queue sheds the third request" `Quick test_admission_sheds_third;
          Alcotest.test_case "lifting the bound drains the queue" `Quick test_admission_lift_drains_queue;
          Alcotest.test_case "admission validation" `Quick test_admission_validation;
          Alcotest.test_case "pdp max-inflight rejects excess" `Quick test_pdp_max_inflight;
        ] );
    ]
