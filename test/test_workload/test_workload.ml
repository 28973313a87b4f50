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

(* A partition window cuts every PEP off from the tier: without offline
   replicas those requests fail closed; with them the PEPs answer from
   the signed log, and every request is still answered exactly once. *)
let test_offline_serves_partition () =
  let partition = Some { W.from = 1.0; until = 3.0 } in
  let base = W.run { W.default with W.seed = 11; partition } in
  let off = W.run { W.default with W.seed = 11; partition; offline = true } in
  check_conserved base;
  check_conserved off;
  Alcotest.(check bool) "fail-closed answers without replicas" true (base.W.errors > 0);
  Alcotest.(check int) "no offline serves without replicas" 0 base.W.offline_serves;
  Alcotest.(check bool) "replicas serve from the log" true (off.W.offline_serves > 0);
  Alcotest.(check bool)
    (Printf.sprintf "replicas fail closed less (%d < %d)" off.W.errors base.W.errors)
    true (off.W.errors < base.W.errors)

(* -------------------------------------------------------------------- *)
(* The policy-churn family dacsbench's churn-rw and E23 publish          *)
(* -------------------------------------------------------------------- *)

module Delta = Dacs_policy.Delta

let churn_resources = 8

let request ~role ~res ~action =
  Context.make
    ~subject:[ ("subject-id", Value.String ("u-" ^ role)); ("role", Value.String role) ]
    ~resource:[ ("resource-id", Value.String (Printf.sprintf "res%d" res)) ]
    ~action:[ ("action-id", Value.String action) ]
    ()

let decide gen ctx =
  (Policy.evaluate ctx (W.churned_policy ~resources:churn_resources ~gen)).Decision.decision

let rule_ids p = List.map (fun r -> r.Rule.id) p.Policy.rules

let test_churn_generation_zero () =
  let base = W.churned_policy ~resources:churn_resources ~gen:0 in
  let expected =
    List.concat_map
      (fun i -> [ Printf.sprintf "doctors-%d" i; Printf.sprintf "nurses-read-%d" i ])
      (List.init churn_resources Fun.id)
    @ [ "default-deny" ]
  in
  Alcotest.(check (list string)) "per-resource pairs over a default-deny" expected (rule_ids base);
  Alcotest.(check bool) "a negative generation is generation 0" true
    (W.churned_policy ~resources:churn_resources ~gen:(-3) = base)

let test_churn_grants_one_resource () =
  List.iter
    (fun gen ->
      let hot = gen mod churn_resources in
      let p = W.churned_policy ~resources:churn_resources ~gen in
      let ids = rule_ids p in
      Alcotest.(check int) "one rule more than generation 0" ((2 * churn_resources) + 2)
        (List.length ids);
      Alcotest.(check (list string))
        "the churn rule sits just before the default-deny"
        [ "admins-read-churn"; "default-deny" ]
        (List.filteri (fun i _ -> i >= (2 * churn_resources)) ids);
      for res = 0 to churn_resources - 1 do
        let expect = if res = hot then Decision.Permit else Decision.Deny in
        Alcotest.(check bool)
          (Printf.sprintf "gen %d: admin read res%d" gen res)
          true
          (decide gen (request ~role:"admin" ~res ~action:"read") = expect);
        Alcotest.(check bool)
          (Printf.sprintf "gen %d: admin write res%d denied" gen res)
          true
          (decide gen (request ~role:"admin" ~res ~action:"write") = Decision.Deny)
      done)
    [ 1; 5; churn_resources + 3 ]

(* Only admins' reads move between generations: every doctor and nurse
   decision is the one generation 0 gives. *)
let test_churn_keeps_other_decisions () =
  for gen = 1 to 2 * churn_resources do
    for res = 0 to churn_resources - 1 do
      List.iter
        (fun (role, action) ->
          let ctx = request ~role ~res ~action in
          Alcotest.(check bool)
            (Printf.sprintf "gen %d: %s %s res%d as gen 0" gen role action res)
            true
            (decide gen ctx = decide 0 ctx))
        [ ("doctor", "read"); ("doctor", "write"); ("nurse", "read"); ("nurse", "write") ]
    done
  done

(* Consecutive generations differ in one pinned rule, so the region a
   publish affects is bounded and leaves out every request that rule
   cannot match: the targeted purge that keeps the rest of a cache warm. *)
let test_churn_region_bounded () =
  let child gen = Some (Policy.Inline_policy (W.churned_policy ~resources:churn_resources ~gen)) in
  List.iter
    (fun gen ->
      let region = Delta.between (child (gen - 1)) (child gen) in
      Alcotest.(check bool) "not empty" false (Delta.is_empty region);
      Alcotest.(check bool) "not unbounded" false (Delta.is_unbounded region);
      let hot = gen mod churn_resources and cold = (gen + 3) mod churn_resources in
      let covers role res action = Delta.covers region (request ~role ~res ~action) in
      Alcotest.(check bool) "covers admin read of the new resource" true (covers "admin" hot "read");
      Alcotest.(check bool) "leaves doctors out" false (covers "doctor" hot "read");
      Alcotest.(check bool) "leaves admin writes out" false (covers "admin" hot "write");
      Alcotest.(check bool) "leaves untouched resources out" false (covers "admin" cold "read"))
    [ 2; 5; churn_resources + 1 ]

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
          Alcotest.test_case "offline replicas serve a partition" `Quick
            test_offline_serves_partition;
        ] );
      ( "churned policy",
        [
          Alcotest.test_case "generation 0 is the serving policy" `Quick test_churn_generation_zero;
          Alcotest.test_case "a generation grants admins one resource" `Quick
            test_churn_grants_one_resource;
          Alcotest.test_case "other decisions stay unchanged" `Quick
            test_churn_keeps_other_decisions;
          Alcotest.test_case "consecutive generations bound the region" `Quick
            test_churn_region_bounded;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bounded queue sheds the third request" `Quick test_admission_sheds_third;
          Alcotest.test_case "lifting the bound drains the queue" `Quick test_admission_lift_drains_queue;
          Alcotest.test_case "admission validation" `Quick test_admission_validation;
          Alcotest.test_case "pdp max-inflight rejects excess" `Quick test_pdp_max_inflight;
        ] );
    ]
