(* Hierarchical caching and batched attribute resolution (E17).

   Covers the three mechanisms of Cache_hierarchy — the PDP attribute
   cache with batched PIP round trips, single-flight coalescing at the
   PEP, and the domain-level shared L2 decision cache with
   revocation-driven invalidation along the syndication hierarchy — plus
   the Decision_cache negative-caching rules, ending with the
   whole-hierarchy revocation property: once an invalidation round
   completes, no cache level serves a grant the policy no longer gives. *)

module Value = Dacs_policy.Value
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Target = Dacs_policy.Target
module Expr = Dacs_policy.Expr
module Combine = Dacs_policy.Combine
module Decision = Dacs_policy.Decision
module Engine = Dacs_net.Engine
module Net = Dacs_net.Net
module Rpc = Dacs_net.Rpc
module Metrics = Dacs_telemetry.Metrics
module Service = Dacs_ws.Service
open Dacs_core

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  m > 0 && go 0

(* --- fixtures ---------------------------------------------------------- *)

(* Deny-overrides over independent permit rules: every rule's condition
   is evaluated on every pass, so one decision needs all three subject
   attributes — the attribute-heavy shape the batch resolver is for. *)
let attr_policy =
  Policy.Inline_policy
    (Policy.make ~id:"attr-heavy" ~issuer:"d" ~rule_combining:Combine.Deny_overrides
       [
         Rule.permit ~condition:(Expr.one_of (Expr.subject_attr "role") [ "doctor" ]) "by-role";
         Rule.permit
           ~condition:(Expr.one_of (Expr.subject_attr "clearance") [ "secret" ])
           "by-clearance";
         Rule.permit
           ~condition:(Expr.one_of (Expr.subject_attr "department") [ "cardio" ])
           "by-department";
       ])

(* Single-attribute policy for the L2 / coalescing tests: the subject
   carries its role inline, so no PIP traffic muddies the counts. *)
let doctor_policy =
  Policy.Inline_policy
    (Policy.make ~id:"doctor" ~issuer:"d" ~rule_combining:Combine.First_applicable
       [
         Rule.permit
           ~target:Target.(any |> subject_is "role" "doctor" |> action_is "action-id" "read")
           "permit-doctor-read";
         Rule.deny "default-deny";
       ])

type fx = {
  net : Net.t;
  services : Service.t;
  pip : Pip.t;
  pdp : Pdp_service.t;
  pep : Pep.t;
  alice : Client.t;
}

let setup ?(attr_cache = true) ?cache () =
  let net = Net.create ~seed:3L () in
  let services = Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let pip = Pip.create services ~node:(add "pip") ~name:"pip" in
  List.iter
    (fun (id, v) -> Pip.add_subject_attribute pip ~subject:"alice" ~id v)
    [
      ("role", Value.String "doctor");
      ("clearance", Value.String "secret");
      ("department", Value.String "cardio");
    ];
  let pdp =
    Pdp_service.create services ~node:(add "pdp") ~name:"pdp" ~root:attr_policy ~pips:[ "pip" ]
      ?attr_cache_ttl:(if attr_cache then Some 60.0 else None)
      ()
  in
  let pep =
    Pep.create services ~node:(add "pep") ~domain:"d" ~resource:"r" ~content:"c"
      (Pep.Pull { pdps = [ "pdp" ]; cache; call_timeout = 5.0 })
  in
  let alice =
    Client.create services ~node:(add "alice") ~subject:[ ("subject-id", Value.String "alice") ]
  in
  { net; services; pip; pdp; pep; alice }

let request fx ?(client = fx.alice) ?(action = "read") ~at outcome =
  Engine.schedule_at (Net.engine fx.net) ~at (fun () ->
      Client.request client ~pep:"pep" ~action ~timeout:5.0 (fun r -> outcome := Some r))

let granted o = match !o with Some (Ok (Wire.Granted _)) -> true | _ -> false
let denied o = match !o with Some (Ok (Wire.Denied _)) -> true | _ -> false

(* --- batched attribute resolution -------------------------------------- *)

let test_batched_single_round_trip () =
  let fx = setup () in
  let o1 = ref None in
  request fx ~at:1.0 o1;
  Net.run fx.net;
  check bool_ "granted" true (granted o1);
  check int_ "three attributes resolved in one frame" 1
    (Pdp_service.stats fx.pdp).Pdp_service.pip_fetches;
  check int_ "the PIP served all three" 3 (Pip.lookups_served fx.pip);
  check int_ "PDP subscribed for invalidations" 1 (List.length (Pip.subscribers fx.pip));
  (* Second decision: the attribute cache is warm, no PIP traffic at all. *)
  let o2 = ref None in
  request fx ~at:10.0 o2;
  Net.run fx.net;
  check bool_ "granted again" true (granted o2);
  check int_ "no refetch" 1 (Pdp_service.stats fx.pdp).Pdp_service.pip_fetches;
  match Pdp_service.attr_cache fx.pdp with
  | None -> Alcotest.fail "attribute cache expected"
  | Some c ->
    check int_ "three bags cached" 3 (Cache_hierarchy.Attr_cache.size c);
    check bool_ "cache hits recorded" true (Cache_hierarchy.Attr_cache.hits c >= 3)

let batched_attr_frames fx =
  Metrics.counter_value
    (Metrics.counter (Service.metrics fx.services) ~labels:[ ("service", "attribute-query") ]
       "rpc_batches_total")

let test_single_miss_plain_call () =
  let fx = setup () in
  (* A second client of alice's carries role and department inline: only
     clearance is missing. *)
  Net.add_node fx.net "alice-inline";
  let alice_inline =
    Client.create fx.services ~node:"alice-inline"
      ~subject:
        [
          ("subject-id", Value.String "alice");
          ("role", Value.String "doctor");
          ("department", Value.String "cardio");
        ]
  in
  let o1 = ref None in
  request fx ~client:alice_inline ~at:1.0 o1;
  Net.run fx.net;
  check bool_ "granted" true (granted o1);
  check int_ "one frame" 1 (Pdp_service.stats fx.pdp).Pdp_service.pip_fetches;
  check int_ "one lookup served" 1 (Pip.lookups_served fx.pip);
  check int_ "a batch of one is a plain call" 0 (batched_attr_frames fx);
  (* Bob has nothing cached: his three misses do ride one batch. *)
  Net.add_node fx.net "bob";
  let bob = Client.create fx.services ~node:"bob" ~subject:[ ("subject-id", Value.String "bob") ] in
  let o2 = ref None in
  request fx ~client:bob ~at:10.0 o2;
  Net.run fx.net;
  check int_ "three misses ride one batch" 1 (batched_attr_frames fx)

(* Two PIPs tried in order: the first lacks [clearance] (or is down), so
   only what it could not answer moves on to the second. *)
let two_pip_setup ~crash_first =
  let net = Net.create ~seed:3L () in
  let services = Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let pip1 = Pip.create services ~node:(add "pip1") ~name:"pip1" in
  let pip2 = Pip.create services ~node:(add "pip2") ~name:"pip2" in
  let attrs =
    [
      ("role", Value.String "doctor");
      ("clearance", Value.String "secret");
      ("department", Value.String "cardio");
    ]
  in
  List.iter
    (fun (id, v) -> if id <> "clearance" then Pip.add_subject_attribute pip1 ~subject:"alice" ~id v)
    attrs;
  List.iter (fun (id, v) -> Pip.add_subject_attribute pip2 ~subject:"alice" ~id v) attrs;
  if crash_first then Net.crash net "pip1";
  let pdp =
    Pdp_service.create services ~node:(add "pdp") ~name:"pdp" ~root:attr_policy
      ~pips:[ "pip1"; "pip2" ] ~attr_cache_ttl:60.0 ()
  in
  let pep =
    Pep.create services ~node:(add "pep") ~domain:"d" ~resource:"r" ~content:"c"
      (Pep.Pull { pdps = [ "pdp" ]; cache = None; call_timeout = 5.0 })
  in
  let alice =
    Client.create services ~node:(add "alice") ~subject:[ ("subject-id", Value.String "alice") ]
  in
  ({ net; services; pip = pip1; pdp; pep; alice }, pip2)

let frame_sizes fx =
  Metrics.bucket_counts
    (Metrics.histogram (Service.metrics fx.services) ~labels:[ ("node", "pdp") ]
       ~buckets:[ 1.0; 2.0; 4.0; 8.0; 16.0 ] "pdp_attr_batch_size")
  |> List.concat_map (fun (bound, n) -> List.init n (fun _ -> bound))

let test_unresolved_misses_move_on () =
  let fx, pip2 = two_pip_setup ~crash_first:false in
  let o = ref None in
  request fx ~at:1.0 o;
  Net.run fx.net;
  check bool_ "granted" true (granted o);
  check int_ "a frame per PIP" 2 (Pdp_service.stats fx.pdp).Pdp_service.pip_fetches;
  check (Alcotest.list (Alcotest.float 0.0)) "3 parts, then 1 (bucket bounds)" [ 1.0; 4.0 ]
    (frame_sizes fx);
  check int_ "the first PIP served all three" 3 (Pip.lookups_served fx.pip);
  check int_ "the second only the clearance it lacked" 1 (Pip.lookups_served pip2);
  check int_ "the single leftover went as a plain call" 1 (batched_attr_frames fx)

let test_failed_frame_moves_every_miss () =
  let fx, pip2 = two_pip_setup ~crash_first:true in
  let o = ref None in
  request fx ~at:1.0 o;
  Net.run fx.net;
  check bool_ "granted" true (granted o);
  check int_ "a frame per PIP" 2 (Pdp_service.stats fx.pdp).Pdp_service.pip_fetches;
  check (Alcotest.list (Alcotest.float 0.0)) "3 parts twice (bucket bounds)" [ 4.0; 4.0 ]
    (frame_sizes fx);
  check int_ "the crashed PIP served nothing" 0 (Pip.lookups_served fx.pip);
  check int_ "every miss moved to the second" 3 (Pip.lookups_served pip2)

let test_legacy_no_attr_cache () =
  let fx = setup ~attr_cache:false () in
  let o1 = ref None and o2 = ref None in
  request fx ~at:1.0 o1;
  Net.run fx.net;
  request fx ~at:10.0 o2;
  Net.run fx.net;
  check bool_ "granted" true (granted o1 && granted o2);
  (* Without the cache every decision resolves afresh (still batched). *)
  check int_ "one frame per decision" 2 (Pdp_service.stats fx.pdp).Pdp_service.pip_fetches;
  check int_ "six attribute serves" 6 (Pip.lookups_served fx.pip)

let test_attribute_invalidation_push () =
  let fx = setup () in
  let o1 = ref None in
  request fx ~at:1.0 o1;
  Net.run fx.net;
  check bool_ "granted" true (granted o1);
  (* Dropping one attribute pushes a targeted invalidation: only that
     attribute is refetched, and the decision still permits through the
     remaining rules. *)
  Pip.remove_subject_attribute fx.pip ~subject:"alice" ~id:"role";
  Net.run fx.net;
  let o2 = ref None in
  request fx ~at:10.0 o2;
  Net.run fx.net;
  check bool_ "still granted via clearance/department" true (granted o2);
  check int_ "one extra frame" 2 (Pdp_service.stats fx.pdp).Pdp_service.pip_fetches;
  check int_ "only the dropped attribute refetched" 4 (Pip.lookups_served fx.pip);
  (* Dropping the rest flips the decision on the very next request: no
     TTL wait, the pushes purge the cached bags immediately. *)
  Pip.remove_subject_attribute fx.pip ~subject:"alice" ~id:"clearance";
  Pip.remove_subject_attribute fx.pip ~subject:"alice" ~id:"department";
  Net.run fx.net;
  let o3 = ref None in
  request fx ~at:20.0 o3;
  Net.run fx.net;
  check bool_ "denied once every grant-carrying attribute is revoked" true (denied o3)

let test_negative_attribute_cache () =
  let fx = setup () in
  let bob =
    Client.create fx.services ~node:"bob" ~subject:[ ("subject-id", Value.String "bob") ]
  in
  Net.add_node fx.net "bob";
  let o1 = ref None and o2 = ref None in
  request fx ~client:bob ~at:1.0 o1;
  Net.run fx.net;
  request fx ~client:bob ~at:10.0 o2;
  Net.run fx.net;
  check bool_ "denied both times" true (denied o1 && denied o2);
  (* The empty bags are cached too: a subject with no attributes costs
     one PIP round trip, not one per decision. *)
  check int_ "one frame total" 1 (Pdp_service.stats fx.pdp).Pdp_service.pip_fetches

(* --- single-flight coalescing ------------------------------------------ *)

let test_coalescing () =
  let fx = setup () in
  let o1 = ref None and o2 = ref None in
  request fx ~at:1.0 o1;
  request fx ~at:1.0 o2;
  Net.run fx.net;
  check bool_ "both granted" true (granted o1 && granted o2);
  let s = Pep.stats fx.pep in
  check int_ "two requests" 2 s.Pep.requests;
  check int_ "one descent of the ladder" 1 s.Pep.pdp_calls;
  check int_ "the second was coalesced" 1 s.Pep.coalesced

let test_coalescing_distinct_keys () =
  let fx = setup () in
  let o1 = ref None and o2 = ref None in
  request fx ~at:1.0 ~action:"read" o1;
  request fx ~at:1.0 ~action:"write" o2;
  Net.run fx.net;
  let s = Pep.stats fx.pep in
  check int_ "different requests never coalesce" 0 s.Pep.coalesced;
  check int_ "two PDP calls" 2 s.Pep.pdp_calls

(* --- decision-cache negative caching ----------------------------------- *)

let test_negative_caching_rules () =
  let c = Decision_cache.create ~ttl:60.0 () in
  Decision_cache.put c ~now:0.0 ~key:"k1" (Decision.indeterminate "pdp unreachable");
  check int_ "Indeterminate is never cached" 0 (Decision_cache.size c);
  Decision_cache.put c ~now:0.0 ~key:"k1" { Decision.decision = Decision.Deny; obligations = [] };
  Decision_cache.put c ~now:0.0 ~key:"k2" Decision.not_applicable;
  Decision_cache.put c ~now:0.0 ~key:"k3" Decision.permit;
  check int_ "Deny / NotApplicable / Permit all cache" 3 (Decision_cache.size c);
  check bool_ "deny served back" true (Decision_cache.get c ~now:30.0 ~key:"k1" <> None);
  check bool_ "expired past the shared TTL" true (Decision_cache.get c ~now:61.0 ~key:"k1" = None)

(* --- shared L2 decision cache ------------------------------------------ *)

type l2fx = {
  net : Net.t;
  services : Service.t;
  l2 : Cache_hierarchy.L2.t;
  pep1 : Pep.t;
  pep2 : Pep.t;
  alice : Client.t;
}

let setup_l2 () =
  let net = Net.create ~seed:9L () in
  let services = Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  ignore
    (Pdp_service.create services ~node:(add "pdp") ~name:"pdp" ~root:doctor_policy ());
  let l2 = Cache_hierarchy.L2.create services ~node:(add "l2") ~ttl:60.0 () in
  let mk node =
    Pep.create services ~node:(add node) ~domain:"d" ~resource:"r" ~content:"c"
      (Pep.Pull
         {
           pdps = [ "pdp" ];
           cache = Some (Decision_cache.create ~ttl:60.0 ());
           call_timeout = 5.0;
         })
  in
  let pep1 = mk "pep1" and pep2 = mk "pep2" in
  Pep.set_l2 pep1 (Some "l2");
  Pep.set_l2 pep2 (Some "l2");
  let alice =
    Client.create services ~node:(add "alice")
      ~subject:[ ("subject-id", Value.String "alice"); ("role", Value.String "doctor") ]
  in
  { net; services; l2; pep1; pep2; alice }

let l2_request fx ~pep ~at outcome =
  Engine.schedule_at (Net.engine fx.net) ~at (fun () ->
      Client.request fx.alice ~pep ~action:"read" ~timeout:5.0 (fun r -> outcome := Some r))

let test_l2_shared_between_peps () =
  let fx = setup_l2 () in
  let o1 = ref None in
  l2_request fx ~pep:"pep1" ~at:1.0 o1;
  Net.run fx.net;
  check bool_ "granted live" true (granted o1);
  check int_ "the decision was published to L2" 1 (Cache_hierarchy.L2.size fx.l2);
  (* A replica that never saw this request answers from the shared
     cache — and warms its own L1 doing so. *)
  let o2 = ref None in
  l2_request fx ~pep:"pep2" ~at:10.0 o2;
  Net.run fx.net;
  check bool_ "granted from L2" true (granted o2);
  let s2 = Pep.stats fx.pep2 in
  check int_ "L2 hit" 1 s2.Pep.l2_hits;
  check int_ "no PDP call" 0 s2.Pep.pdp_calls;
  let o3 = ref None in
  l2_request fx ~pep:"pep2" ~at:20.0 o3;
  Net.run fx.net;
  check int_ "L1 warmed by the L2 hit" 1 (Pep.stats fx.pep2).Pep.cache_hits;
  let st = Cache_hierarchy.L2.stats fx.l2 in
  check int_ "one L2 lookup hit" 1 st.Cache_hierarchy.L2.hits

let test_l2_unreachable_degrades_to_miss () =
  let fx = setup_l2 () in
  Net.add_node fx.net "ghost";
  Pep.set_l2 fx.pep1 (Some "ghost");
  let o1 = ref None in
  l2_request fx ~pep:"pep1" ~at:1.0 o1;
  Net.run fx.net;
  check bool_ "an unreachable L2 never fails a decision" true (granted o1);
  let s = Pep.stats fx.pep1 in
  check int_ "treated as a miss" 0 s.Pep.l2_hits;
  check int_ "live path taken" 1 s.Pep.pdp_calls

let test_deny_never_outlives_invalidation () =
  let fx = setup_l2 () in
  (* The revocation hook a domain installs: L2 rounds purge PEP L1s. *)
  Cache_hierarchy.L2.set_on_invalidate fx.l2 (fun key ->
      match key with
      | None -> List.iter Pep.invalidate_cache [ fx.pep1; fx.pep2 ]
      | Some key -> List.iter (fun p -> Pep.invalidate_key p ~key) [ fx.pep1; fx.pep2 ]);
  let mallory =
    Client.create fx.services ~node:"mallory"
      ~subject:[ ("subject-id", Value.String "mallory"); ("role", Value.String "intern") ]
  in
  Net.add_node fx.net "mallory";
  let ask at outcome =
    Engine.schedule_at (Net.engine fx.net) ~at (fun () ->
        Client.request mallory ~pep:"pep1" ~action:"read" ~timeout:5.0 (fun r ->
            outcome := Some r))
  in
  let o1 = ref None and o2 = ref None and o3 = ref None in
  ask 1.0 o1;
  Net.run fx.net;
  ask 10.0 o2;
  Net.run fx.net;
  check bool_ "denied both times" true (denied o1 && denied o2);
  let s = Pep.stats fx.pep1 in
  check int_ "the deny was served from L1" 1 s.Pep.cache_hits;
  check int_ "one live call so far" 1 s.Pep.pdp_calls;
  (* One invalidation round: the cached deny is gone from every level —
     negative entries obey revocation exactly like grants. *)
  Cache_hierarchy.L2.invalidate_all fx.l2;
  Net.run fx.net;
  check int_ "L2 purged" 0 (Cache_hierarchy.L2.size fx.l2);
  ask 20.0 o3;
  Net.run fx.net;
  check bool_ "still denied, freshly decided" true (denied o3);
  let s = Pep.stats fx.pep1 in
  check int_ "no stale cache answered" 1 s.Pep.cache_hits;
  check int_ "the third request went live" 2 s.Pep.pdp_calls

(* --- invalidation fan-out and anti-entropy ------------------------------ *)

let test_invalidation_fanout () =
  let net = Net.create ~seed:13L () in
  let services = Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let root = Cache_hierarchy.L2.create services ~node:(add "root") ~ttl:60.0 () in
  let l2a = Cache_hierarchy.L2.create services ~node:(add "l2a") ~ttl:60.0 () in
  let l2b = Cache_hierarchy.L2.create services ~node:(add "l2b") ~ttl:60.0 () in
  Cache_hierarchy.L2.subscribe root ~child:"l2a";
  Cache_hierarchy.L2.subscribe root ~child:"l2b";
  let seeder = add "seeder" in
  Engine.schedule_at (Net.engine net) ~at:0.5 (fun () ->
      List.iter
        (fun l2 ->
          Cache_hierarchy.L2.remote_put services ~src:seeder ~l2 ~key:"k1" Decision.permit;
          Cache_hierarchy.L2.remote_put services ~src:seeder ~l2 ~key:"k2" Decision.permit)
        [ "l2a"; "l2b" ]);
  Net.run net;
  check int_ "children seeded" 4
    (Cache_hierarchy.L2.size l2a + Cache_hierarchy.L2.size l2b);
  (* Keyed drop: only k1 disappears, epochs untouched. *)
  Cache_hierarchy.L2.invalidate root ~key:"k1";
  Net.run net;
  check int_ "keyed drop reached both children" 2
    (Cache_hierarchy.L2.size l2a + Cache_hierarchy.L2.size l2b);
  check int_ "keyed drops do not bump epochs" 0 (Cache_hierarchy.L2.epoch l2a);
  (* Full purge: everything gone, epochs advance, latency observed. *)
  Cache_hierarchy.L2.invalidate_all root;
  Net.run net;
  check int_ "full purge reached both children" 0
    (Cache_hierarchy.L2.size l2a + Cache_hierarchy.L2.size l2b);
  check int_ "child epoch advanced" 1 (Cache_hierarchy.L2.epoch l2a);
  check int_ "root epoch advanced" 1 (Cache_hierarchy.L2.epoch root);
  let dump = Metrics.render (Service.metrics services) in
  check bool_ "invalidation latency histogram populated" true
    (contains dump "l2_invalidation_latency_seconds")

let test_anti_entropy_backstop () =
  let net = Net.create ~seed:17L () in
  let services = Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let root = Cache_hierarchy.L2.create services ~node:(add "root") ~ttl:60.0 () in
  (* The child is NOT subscribed: the push is "lost".  Only the
     anti-entropy poll can tell it about the purge. *)
  let child = Cache_hierarchy.L2.create services ~node:(add "child") ~ttl:60.0 () in
  Cache_hierarchy.L2.enable_anti_entropy child ~parent:"root" ~period:2.0;
  let seeder = add "seeder" in
  Engine.schedule_at (Net.engine net) ~at:0.5 (fun () ->
      Cache_hierarchy.L2.remote_put services ~src:seeder ~l2:"child" ~key:"k" Decision.permit);
  Engine.schedule_at (Net.engine net) ~at:1.0 (fun () ->
      Cache_hierarchy.L2.invalidate_all root);
  Engine.run (Net.engine net) ~until:10.0;
  check int_ "the poll applied the missed purge" 0 (Cache_hierarchy.L2.size child);
  check bool_ "child epoch caught up" true (Cache_hierarchy.L2.epoch child >= 1)

(* --- targeted invalidation from change-impact regions ------------------- *)

module Delta = Dacs_policy.Delta
module Context = Dacs_policy.Context

(* A publish appending one rule confined to resource "lab": its
   change-impact region pins resource-id to {lab}, so entries for other
   resources are provably outside it and must survive a targeted round. *)
let region_rules extra =
  [ Rule.permit ~target:Target.(any |> subject_is "role" "doctor") "permit-doctor" ]
  @ extra
  @ [ Rule.deny "default-deny" ]

let region_policy rules =
  Policy.Inline_policy (Policy.make ~id:"region-base" ~rule_combining:Combine.First_applicable rules)

let region_base = region_policy (region_rules [])

let region_widened =
  region_policy
    (region_rules [ Rule.permit ~target:Target.(any |> resource_is "resource-id" "lab") "lab-bonus" ])

let lab_region = Delta.between (Some region_base) (Some region_widened)

let rctx resource =
  Context.make
    ~subject:[ ("subject-id", Value.String "alice"); ("role", Value.String "doctor") ]
    ~resource:[ ("resource-id", Value.String resource) ]
    ~action:[ ("action-id", Value.String "read") ]
    ()

let rkey resource = Decision_cache.request_key (rctx resource)

let test_region_targeted_drops () =
  check bool_ "the rule-append region is bounded" true
    (not (Delta.is_unbounded lab_region) && not (Delta.is_empty lab_region));
  (* L1: only the key decoding into the region is dropped. *)
  let c = Decision_cache.create ~ttl:60.0 () in
  List.iter
    (fun r -> Decision_cache.put c ~now:0.0 ~key:(rkey r) Decision.permit)
    [ "chart"; "lab"; "note" ];
  check int_ "only the lab entry dropped" 1 (Decision_cache.invalidate_region c lab_region);
  check int_ "two entries retained" 2 (Decision_cache.size c);
  check bool_ "chart decision survives" true (Decision_cache.get c ~now:1.0 ~key:(rkey "chart") <> None);
  check bool_ "lab decision gone" true (Decision_cache.get c ~now:1.0 ~key:(rkey "lab") = None);
  check int_ "an empty region drops nothing" 0 (Decision_cache.invalidate_region c Delta.empty);
  (* Attribute cache: only the pinned position's bags drop. *)
  let m = Dacs_telemetry.Metrics.create () in
  let ac = Cache_hierarchy.Attr_cache.create m ~node:"pdp" ~ttl:60.0 () in
  Cache_hierarchy.Attr_cache.store ac ~now:0.0 ~category:Context.Resource ~id:"resource-id"
    ~subject:"alice" [ Value.String "lab" ];
  Cache_hierarchy.Attr_cache.store ac ~now:0.0 ~category:Context.Subject ~id:"role" ~subject:"alice"
    [ Value.String "doctor" ];
  check int_ "the pinned position's bag dropped" 1
    (Cache_hierarchy.Attr_cache.invalidate_region ac lab_region);
  check int_ "the role bag survives" 1 (Cache_hierarchy.Attr_cache.size ac)

let test_region_unbounded_flush () =
  (* A first publish (no previous tree) has no bound at all. *)
  let root = Policy.Inline_policy (Policy.make ~id:"p" (region_rules [])) in
  check bool_ "appearance of a policy is unbounded" true (Delta.is_unbounded (Delta.between None (Some root)));
  let c = Decision_cache.create ~ttl:60.0 () in
  List.iter
    (fun r -> Decision_cache.put c ~now:0.0 ~key:(rkey r) Decision.permit)
    [ "chart"; "lab" ];
  check int_ "unbounded drops everything" 2 (Decision_cache.invalidate_region c Delta.unbounded);
  check int_ "L1 emptied" 0 (Decision_cache.size c);
  let m = Dacs_telemetry.Metrics.create () in
  let ac = Cache_hierarchy.Attr_cache.create m ~node:"pdp" ~ttl:60.0 () in
  Cache_hierarchy.Attr_cache.store ac ~now:0.0 ~category:Context.Subject ~id:"role" ~subject:"alice"
    [ Value.String "doctor" ];
  check int_ "attribute cache flushed too" 1
    (Cache_hierarchy.Attr_cache.invalidate_region ac Delta.unbounded);
  check int_ "no bags left" 0 (Cache_hierarchy.Attr_cache.size ac)

(* A region push the child never hears (not subscribed) still bumps the
   root epoch, so the child's next anti-entropy poll repairs the loss —
   as a conservative full purge. *)
let test_region_anti_entropy_repair () =
  let net = Net.create ~seed:23L () in
  let services = Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let root = Cache_hierarchy.L2.create services ~node:(add "root") ~ttl:60.0 () in
  let child = Cache_hierarchy.L2.create services ~node:(add "child") ~ttl:60.0 () in
  Cache_hierarchy.L2.enable_anti_entropy child ~parent:"root" ~period:2.0;
  let seeder = add "seeder" in
  Engine.schedule_at (Net.engine net) ~at:0.5 (fun () ->
      List.iter
        (fun r ->
          Cache_hierarchy.L2.remote_put services ~src:seeder ~l2:"child" ~key:(rkey r)
            Decision.permit)
        [ "chart"; "lab" ]);
  Engine.schedule_at (Net.engine net) ~at:1.0 (fun () ->
      Cache_hierarchy.L2.invalidate_region root lab_region);
  Engine.run (Net.engine net) ~until:10.0;
  check int_ "region purge bumped the root epoch" 1 (Cache_hierarchy.L2.epoch root);
  check int_ "the poll repaired the lost region push" 0 (Cache_hierarchy.L2.size child);
  check bool_ "child epoch caught up" true (Cache_hierarchy.L2.epoch child >= 1);
  (* An Empty region must NOT bump the epoch: no purge happened anywhere,
     so no poll-driven flush may be triggered. *)
  Cache_hierarchy.L2.invalidate_region root Delta.empty;
  check int_ "empty regions leave the epoch alone" 1 (Cache_hierarchy.L2.epoch root)

(* The put/region race: a fire-and-forget put composed before a targeted
   purge but delivered after it must not resurrect the entry the purge
   killed.  The put is stamped at send time; the L2 rejects any put
   stamped before its last purge. *)
let test_region_put_race () =
  let net = Net.create ~seed:27L () in
  let services = Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let l2 = Cache_hierarchy.L2.create services ~node:(add "l2") ~ttl:60.0 () in
  let seeder = add "seeder" in
  (* A slow link: the put sent at t=1 lands at t=2, after the purge. *)
  Net.set_latency net "seeder" "l2" 1.0;
  Engine.schedule_at (Net.engine net) ~at:1.0 (fun () ->
      Cache_hierarchy.L2.remote_put services ~src:seeder ~l2:"l2" ~key:(rkey "lab") Decision.permit);
  Engine.schedule_at (Net.engine net) ~at:1.5 (fun () ->
      Cache_hierarchy.L2.invalidate_region l2 lab_region);
  Engine.run (Net.engine net) ~until:5.0;
  check int_ "the in-flight put was rejected" 1 (Cache_hierarchy.L2.rejected_puts l2);
  check int_ "the purged entry was not resurrected" 0 (Cache_hierarchy.L2.size l2);
  (* A put composed after the purge is accepted as usual. *)
  Engine.schedule_at (Net.engine net) ~at:6.0 (fun () ->
      Cache_hierarchy.L2.remote_put services ~src:seeder ~l2:"l2" ~key:(rkey "lab") Decision.permit);
  Engine.run (Net.engine net) ~until:10.0;
  check int_ "no further rejections" 1 (Cache_hierarchy.L2.rejected_puts l2);
  check int_ "post-purge put stored" 1 (Cache_hierarchy.L2.size l2)

(* Only a stamped put can be ordered against a purge.  Raw cache-put
   frames sent after one, without a SentAt or with one that is not a
   number, are refused with a fault and store nothing. *)
let test_unstamped_puts_refused () =
  let net = Net.create ~seed:27L () in
  let services = Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let l2 = Cache_hierarchy.L2.create services ~node:(add "l2") ~ttl:60.0 () in
  let sender = add "sender" in
  Engine.schedule_at (Net.engine net) ~at:1.0 (fun () ->
      Cache_hierarchy.L2.invalidate_region l2 lab_region);
  let replies = ref [] in
  List.iter
    (fun stamp ->
      Engine.schedule_at (Net.engine net) ~at:2.0 (fun () ->
          Service.call_frame services ~src:sender ~dst:"l2" ~service:"cache-put"
            ~read:(fun c -> Dacs_xml.Xml.Cursor.read c (fun c -> ignore (Dacs_xml.Xml.Cursor.subtree c)))
            (fun buf ->
              Buffer.add_string buf "<CachePut Key=\"";
              Dacs_xml.Xml.add_escaped buf (rkey "lab");
              Buffer.add_string buf ("\"" ^ stamp ^ ">");
              Dacs_policy.Xacml_xml.write_result buf Decision.permit;
              Buffer.add_string buf "</CachePut>")
            (fun reply -> replies := reply :: !replies)))
    [ ""; " SentAt=\"x\"" ];
  Engine.run (Net.engine net) ~until:5.0;
  check int_ "both frames answered" 2 (List.length !replies);
  List.iter
    (function
      | Error (Service.Fault _) -> ()
      | Error e -> Alcotest.failf "expected a fault, got %s" (Service.error_to_string e)
      | Ok _ -> Alcotest.fail "an unstamped put was acknowledged")
    !replies;
  check int_ "no put stored" 0 (Cache_hierarchy.L2.stats l2).Cache_hierarchy.L2.puts;
  check int_ "nothing resurrected" 0 (Cache_hierarchy.L2.size l2)

(* A PEP on node "pep" whose live rung reaches the single PDP "pdp",
   either as a pull PEP's failover list or through a one-shard tier — the
   two live steps of the one decision ladder. *)
let pep_over_pdp services ~sharded ~resource cache =
  let mode =
    if sharded then
      Pep.Sharded { tier = Pdp_tier.create services ~node:"pep" ~shards:[ "pdp" ] (); cache }
    else Pep.Pull { pdps = [ "pdp" ]; cache; call_timeout = 5.0 }
  in
  Pep.create services ~node:"pep" ~domain:"d" ~resource mode

(* The same race one level down: a publish lands while a live query is in
   flight, so the PDP answers under the old policy and the PEP's L1 is
   purged before that answer arrives.  The answer is still served, but it
   must not enter L1, where it would outlive the purge for a whole TTL. *)
let test_l1_put_after_purge_race ~sharded () =
  let net = Net.create ~seed:29L () in
  let services = Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let pdp = Pdp_service.create services ~node:(add "pdp") ~name:"pdp" ~root:region_base () in
  let l1 = Decision_cache.create ~ttl:60.0 () in
  Net.add_node net "pep";
  let pep = pep_over_pdp services ~sharded ~resource:"lab" (Some l1) in
  (* The query sent at t=1 is decided at t=1.2 and answered at t=1.4;
     the publish and its L1 purge land in between. *)
  Net.set_latency net "pep" "pdp" 0.2;
  let nurse =
    Context.make
      ~subject:[ ("subject-id", Value.String "bob"); ("role", Value.String "nurse") ]
      ~resource:[ ("resource-id", Value.String "lab") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  let ask at answer =
    Engine.schedule_at (Net.engine net) ~at (fun () ->
        Pep.decide_explained pep nurse (fun r p -> answer := Some (r.Decision.decision, p.Provenance.stage)))
  in
  let first = ref None and second = ref None in
  ask 1.0 first;
  Engine.schedule_at (Net.engine net) ~at:1.3 (fun () ->
      Pdp_service.install_policy pdp region_widened;
      ignore (Pep.invalidate_region pep lab_region));
  Engine.run (Net.engine net) ~until:4.0;
  check bool_ "the in-flight query was answered under the old policy" true
    (!first = Some (Decision.Deny, Provenance.Live));
  check int_ "its answer did not enter L1" 0 (Decision_cache.size l1);
  ask 5.0 second;
  Engine.run (Net.engine net) ~until:10.0;
  check bool_ "the next query is decided live under the new policy" true
    (!second = Some (Decision.Permit, Provenance.Live));
  check int_ "a fill with no purge in flight is stored" 1 (Decision_cache.size l1)

(* The shared L2 drops an Indeterminate, so the ladder must not spend a
   cache-put on one.  A PDP with a zero in-flight bound sheds every query
   with an Indeterminate, which arrives as an ordinary live answer. *)
let test_no_l2_put_for_indeterminate ~sharded () =
  let net = Net.create ~seed:31L () in
  let services = Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  ignore
    (Pdp_service.create services ~node:(add "pdp") ~name:"pdp" ~root:region_base ~max_inflight:0
       ());
  let l2 = Cache_hierarchy.L2.create services ~node:(add "l2") ~ttl:60.0 () in
  Net.add_node net "pep";
  let pep =
    pep_over_pdp services ~sharded ~resource:"lab" (Some (Decision_cache.create ~ttl:60.0 ()))
  in
  Pep.set_l2 pep (Some "l2");
  let answer = ref None in
  Pep.decide_explained pep (rctx "lab") (fun r p ->
      answer := Some (r.Decision.decision, p.Provenance.stage));
  Net.run net;
  check bool_ "the overloaded PDP answered Indeterminate live" true
    (match !answer with Some (Decision.Indeterminate _, Provenance.Live) -> true | _ -> false);
  let st = Cache_hierarchy.L2.stats l2 in
  check int_ "the L2 was consulted" 1 st.Cache_hierarchy.L2.lookups;
  check int_ "no cache-put reached the L2" 0 st.Cache_hierarchy.L2.puts

(* --- the whole hierarchy under revocation ------------------------------- *)

let test_vo_revocation_round () =
  let net = Net.create ~seed:21L () in
  let services = Service.create (Rpc.create net) in
  let da = Domain.create services ~name:"hospital" ~attr_cache_ttl:60.0 () in
  let db = Domain.create services ~name:"lab" ~attr_cache_ttl:60.0 () in
  let vo = Vo.form services ~name:"vo" [ da; db ] in
  Vo.publish_policy vo doctor_policy;
  Net.run net;
  Domain.register_user da ~user:"alice"
    [ ("subject-id", Value.String "alice"); ("role", Value.String "doctor") ];
  let pep =
    Domain.expose_resource da ~resource:"chart" ~cache:(Decision_cache.create ~ttl:60.0 ()) ()
  in
  ignore (Vo.cache_hierarchy vo ~ttl:60.0 ());
  Net.add_node net "alice.pc";
  (* The client presents only its identity; the role lives at the PIP. *)
  let alice =
    Client.create services ~node:"alice.pc" ~subject:[ ("subject-id", Value.String "alice") ]
  in
  (* Syndication already advanced the virtual clock; schedule relative. *)
  let t0 = Net.now net in
  let ask at outcome =
    Engine.schedule_at (Net.engine net) ~at:(t0 +. at) (fun () ->
        Client.request alice ~pep:(Pep.node pep) ~action:"read" ~timeout:5.0 (fun r ->
            outcome := Some r))
  in
  let o1 = ref None and o2 = ref None and o3 = ref None in
  ask 1.0 o1;
  ask 10.0 o2;
  Engine.run (Net.engine net) ~until:(t0 +. 19.0);
  check bool_ "granted live, then from cache" true (granted o1 && granted o2);
  check bool_ "second answer came from a cache level" true
    (let s = Pep.stats pep in
     s.Pep.cache_hits + s.Pep.l2_hits >= 1);
  (* Revoke at t=10: the PIP drops the role (pushing an attribute
     invalidation to the PDP cache) and the capability revocation runs
     one decision-cache invalidation round from the VO root. *)
  Engine.schedule_at (Net.engine net) ~at:(t0 +. 20.0) (fun () ->
      Pip.remove_subject_attribute (Domain.pip da) ~subject:"alice" ~id:"role";
      Vo.revoke_capability vo ~assertion_id:"cap-1");
  (* Sample L2 occupancy after the invalidation round settles but before
     the next request re-populates the caches (with its deny). *)
  let l2_sizes_after_round = ref [] in
  Engine.schedule_at (Net.engine net) ~at:(t0 +. 25.0) (fun () ->
      l2_sizes_after_round :=
        List.map
          (fun d ->
            match Domain.l2 d with
            | None -> Alcotest.fail "domain should have an L2"
            | Some l2 -> Cache_hierarchy.L2.size l2)
          (Vo.domains vo));
  ask 30.0 o3;
  Engine.run (Net.engine net) ~until:(t0 +. 50.0);
  check bool_ "no cache level still serves the grant" true (denied o3);
  let s = Pep.stats pep in
  check int_ "exactly the two pre-revocation grants" 2 s.Pep.granted;
  (* L2s across the whole VO were purged by the round. *)
  List.iter
    (fun size -> check bool_ "member L2 emptied" true (size = 0))
    !l2_sizes_after_round

(* --- the compiled region test against its reference --------------------- *)

(* The per-key test region invalidation used before it was compiled to
   atoms, kept as the reference: decode the packed key back into a
   context and ask Delta.covers.  An undecodable key drops. *)
let reference_key_in_region region key =
  match Intern.decode_key key with None -> true | Some ctx -> Delta.covers region ctx

(* The keys that purge dropped: none for Empty, all for Unbounded (the
   full flush), the covered ones for Zones. *)
let reference_doomed region keys =
  match region with
  | Delta.Empty -> []
  | Delta.Unbounded -> keys
  | Delta.Zones _ -> List.filter (reference_key_in_region region) keys

(* Cached contexts draw their bags from [pool] at [positions]: strings,
   plus an Integer and a Boolean so non-string bags occur at pinned and
   guard positions.  Regions pin [pin_positions] to [pin_strings]; the
   "ghost" names there are never put in any context, so they stay
   un-interned and exercise the compiler's find-only drops, and an
   Environment position is never in any key. *)
let pool =
  [| Value.String "doctor"; Value.String "lab"; Value.String "read"; Value.String "chart";
     Value.Int 7; Value.Bool true |]

let positions =
  [| (Context.Subject, "subject-id"); (Context.Subject, "role"); (Context.Resource, "resource-id");
     (Context.Action, "action-id") |]

let pin_positions =
  Array.append positions [| (Context.Environment, "time-of-day"); (Context.Subject, "ghost-attr") |]

let pin_strings = [| "doctor"; "lab"; "read"; "chart"; "7"; "ghost-value" |]

(* Each position gets a bag of 0–2 pool values, mostly one string:
   absent attributes, multi-valued and non-string bags all occur, while
   most keys stay clean enough for a pin to exclude them. *)
let gen_pool_value =
  QCheck.Gen.(frequency [ (8, int_bound 3); (1, return 4); (1, return 5) ])

let gen_bag =
  QCheck.Gen.(list_size (frequency [ (1, return 0); (6, return 1); (2, return 2) ]) gen_pool_value)

let gen_ctx =
  let open QCheck.Gen in
  map
    (fun bags ->
      let section category =
        List.concat
          (List.mapi
             (fun i vs ->
               let c, attr = positions.(i) in
               if c = category then List.map (fun v -> (attr, pool.(v))) vs else [])
             bags)
      in
      Context.make ~subject:(section Context.Subject) ~resource:(section Context.Resource)
        ~action:(section Context.Action) ())
    (list_repeat (Array.length positions) gen_bag)

(* Mostly positions keys carry, so pins often exclude; now and then the
   Environment or the never-interned one. *)
let gen_pin_position =
  QCheck.Gen.(frequency [ (8, int_bound (Array.length positions - 1)); (1, return 4); (1, return 5) ])

let gen_pin_string = QCheck.Gen.int_bound (Array.length pin_strings - 1)

let gen_pin =
  let open QCheck.Gen in
  map3
    (fun p vs gs ->
      let category, attr = pin_positions.(p) in
      {
        Delta.pin_category = category;
        pin_attribute = attr;
        pin_values = List.sort_uniq compare (List.map (fun v -> pin_strings.(v)) vs);
        pin_guards = List.map (fun g -> pin_positions.(g)) gs;
      })
    gen_pin_position
    (list_size (int_range 1 3) gen_pin_string)
    (list_size (frequency [ (3, return 0); (2, int_range 1 2) ]) gen_pin_position)

(* Hand-built zones: any position may be pinned or guarded, Environment
   and never-interned ones included. *)
let gen_zones =
  QCheck.Gen.(
    map
      (fun zs -> Delta.Zones zs)
      (list_size (int_range 1 2) (list_size (frequency [ (1, return 0); (8, int_range 1 3) ]) gen_pin)))

(* A random target section over the positions of one category: empty,
   one match, two clauses, or one two-match clause. *)
let gen_section category =
  let open QCheck.Gen in
  let at =
    List.filter (fun i -> fst pin_positions.(i) = category) (List.init (Array.length pin_positions) Fun.id)
  in
  let gen_match =
    map2
      (fun p v ->
        let c, attr = pin_positions.(p) in
        Target.match_string c attr pin_strings.(v))
      (oneofl at) gen_pin_string
  in
  oneof
    [
      return [];
      map (fun m -> [ [ m ] ]) gen_match;
      map2 (fun a b -> [ [ a ]; [ b ] ]) gen_match gen_match;
      map2 (fun a b -> [ [ a; b ] ]) gen_match gen_match;
    ]

let gen_policy =
  let open QCheck.Gen in
  let gen_rule =
    map2
      (fun (subjects, resources, actions, environments) permit ->
        ( Target.make ~subjects ~resources ~actions ~environments (),
          if permit then Rule.Permit else Rule.Deny ))
      (quad (gen_section Context.Subject) (gen_section Context.Resource)
         (gen_section Context.Action) (gen_section Context.Environment))
      bool
  in
  map
    (fun rules ->
      Policy.Inline_policy
        (Policy.make ~id:"equivalence"
           (List.mapi (fun i (target, effect) -> Rule.make ~target effect (Printf.sprintf "r%d" i)) rules)))
    (list_size (int_bound 4) gen_rule)

let gen_region =
  let open QCheck.Gen in
  frequency
    [
      (4, map2 (fun a b -> Delta.between (Some a) (Some b)) gen_policy gen_policy);
      (4, gen_zones);
      (1, return Delta.empty);
      (1, return Delta.unbounded);
    ]

(* A key longer than the test's scratch array. *)
let long_key () =
  Decision_cache.request_key
    (Context.make
       ~subject:(List.init 24 (fun i -> ("role", Value.String (Printf.sprintf "long-%d" i))))
       ~resource:[ ("resource-id", Value.String "lab") ]
       ())

(* Keys decode_key rejects (or, for "", reads as the empty context).
   Call it after every key of the case is built, so the first unminted
   atom id stays unminted. *)
let malformed_keys () =
  let atoms = (Intern.stats Intern.global).Intern.atoms in
  [
    "";
    "1..2";
    ".1";
    "1.";
    "12x";
    "12345678901";
    string_of_int atoms;
    "0." ^ string_of_int (atoms + 1000);
    Dacs_crypto.Sha256.hex_digest "not a packed key";
  ]

let region_equivalence_prop =
  QCheck.Test.make ~count:1000 ~name:"region purge = decode-and-covers reference"
    (QCheck.make
       ~print:(fun (ctxs, region) ->
         Printf.sprintf "%d contexts, region %s" (List.length ctxs) (Delta.to_string region))
       QCheck.Gen.(pair (list_size (int_range 1 40) gen_ctx) gen_region))
    (fun (ctxs, region) ->
      let packed = long_key () :: List.map Decision_cache.request_key ctxs in
      let keys = List.sort_uniq compare (packed @ malformed_keys ()) in
      let c = Decision_cache.create ~max_entries:4096 ~ttl:60.0 () in
      List.iter (fun key -> Decision_cache.put c ~now:0.0 ~key Decision.permit) keys;
      let compiled = Intern.compile_region region in
      (match
         List.find_opt
           (fun key -> Intern.key_in_region compiled key <> reference_key_in_region region key)
           keys
       with
      | Some key ->
        QCheck.Test.fail_reportf "key %S: compiled %b, reference %b" key
          (Intern.key_in_region compiled key) (reference_key_in_region region key)
      | None -> ());
      let doomed = reference_doomed region keys in
      let expected = List.filter (fun key -> not (List.mem key doomed)) keys in
      let dropped = Decision_cache.invalidate_region c region in
      let survivors = List.filter (fun key -> Decision_cache.get c ~now:1.0 ~key <> None) keys in
      if dropped <> List.length doomed || survivors <> expected then
        QCheck.Test.fail_reportf "dropped %d (reference %d), %d survivors (reference %d)" dropped
          (List.length doomed) (List.length survivors) (List.length expected);
      true)

(* The shared L2 stores whatever keys its peers put over the wire, so a
   resident key need not be one this process packed.  A region purge must
   drop every key it cannot read — it cannot prove such a key is outside
   the region — while packed keys the region excludes survive. *)
let test_l2_region_drops_peer_malformed_keys () =
  let net = Net.create ~seed:31L () in
  let services = Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let l2 = Cache_hierarchy.L2.create services ~node:(add "l2") ~ttl:60.0 () in
  let peer = add "peer" in
  let packed = List.map rkey [ "chart"; "note"; "ward" ] in
  let malformed = malformed_keys () in
  Engine.schedule_at (Net.engine net) ~at:0.5 (fun () ->
      List.iter
        (fun key -> Cache_hierarchy.L2.remote_put services ~src:peer ~l2:"l2" ~key Decision.permit)
        (packed @ malformed));
  Engine.run (Net.engine net) ~until:1.0;
  check int_ "every peer put stored" (List.length packed + List.length malformed)
    (Cache_hierarchy.L2.size l2);
  Cache_hierarchy.L2.invalidate_region l2 lab_region;
  check int_ "only the packed keys survive" (List.length packed) (Cache_hierarchy.L2.size l2);
  let answers = Hashtbl.create 16 in
  Engine.schedule_at (Net.engine net) ~at:2.0 (fun () ->
      List.iter
        (fun key ->
          Cache_hierarchy.L2.remote_lookup services ~src:peer ~l2:"l2" ~key (fun r ->
              Hashtbl.replace answers key (r <> None)))
        (packed @ malformed));
  Engine.run (Net.engine net) ~until:5.0;
  let hit key = Hashtbl.find_opt answers key in
  List.iter (fun key -> check bool_ ("packed key survives: " ^ key) true (hit key = Some true)) packed;
  List.iter
    (fun key -> check bool_ ("malformed key misses: " ^ key) true (hit key = Some false))
    malformed

(* The attribute cache's region purge works on pair syms: a bag at a
   pinned or guard position drops, one elsewhere survives, and an entry
   whose pair sym the intern table never minted drops conservatively. *)
let test_attr_cache_region_syms () =
  let m = Dacs_telemetry.Metrics.create () in
  let ac = Cache_hierarchy.Attr_cache.create m ~node:"pdp" ~ttl:60.0 () in
  let guarded =
    Delta.Zones
      [
        [
          {
            Delta.pin_category = Context.Resource;
            pin_attribute = "resource-id";
            pin_values = [ "lab" ];
            pin_guards = [ (Context.Subject, "clearance") ];
          };
        ];
      ]
  in
  let store category id =
    Cache_hierarchy.Attr_cache.store ac ~now:0.0 ~category ~id ~subject:"alice" [ Value.String "x" ]
  in
  store Context.Resource "resource-id";
  store Context.Subject "clearance";
  store Context.Subject "role";
  Cache_hierarchy.Attr_cache.store_sym ac ~now:0.0 ~pair:1_000_000
    ~subject_sym:(Cache_hierarchy.Attr_cache.subject_sym "alice")
    [ Value.String "x" ];
  check int_ "pinned, guard and unknown-sym bags dropped" 3
    (Cache_hierarchy.Attr_cache.invalidate_region ac guarded);
  check bool_ "the role bag survives" true
    (Cache_hierarchy.Attr_cache.find ac ~now:1.0 ~category:Context.Subject ~id:"role" ~subject:"alice"
    <> None)

(* A purge that drops nothing allocates the same at 1,024 and 4,096
   entries: the per-key test allocates nothing, so the purge's
   allocation is O(dropped), not O(size). *)
let test_region_purge_allocation () =
  let ctx i =
    Context.make
      ~subject:[ ("subject-id", Value.String (Printf.sprintf "alloc-%d" i)); ("role", Value.String "doctor") ]
      ~resource:[ ("resource-id", Value.String "chart") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  let purge_words n =
    let c = Decision_cache.create ~max_entries:n ~ttl:60.0 () in
    for i = 0 to n - 1 do
      Decision_cache.put c ~now:0.0 ~key:(Decision_cache.request_key (ctx i)) Decision.permit
    done;
    let before = Gc.minor_words () in
    let dropped = Decision_cache.invalidate_region c lab_region in
    let words = Gc.minor_words () -. before in
    check int_ "the lab region covers no chart entry" 0 dropped;
    check int_ "every entry retained" n (Decision_cache.size c);
    words
  in
  let small = purge_words 1024 in
  let large = purge_words 4096 in
  check (Alcotest.float 0.0) "same minor words at 1,024 and 4,096 entries" small large

let () =
  Alcotest.run "dacs_cache"
    [
      ( "attr-batching",
        [
          Alcotest.test_case "all misses resolved in one PIP round trip" `Quick
            test_batched_single_round_trip;
          Alcotest.test_case "a single miss goes as a plain call" `Quick
            test_single_miss_plain_call;
          Alcotest.test_case "only unresolved misses move to the next PIP" `Quick
            test_unresolved_misses_move_on;
          Alcotest.test_case "a failed frame moves every miss to the next PIP" `Quick
            test_failed_frame_moves_every_miss;
          Alcotest.test_case "without the cache every decision refetches" `Quick
            test_legacy_no_attr_cache;
          Alcotest.test_case "PIP pushes purge exactly the dropped attribute" `Quick
            test_attribute_invalidation_push;
          Alcotest.test_case "empty bags are negative-cached" `Quick test_negative_attribute_cache;
        ] );
      ( "single-flight",
        [
          Alcotest.test_case "identical concurrent queries share one descent" `Quick
            test_coalescing;
          Alcotest.test_case "distinct queries never coalesce" `Quick
            test_coalescing_distinct_keys;
        ] );
      ( "negative-caching",
        [
          Alcotest.test_case "deny and not-applicable cache; indeterminate never" `Quick
            test_negative_caching_rules;
          Alcotest.test_case "cached denies never outlive an invalidation round" `Quick
            test_deny_never_outlives_invalidation;
        ] );
      ( "l2",
        [
          Alcotest.test_case "replicas share decisions through the domain L2" `Quick
            test_l2_shared_between_peps;
          Alcotest.test_case "an unreachable L2 degrades to a miss" `Quick
            test_l2_unreachable_degrades_to_miss;
          Alcotest.test_case "invalidations fan out along the hierarchy" `Quick
            test_invalidation_fanout;
          Alcotest.test_case "anti-entropy applies a lost purge within one round" `Quick
            test_anti_entropy_backstop;
          Alcotest.test_case "a pull PEP sends no L2 put for an Indeterminate" `Quick
            (test_no_l2_put_for_indeterminate ~sharded:false);
          Alcotest.test_case "a sharded PEP sends no L2 put for an Indeterminate" `Quick
            (test_no_l2_put_for_indeterminate ~sharded:true);
        ] );
      ( "region-invalidation",
        [
          Alcotest.test_case "a bounded region drops only matching entries" `Quick
            test_region_targeted_drops;
          Alcotest.test_case "an unbounded region degrades to the full flush" `Quick
            test_region_unbounded_flush;
          Alcotest.test_case "anti-entropy repairs a lost region push" `Quick
            test_region_anti_entropy_repair;
          Alcotest.test_case "an in-flight put cannot outlive a region purge" `Quick
            test_region_put_race;
          Alcotest.test_case "a live answer in flight across a purge stays out of L1" `Quick
            (test_l1_put_after_purge_race ~sharded:true);
          Alcotest.test_case "a pull PEP's answer in flight across a purge stays out of L1"
            `Quick
            (test_l1_put_after_purge_race ~sharded:false);
          QCheck_alcotest.to_alcotest region_equivalence_prop;
          Alcotest.test_case "the attribute cache purges by pair sym" `Quick
            test_attr_cache_region_syms;
          Alcotest.test_case "a purge that drops nothing allocates independently of size" `Quick
            test_region_purge_allocation;
          Alcotest.test_case "an L2 region purge drops malformed peer keys" `Quick
            test_l2_region_drops_peer_malformed_keys;
          Alcotest.test_case "an unstamped put is refused after a purge" `Quick
            test_unstamped_puts_refused;
        ] );
      ( "revocation",
        [
          Alcotest.test_case "after one round no cache level serves the grant" `Quick
            test_vo_revocation_round;
        ] );
    ]
