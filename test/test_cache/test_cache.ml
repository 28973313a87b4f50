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
module Loghist = Dacs_telemetry.Loghist
module Trace = Dacs_telemetry.Trace
module Service = Dacs_ws.Service
module Delta = Dacs_policy.Delta
open Dacs_core

(* A string-equal match on one attribute, in any section. *)
let match_string category attribute_id s =
  Target.make_match ~fn:"string-equal" ~value:(Value.String s) ~category ~attribute_id

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let sizes_ = Alcotest.(triple int (float 0.0) (float 0.0))

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
  let pip = Pip.create services ~node:(add "pip") in
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
      (Pep.Sharded { tier = Pdp_tier.ordered services ~node:"pep" ~pdps:[ "pdp" ] ~call_timeout:5.0; cache })
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

(* How many messages of one category a run sent. *)
let sent_count net category =
  match List.assoc_opt category (Net.stats_by_category net) with
  | Some st -> st.Net.count
  | None -> 0

(* The PIP's subscribers, counted by the attribute-invalidate pushes one
   revocation sends: one per subscribed attribute cache. *)
let subscribers_reached net pip =
  let before = sent_count net "attribute-invalidate" in
  Pip.remove_subject_attribute pip ~subject:"nobody" ~id:"none";
  Net.run net;
  sent_count net "attribute-invalidate" - before

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
  check int_ "PDP subscribed for invalidations" 1 (subscribers_reached fx.net fx.pip);
  (* Second decision: the attribute cache is warm, no PIP traffic at all. *)
  let o2 = ref None in
  request fx ~at:10.0 o2;
  Net.run fx.net;
  check bool_ "granted again" true (granted o2);
  check int_ "no refetch" 1 (Pdp_service.stats fx.pdp).Pdp_service.pip_fetches;
  check bool_ "cache hits recorded" true
    (Metrics.counter_value
       (Metrics.counter (Service.metrics fx.services) ~labels:[ ("node", "pdp") ] "pdp_attr_cache_hits_total")
     >= 3)

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
  let pip1 = Pip.create services ~node:(add "pip1") in
  let pip2 = Pip.create services ~node:(add "pip2") in
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
      (Pep.Sharded
         { tier = Pdp_tier.ordered services ~node:"pep" ~pdps:[ "pdp" ] ~call_timeout:5.0; cache = None })
  in
  let alice =
    Client.create services ~node:(add "alice") ~subject:[ ("subject-id", Value.String "alice") ]
  in
  ({ net; services; pip = pip1; pdp; pep; alice }, pip2)

(* Frames, parts and the largest frame: for two frames of whole parts
   these pin both sizes exactly. *)
let frame_sizes fx =
  let h =
    Metrics.loghist
      (Metrics.histogram (Service.metrics fx.services) ~labels:[ ("node", "pdp") ]
         "pdp_attr_batch_size")
  in
  (Loghist.count h, Loghist.sum h, Loghist.max_seen h)

let test_unresolved_misses_move_on () =
  let fx, pip2 = two_pip_setup ~crash_first:false in
  let o = ref None in
  request fx ~at:1.0 o;
  Net.run fx.net;
  check bool_ "granted" true (granted o);
  check int_ "a frame per PIP" 2 (Pdp_service.stats fx.pdp).Pdp_service.pip_fetches;
  check sizes_ "3 parts, then 1" (2, 4.0, 3.0) (frame_sizes fx);
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
  check sizes_ "3 parts twice" (2, 6.0, 3.0) (frame_sizes fx);
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

(* Only the PDP's own PIPs may drop its cached bags: an invalidation
   from any other node, sent one way, is ignored and leaves the bag in
   place, and no answer goes back to the stranger. *)
let test_one_way_invalidation_only_from_pips () =
  let fx = setup () in
  let o1 = ref None in
  request fx ~at:1.0 o1;
  Net.run fx.net;
  check bool_ "granted" true (granted o1);
  Net.add_node fx.net "mallory";
  Service.cast fx.services ~src:"mallory" ~dst:"pdp" Wire.Services.attribute_invalidate (fun buf ->
      Wire.write_attribute_invalidate buf ~subject:"alice" ~attribute_id:"role");
  Net.run fx.net;
  check int_ "no answer sent" 0 (sent_count fx.net "attribute-invalidate-reply");
  let o2 = ref None in
  request fx ~at:10.0 o2;
  Net.run fx.net;
  check bool_ "granted from the cached bags" true (granted o2);
  check int_ "no attribute refetched" 3 (Pip.lookups_served fx.pip)

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

(* A pull PEP for resource "r" over the one PDP, attached to the L2. *)
let l2_pep net services node =
  Net.add_node net node;
  let cache = Some (Decision_cache.create ~ttl:60.0 ()) in
  let pep =
    Pep.create services ~node ~domain:"d" ~resource:"r" ~content:"c"
      (Pep.Sharded { tier = Pdp_tier.ordered services ~node ~pdps:[ "pdp" ] ~call_timeout:5.0; cache })
  in
  Pep.set_l2 pep (Some "l2");
  pep

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
  let pep1 = l2_pep net services "pep1" and pep2 = l2_pep net services "pep2" in
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
  check int_ "the decision was published to L2" 1 (Cache_hierarchy.L2.stats fx.l2).size;
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
  (* One unbounded purge of every level, as a domain runs it: the cached
     deny is gone — negative entries obey revocation exactly like
     grants. *)
  Cache_hierarchy.L2.invalidate_region fx.l2 Delta.unbounded;
  List.iter (fun p -> ignore (Pep.invalidate_region p Delta.unbounded)) [ fx.pep1; fx.pep2 ];
  Net.run fx.net;
  check int_ "L2 purged" 0 (Cache_hierarchy.L2.stats fx.l2).size;
  ask 20.0 o3;
  Net.run fx.net;
  check bool_ "still denied, freshly decided" true (denied o3);
  let s = Pep.stats fx.pep1 in
  check int_ "no stale cache answered" 1 s.Pep.cache_hits;
  check int_ "the third request went live" 2 s.Pep.pdp_calls

(* --- targeted invalidation from change-impact regions ------------------- *)

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
  check int_ "an empty region drops nothing" 0 (Decision_cache.invalidate_region c Delta.Empty)

let test_region_unbounded_flush () =
  (* A first publish (no previous tree) has no bound at all. *)
  let root = Policy.Inline_policy (Policy.make ~id:"p" (region_rules [])) in
  check bool_ "appearance of a policy is unbounded" true (Delta.is_unbounded (Delta.between None (Some root)));
  let c = Decision_cache.create ~ttl:60.0 () in
  List.iter
    (fun r -> Decision_cache.put c ~now:0.0 ~key:(rkey r) Decision.permit)
    [ "chart"; "lab" ];
  check int_ "unbounded drops everything" 2 (Decision_cache.invalidate_region c Delta.unbounded);
  check int_ "L1 emptied" 0 (Decision_cache.size c)

(* Traces name the purge kind: an unbounded region records
   [l2:invalidate-all], as the full flush did before it was a region,
   and a bounded one records [l2:invalidate-region]. *)
let test_region_trace_events () =
  let net = Net.create ~seed:37L () in
  let services = Service.create (Rpc.create net) in
  Net.add_node net "root";
  let root = Cache_hierarchy.L2.create services ~node:"root" ~ttl:60.0 () in
  let tracer = Service.tracer services in
  Trace.set_enabled tracer true;
  Cache_hierarchy.L2.invalidate_region root Delta.Empty;
  check bool_ "an empty region records nothing" false
    (contains (Trace.render_tree tracer) "l2:invalidate");
  Cache_hierarchy.L2.invalidate_region root Delta.unbounded;
  let tree = Trace.render_tree tracer in
  check bool_ "unbounded records invalidate-all" true (contains tree "l2:invalidate-all root");
  check bool_ "and no region event" false (contains tree "l2:invalidate-region");
  Cache_hierarchy.L2.invalidate_region root lab_region;
  check bool_ "a bounded region records invalidate-region" true
    (contains (Trace.render_tree tracer) "l2:invalidate-region root")

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
  check int_ "the purged entry was not resurrected" 0 (Cache_hierarchy.L2.stats l2).size;
  (* A put composed after the purge is accepted as usual. *)
  Engine.schedule_at (Net.engine net) ~at:6.0 (fun () ->
      Cache_hierarchy.L2.remote_put services ~src:seeder ~l2:"l2" ~key:(rkey "lab") Decision.permit);
  Engine.run (Net.engine net) ~until:10.0;
  check int_ "no further rejections" 1 (Cache_hierarchy.L2.rejected_puts l2);
  check int_ "post-purge put stored" 1 (Cache_hierarchy.L2.stats l2).size

(* Only a stamped put can be ordered against a purge.  Raw cache-put
   frames sent after one, without a SentAt or with one that is not a
   finite decimal, are dropped by the reader before any stamp is
   compared — a NaN stamp compares below no purge time, so it would
   otherwise land — and nothing answers them.  A stamped put sent after
   the purge still lands. *)
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
  List.iter
    (fun stamp ->
      Engine.schedule_at (Net.engine net) ~at:2.0 (fun () ->
          Service.cast services ~src:sender ~dst:"l2" Wire.Services.cache_put (fun buf ->
              Buffer.add_string buf "<CachePut Key=\"";
              Dacs_xml.Xml.add_escaped buf (rkey "lab");
              Buffer.add_string buf ("\"" ^ stamp ^ ">");
              Dacs_policy.Xacml_xml.write_result buf Decision.permit;
              Buffer.add_string buf "</CachePut>")))
    [ ""; " SentAt=\"x\""; " SentAt=\"nan\""; " SentAt=\"inf\"" ];
  Engine.run (Net.engine net) ~until:5.0;
  check int_ "every put was sent" 4 (sent_count net "cache-put");
  check int_ "no fault sent back" 0 (sent_count net "cache-put-reply");
  check int_ "no put stored" 0 (Cache_hierarchy.L2.stats l2).Cache_hierarchy.L2.puts;
  check int_ "none reached the stamp check" 0 (Cache_hierarchy.L2.rejected_puts l2);
  check int_ "nothing resurrected" 0 (Cache_hierarchy.L2.stats l2).size;
  Engine.schedule_at (Net.engine net) ~at:6.0 (fun () ->
      Cache_hierarchy.L2.remote_put services ~src:sender ~l2:"l2" ~key:(rkey "lab") Decision.permit);
  Engine.run (Net.engine net) ~until:10.0;
  check int_ "a stamped put lands" 1 (Cache_hierarchy.L2.stats l2).size;
  check int_ "and is not rejected" 0 (Cache_hierarchy.L2.rejected_puts l2)

(* --- one-way frames on the security paths -------------------------------- *)

(* A put travels one way: nothing answers it, so the put-before-purge
   check stands alone.  A stamped put sent at t=1 over a slow link lands
   after the purge at t=1.5 and is rejected without a word back. *)
let test_one_way_put_race () =
  let net = Net.create ~seed:27L () in
  let services = Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let l2 = Cache_hierarchy.L2.create services ~node:(add "l2") ~ttl:60.0 () in
  let seeder = add "seeder" in
  Net.set_latency net "seeder" "l2" 1.0;
  Engine.schedule_at (Net.engine net) ~at:1.0 (fun () ->
      Service.cast services ~src:seeder ~dst:"l2" Wire.Services.cache_put (fun buf ->
          Wire.write_cache_put ~sent_at:(Net.now net) buf ~key:(rkey "lab") Decision.permit));
  Engine.schedule_at (Net.engine net) ~at:1.5 (fun () ->
      Cache_hierarchy.L2.invalidate_region l2 lab_region);
  Engine.run (Net.engine net) ~until:5.0;
  check int_ "the in-flight put was rejected" 1 (Cache_hierarchy.L2.rejected_puts l2);
  check int_ "the purged entry was not resurrected" 0 (Cache_hierarchy.L2.stats l2).size;
  check int_ "the put was sent" 1 (sent_count net "cache-put");
  check int_ "nothing answered it" 0 (sent_count net "cache-put-reply")

(* A PEP that misses its L1 and the L2 decides live and publishes the
   answer to the L2 in exactly one message, which nothing answers. *)
let test_l2_miss_sends_one_put () =
  let fx = setup_l2 () in
  let o = ref None in
  l2_request fx ~pep:"pep1" ~at:1.0 o;
  Net.run fx.net;
  check bool_ "granted live" true (granted o);
  check int_ "one put" 1 (sent_count fx.net "cache-put");
  check int_ "no put reply" 0 (sent_count fx.net "cache-put-reply");
  check int_ "stored" 1 (Cache_hierarchy.L2.stats fx.l2).size

(* --- one shape per service --------------------------------------------------- *)

(* The four notification services are one-way: a call naming one fails
   at once with no-such-service and runs nothing, whoever sends it; a
   one-way frame to a request/reply service runs nothing either; and a
   one-way body the service's reader rejects is dropped unanswered.  A
   typed node cannot send the first two (its declarations do not let
   it), so they come from an untyped peer writing raw frames in a SOAP
   envelope: the bus's own shape checks are what stop them. *)

let no_such_service service = function
  | Some (Error (Rpc.No_such_service s)) -> s = service
  | _ -> false

let soap buf write = Dacs_ws.Soap.write buf write

(* An untyped peer's call to [service] at [dst]: its result. *)
let call_notification services net ~src ~dst ~service write =
  let answer = ref None in
  Rpc.call_frame (Service.rpc services) ~src ~dst ~service ~envelope:soap write (fun r ->
      answer := Some (Result.map Rpc.slice_to_string r));
  Net.run net;
  !answer

let test_call_to_cache_put () =
  let fx = setup_l2 () in
  let answer =
    call_notification fx.services fx.net ~src:"pep1" ~dst:"l2" ~service:"cache-put" (fun buf ->
        Wire.write_cache_put ~sent_at:(Net.now fx.net) buf ~key:(rkey "lab") Decision.permit)
  in
  check bool_ "the call fails with no-such-service" true (no_such_service "cache-put" answer);
  check int_ "nothing stored" 0 (Cache_hierarchy.L2.stats fx.l2).Cache_hierarchy.L2.puts;
  check int_ "the L2 stays empty" 0 (Cache_hierarchy.L2.stats fx.l2).size;
  check int_ "nothing pending" 0 (Rpc.calls_in_flight (Service.rpc fx.services))

let test_call_to_attribute_invalidate () =
  let fx = setup () in
  let o1 = ref None in
  request fx ~at:1.0 o1;
  Net.run fx.net;
  check bool_ "granted" true (granted o1);
  let answer =
    call_notification fx.services fx.net ~src:"pip" ~dst:"pdp" ~service:"attribute-invalidate" (fun buf ->
        Wire.write_attribute_invalidate buf ~subject:"alice" ~attribute_id:"role")
  in
  check bool_ "even the PIP's call fails with no-such-service" true
    (no_such_service "attribute-invalidate" answer);
  let o2 = ref None in
  request fx ~at:10.0 o2;
  Net.run fx.net;
  check bool_ "granted from the cached bags" true (granted o2);
  check int_ "no attribute refetched" 3 (Pip.lookups_served fx.pip)

let test_call_to_attribute_subscribe () =
  let net = Net.create ~seed:5L () in
  let services = Service.create (Rpc.create net) in
  List.iter (Net.add_node net) [ "pip"; "pdp" ];
  let pip = Pip.create services ~node:"pip" in
  let answer =
    call_notification services net ~src:"pdp" ~dst:"pip" ~service:"attribute-subscribe"
      Wire.write_attribute_subscribe
  in
  check bool_ "the call fails with no-such-service" true (no_such_service "attribute-subscribe" answer);
  check int_ "nobody subscribed" 0 (subscribers_reached net pip);
  Service.cast services ~src:"pdp" ~dst:"pip" Wire.Services.attribute_subscribe Wire.write_attribute_subscribe;
  Net.run net;
  check int_ "the one-way subscribe lands" 1 (subscribers_reached net pip)

(* A PAP whose admin policy admits every caller. *)
let open_pap services ~node =
  let admin = Policy.Inline_policy (Policy.make ~id:"admin" [ Rule.permit "anyone" ]) in
  Pap.create services ~node ~name:node ~admin_policy:admin ()

let test_call_to_policy_update () =
  let net = Net.create ~seed:5L () in
  let services = Service.create (Rpc.create net) in
  List.iter (Net.add_node net) [ "pap"; "parent" ];
  let pap = open_pap services ~node:"pap" in
  let answer =
    call_notification services net ~src:"parent" ~dst:"pap" ~service:"policy-update" (fun buf ->
        Wire.write_policy_update buf ~version:1 doctor_policy)
  in
  check bool_ "the call fails with no-such-service" true (no_such_service "policy-update" answer);
  check int_ "the version stays" 0 (Pap.version pap);
  check int_ "nothing accepted" 0 (Pap.updates_accepted pap);
  check int_ "nothing refused" 0 (Pap.updates_rejected pap)

let test_cast_to_cache_lookup () =
  let fx = setup_l2 () in
  (* The PEPs' subscriptions are the fixture's own traffic. *)
  Net.run fx.net;
  Net.reset_stats fx.net;
  Rpc.cast_frame (Service.rpc fx.services) ~src:"pep1" ~dst:"l2" ~service:"cache-lookup" ~envelope:soap (fun buf ->
      Wire.write_cache_lookup buf ~key:(rkey "lab"));
  Net.run fx.net;
  check int_ "no lookup ran" 0 (Cache_hierarchy.L2.stats fx.l2).Cache_hierarchy.L2.lookups;
  check bool_ "nothing sent back" true (List.map fst (Net.stats_by_category fx.net) = [ "cache-lookup" ])

let test_garbled_policy_update_dropped () =
  let net = Net.create ~seed:5L () in
  let services = Service.create (Rpc.create net) in
  List.iter (Net.add_node net) [ "pap"; "parent" ];
  let pap = open_pap services ~node:"pap" in
  (* A PolicyUpdate must carry exactly one policy. *)
  Service.cast services ~src:"parent" ~dst:"pap" Wire.Services.policy_update (fun buf ->
      Buffer.add_string buf "<PolicyUpdate Version=\"1\"/>");
  Net.run net;
  check int_ "the version stays" 0 (Pap.version pap);
  check int_ "nothing accepted" 0 (Pap.updates_accepted pap);
  check int_ "dropped before the admin check" 0 (Pap.updates_rejected pap);
  check bool_ "nothing sent back" true (List.map fst (Net.stats_by_category net) = [ "policy-update" ]);
  Service.cast services ~src:"parent" ~dst:"pap" Wire.Services.policy_update (fun buf ->
      Wire.write_policy_update buf ~version:1 doctor_policy);
  Net.run net;
  check int_ "a well-formed update is accepted" 1 (Pap.updates_accepted pap)

let test_garbled_invalidation_dropped () =
  let fx = setup () in
  let o1 = ref None in
  request fx ~at:1.0 o1;
  Net.run fx.net;
  check bool_ "granted" true (granted o1);
  Service.cast fx.services ~src:"pip" ~dst:"pdp" Wire.Services.attribute_invalidate (fun buf ->
      Buffer.add_string buf "<AttributeInvalidate Subject=\"alice\"/>");
  Net.run fx.net;
  check int_ "no answer sent" 0 (sent_count fx.net "attribute-invalidate-reply");
  let o2 = ref None in
  request fx ~at:10.0 o2;
  Net.run fx.net;
  check bool_ "granted from the cached bags" true (granted o2);
  check int_ "no attribute refetched" 3 (Pip.lookups_served fx.pip)

let test_garbled_subscribe_dropped () =
  let net = Net.create ~seed:5L () in
  let services = Service.create (Rpc.create net) in
  List.iter (Net.add_node net) [ "pip"; "pdp" ];
  let pip = Pip.create services ~node:"pip" in
  Service.cast services ~src:"pdp" ~dst:"pip" Wire.Services.attribute_subscribe (fun buf ->
      Buffer.add_string buf "<Subscribe/>");
  Net.run net;
  check int_ "nobody subscribed" 0 (subscribers_reached net pip);
  check bool_ "nothing sent back" true (List.map fst (Net.stats_by_category net) = [ "attribute-subscribe" ])

(* A PEP on node "pep" whose live rung reaches the single PDP "pdp",
   through an ordered tier or a one-shard rendezvous tier — the two tier
   shapes under the one decision ladder. *)
let pep_over_pdp services ~sharded ~resource cache =
  let tier =
    if sharded then Pdp_tier.create services ~node:"pep" ~shards:[ "pdp" ] ()
    else Pdp_tier.ordered services ~node:"pep" ~pdps:[ "pdp" ] ~call_timeout:5.0
  in
  Pep.create services ~node:"pep" ~domain:"d" ~resource (Pep.Sharded { tier; cache })

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
(* A digest from [src] to [dst] listing [keys], as an L2 would cast it. *)
let announce services ~src ~dst keys =
  Service.cast services ~src ~dst Wire.Services.cache_digest (fun buf ->
      Wire.write_cache_digest buf ~capacity:4096 (List.map Cache_hierarchy.fingerprint keys))

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
  (* The L2 lists the key without holding it, so the descent asks and
     misses. *)
  announce services ~src:"l2" ~dst:"pep" [ rkey "lab" ];
  Net.run net;
  let answer = ref None in
  Pep.decide_explained pep (rctx "lab") (fun r p ->
      answer := Some (r.Decision.decision, p.Provenance.stage));
  Net.run net;
  check bool_ "the overloaded PDP answered Indeterminate live" true
    (match !answer with Some (Decision.Indeterminate _, Provenance.Live) -> true | _ -> false);
  let st = Cache_hierarchy.L2.stats l2 in
  check int_ "the L2 was consulted" 1 st.Cache_hierarchy.L2.lookups;
  check int_ "no cache-put reached the L2" 0 st.Cache_hierarchy.L2.puts

(* A fresh L1 hit is the ladder's synchronous rung: the answer arrives
   before Pep.decide returns, with no engine event and no message. *)
let test_fresh_l1_hit_is_synchronous ~sharded () =
  let net = Net.create ~seed:37L () in
  let services = Service.create (Rpc.create net) in
  Net.add_node net "pdp";
  ignore (Pdp_service.create services ~node:"pdp" ~name:"pdp" ~root:region_base ());
  Net.add_node net "pep";
  let pep =
    pep_over_pdp services ~sharded ~resource:"lab" (Some (Decision_cache.create ~ttl:60.0 ()))
  in
  let cold = ref None in
  Pep.decide pep (rctx "lab") (fun r -> cold := Some r.Decision.decision);
  check bool_ "a cold decide waits for the live answer" true (!cold = None);
  Net.run net;
  check bool_ "the live answer fills L1" true (!cold = Some Decision.Permit);
  let sent = (Net.total_sent net).Net.count in
  let warm = ref None in
  Pep.decide pep (rctx "lab") (fun r -> warm := Some r.Decision.decision);
  check bool_ "the warm decide answered before returning" true (!warm = Some Decision.Permit);
  check int_ "from L1" 1 (Pep.stats pep).Pep.cache_hits;
  Net.run net;
  check int_ "without a message" sent (Net.total_sent net).Net.count

(* --- the whole hierarchy under revocation ------------------------------- *)

(* [doctor_policy] plus a rule confined to resource "lab": the publish
   between the two has a region pinned to resource-id {lab}. *)
let doctor_lab_policy =
  Policy.Inline_policy
    (Policy.make ~id:"doctor" ~issuer:"d" ~rule_combining:Combine.First_applicable
       [
         Rule.permit
           ~target:Target.(any |> subject_is "role" "doctor" |> action_is "action-id" "read")
           "permit-doctor-read";
         Rule.permit ~target:Target.(any |> resource_is "resource-id" "lab") "lab-bonus";
         Rule.deny "default-deny";
       ])

let test_vo_revocation_round () =
  let net = Net.create ~seed:21L () in
  let services = Service.create (Rpc.create net) in
  let da = Domain.create services ~name:"hospital" () in
  let db = Domain.create services ~name:"lab" () in
  let vo = Vo.form services ~name:"vo" [ da; db ] in
  Vo.publish_policy vo doctor_policy;
  Net.run net;
  Domain.register_user da ~user:"alice"
    [ ("subject-id", Value.String "alice"); ("role", Value.String "doctor") ];
  let l1 = Decision_cache.create ~ttl:60.0 () in
  let pep = Domain.expose_resource da ~resource:"chart" ~cache:l1 () in
  Vo.cache_hierarchy vo ~ttl:60.0 ();
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
  (* A bounded publish first: a rule confined to resource "lab" joins
     the VO policy.  Every level holds one seeded "lab" entry beside
     entries for "chart"; the region must drop exactly the "lab" one at
     both domain L2s and in the PEP's L1. *)
  (* Vo.cache_hierarchy attached every member's L2; attaching again
     returns it. *)
  let l2s = List.map (fun d -> Domain.attach_l2 d ~ttl:60.0 ()) (Vo.domains vo) in
  let sizes () =
    Decision_cache.size l1 :: List.map (fun l2 -> (Cache_hierarchy.L2.stats l2).size) l2s
  in
  Net.add_node net "seeder";
  Engine.schedule_at (Net.engine net) ~at:(t0 +. 12.0) (fun () ->
      List.iter
        (fun r ->
          Decision_cache.put l1 ~now:(Net.now net) ~key:(rkey r) Decision.permit;
          List.iter
            (fun l2 ->
              Cache_hierarchy.L2.remote_put services ~src:"seeder" ~l2:(Cache_hierarchy.L2.node l2)
                ~key:(rkey r) Decision.permit)
            l2s)
        [ "chart"; "lab" ]);
  let before = ref [] and after = ref [] in
  Engine.schedule_at (Net.engine net) ~at:(t0 +. 13.0) (fun () ->
      before := sizes ();
      Vo.publish_policy vo doctor_lab_policy);
  Engine.schedule_at (Net.engine net) ~at:(t0 +. 17.0) (fun () -> after := sizes ());
  Engine.run (Net.engine net) ~until:(t0 +. 19.0);
  check bool_ "granted live, then from cache" true (granted o1 && granted o2);
  check bool_ "second answer came from a cache level" true
    (let s = Pep.stats pep in
     s.Pep.cache_hits + s.Pep.l2_hits >= 1);
  check bool_ "every level held its seeded entries" true (List.for_all (fun n -> n >= 2) !before);
  check (Alcotest.list int_) "the bounded publish dropped one entry per level"
    (List.map pred !before) !after;
  check bool_ "the lab entry left L1" true (Decision_cache.get l1 ~now:(Net.now net) ~key:(rkey "lab") = None);
  check bool_ "the chart entry stayed in L1" true
    (Decision_cache.get l1 ~now:(Net.now net) ~key:(rkey "chart") <> None);
  (* Revoke: the PIP drops the role, and the capability revocation is
     what purges every member's decision caches.  The PIP revocation
     alone purges no L1 or L2 entry (ROADMAP item 10): without
     [Vo.revoke_capability] the cached grant outlives it until its TTL. *)
  Engine.schedule_at (Net.engine net) ~at:(t0 +. 20.0) (fun () ->
      Pip.remove_subject_attribute (Domain.pip da) ~subject:"alice" ~id:"role";
      Vo.revoke_capability vo ~assertion_id:"cap-1");
  (* Sample L2 occupancy after the invalidation round settles but before
     the next request re-populates the caches (with its deny). *)
  let l2_sizes_after_round = ref [] in
  Engine.schedule_at (Net.engine net) ~at:(t0 +. 25.0) (fun () ->
      l2_sizes_after_round := List.map (fun l2 -> (Cache_hierarchy.L2.stats l2).size) l2s);
  ask 30.0 o3;
  Engine.run (Net.engine net) ~until:(t0 +. 50.0);
  check bool_ "no cache level still serves the grant" true (denied o3);
  let s = Pep.stats pep in
  check int_ "exactly the two pre-revocation grants" 2 s.Pep.granted;
  (* L2s across the whole VO were purged by the round. *)
  List.iter
    (fun size -> check bool_ "member L2 emptied" true (size = 0))
    !l2_sizes_after_round

(* --- purges along the syndication hierarchy ------------------------------ *)

(* No cache purges another over the network: each member domain purges
   its own caches when its PAP accepts an update, pushed by the VO PAP or
   pulled by anti-entropy, so a purge reaches exactly the members the
   policy reaches, and a lost purge is repaired with the lost policy. *)

let run_for net dt = Net.run ~until:(Net.now net +. dt) net
let member_l2s vo = List.map (fun d -> Domain.attach_l2 d ~ttl:60.0 ()) (Vo.domains vo)
let l2_sizes vo = List.map (fun l2 -> (Cache_hierarchy.L2.stats l2).size) (member_l2s vo)
let pap_versions vo = List.map (fun d -> Pap.version (Domain.pap d)) (Vo.domains vo)
let sizes_list = Alcotest.list int_

(* [doctor_policy]'s rules replaced by an untargeted deny: the change's
   region has a zone with no pins, which covers every request. *)
let lockdown_policy =
  Policy.Inline_policy (Policy.make ~id:"doctor" ~issuer:"d" [ Rule.deny "deny-all" ])

(* A VO of two members under [doctor_policy], the cache hierarchy
   attached (unless [hierarchy] is false) and its first polls settled. *)
let setup_vo ?(hierarchy = true) () =
  let net = Net.create ~seed:41L () in
  let services = Service.create (Rpc.create net) in
  let members = [ Domain.create services ~name:"hospital" (); Domain.create services ~name:"lab" () ] in
  let vo = Vo.form services ~name:"vo" members in
  Vo.publish_policy vo doctor_policy;
  Net.run net;
  if hierarchy then Vo.cache_hierarchy vo ~ttl:60.0 ();
  Net.add_node net "seeder";
  run_for net 1.0;
  (net, services, vo)

(* A permit for each resource in every member L2, put over the wire. *)
let seed_l2s net services vo resources =
  Engine.schedule_at (Net.engine net) ~at:(Net.now net +. 0.1) (fun () ->
      List.iter
        (fun l2 ->
          List.iter
            (fun r ->
              Cache_hierarchy.L2.remote_put services ~src:"seeder" ~l2:(Cache_hierarchy.L2.node l2)
                ~key:(rkey r) Decision.permit)
            resources)
        (member_l2s vo));
  run_for net 1.0

let test_invalidation_fanout () =
  let net, services, vo = setup_vo () in
  seed_l2s net services vo [ "chart"; "lab" ];
  check sizes_list "both members seeded" [ 2; 2 ] (l2_sizes vo);
  let purges () =
    List.map (fun l2 -> (Cache_hierarchy.L2.stats l2).Cache_hierarchy.L2.invalidations) (member_l2s vo)
  in
  let purged = purges () in
  (* The same tree again: every member accepts it, and its empty region
     drops nothing anywhere. *)
  let v0 = pap_versions vo in
  Vo.publish_policy vo doctor_policy;
  run_for net 1.0;
  check sizes_list "every member accepted the republish" (List.map succ v0) (pap_versions vo);
  check sizes_list "an empty region drops nothing" [ 2; 2 ] (l2_sizes vo);
  check sizes_list "nor counts a purge" purged (purges ());
  (* One publish at the VO PAP: each member purges once, on its own. *)
  Vo.publish_policy vo lockdown_policy;
  run_for net 1.0;
  check sizes_list "the full purge reached both members" [ 0; 0 ] (l2_sizes vo);
  check sizes_list "one purge per member" (List.map succ purged) (purges ())

(* A policy-update from a node the member's admin policy does not name
   is refused and purges nothing; the VO PAP's own push still lands. *)
let test_purge_only_from_parent () =
  let net, services, vo = setup_vo () in
  seed_l2s net services vo [ "chart" ];
  let member = Domain.pap (List.hd (Vo.domains vo)) in
  let v0 = Pap.version member in
  Net.add_node net "mallory";
  Engine.schedule_at (Net.engine net) ~at:(Net.now net +. 0.1) (fun () ->
      Service.cast services ~src:"mallory" ~dst:(Pap.node member) Wire.Services.policy_update (fun buf ->
          Wire.write_policy_update buf ~version:99 lockdown_policy));
  run_for net 1.0;
  check int_ "the stranger's update is refused" 1 (Pap.updates_rejected member);
  check int_ "the member PAP kept its policy" v0 (Pap.version member);
  check sizes_list "nothing purged" [ 1; 1 ] (l2_sizes vo);
  Vo.publish_policy vo lockdown_policy;
  run_for net 1.0;
  check sizes_list "the VO PAP's push purges" [ 0; 0 ] (l2_sizes vo)

(* A member that is only polled, never subscribed, accepts a push from
   its anti-entropy parent and purges; the same version pushed again was
   adopted already, so it is neither accepted nor refused, and purges
   nothing. *)
let test_purge_from_anti_entropy_parent () =
  let net = Net.create ~seed:31L () in
  let services = Service.create (Rpc.create net) in
  Net.add_node net "parent";
  Net.add_node net "seeder";
  ignore (Pap.create services ~node:"parent" ~name:"parent" ());
  let d = Domain.create services ~name:"child" () in
  let l2 = Domain.attach_l2 d ~ttl:60.0 () in
  Domain.allow_policy_updates_from d [ "parent" ];
  let member = Domain.pap d in
  Pap.enable_anti_entropy member ~parent:"parent" ~period:2.0;
  let seed () =
    Engine.schedule_at (Net.engine net) ~at:(Net.now net +. 0.1) (fun () ->
        Cache_hierarchy.L2.remote_put services ~src:"seeder" ~l2:(Cache_hierarchy.L2.node l2) ~key:(rkey "chart")
          Decision.permit);
    run_for net 0.5
  in
  let push ~src =
    Engine.schedule_at (Net.engine net) ~at:(Net.now net +. 0.1) (fun () ->
        Service.cast services ~src ~dst:(Pap.node member) Wire.Services.policy_update (fun buf ->
            Wire.write_policy_update buf ~version:1 doctor_policy));
    run_for net 0.5
  in
  seed ();
  push ~src:"seeder";
  check int_ "a non-parent's push is refused" 1 (Pap.updates_rejected member);
  check int_ "and leaves the version" 0 (Pap.version member);
  check int_ "nothing purged" 1 (Cache_hierarchy.L2.stats l2).size;
  push ~src:"parent";
  check int_ "the polled parent's push is accepted" 1 (Pap.version member);
  check int_ "the push purged" 0 (Cache_hierarchy.L2.stats l2).size;
  check int_ "one update accepted" 1 (Pap.updates_accepted member);
  seed ();
  push ~src:"parent";
  check int_ "a known version is not accepted again" 1 (Pap.updates_accepted member);
  check int_ "nor refused" 1 (Pap.updates_rejected member);
  check int_ "so the version stays" 1 (Pap.version member);
  check int_ "and nothing is purged" 1 (Cache_hierarchy.L2.stats l2).size

(* The push to one member is lost to a partition; the other purges at
   once, and the cut-off member's next poll after the heal pulls the
   policy and purges.  A poll that times out waits one more period, so
   the repair lands within a period plus the call timeout. *)
let lost_push_round next =
  let net, services, vo = setup_vo () in
  seed_l2s net services vo [ "chart"; "lab" ];
  let cut = Domain.pap (List.hd (Vo.domains vo)) in
  let v0 = pap_versions vo in
  Net.partition net [ Pap.node (Vo.vo_pap vo) ] [ Pap.node cut ];
  Vo.publish_policy vo next;
  run_for net 2.0;
  let during = (pap_versions vo, l2_sizes vo) in
  Net.unpartition net [ Pap.node (Vo.vo_pap vo) ] [ Pap.node cut ];
  run_for net 6.5;
  (v0, during, net, vo)

let test_anti_entropy_backstop () =
  let v0, (versions, sizes), _, vo = lost_push_round lockdown_policy in
  check sizes_list "only the reachable member accepted" [ List.hd v0; List.nth v0 1 + 1 ] versions;
  check sizes_list "only the reachable member purged" [ 2; 0 ] sizes;
  check sizes_list "the poll applied the missed purge" [ 0; 0 ] (l2_sizes vo);
  check int_ "by pulling the missed policy" (List.hd v0 + 1) (List.hd (pap_versions vo))

let test_region_anti_entropy_repair () =
  let v0, (_, sizes), net, vo = lost_push_round doctor_lab_policy in
  check sizes_list "the reachable member dropped the lab entry" [ 2; 1 ] sizes;
  check int_ "the cut-off member pulled the policy" (List.hd v0 + 1) (List.hd (pap_versions vo));
  (* The pull purges the update's own region, not everything. *)
  check sizes_list "the poll repaired the lost region push" [ 1; 1 ] (l2_sizes vo);
  let l2 = List.hd (member_l2s vo) in
  let cached r =
    let got = ref None in
    Net.add_node net "probe";
    Engine.schedule_at (Net.engine net) ~at:(Net.now net +. 0.1) (fun () ->
        Cache_hierarchy.L2.remote_lookup (Vo.services vo) ~src:"probe" ~l2:(Cache_hierarchy.L2.node l2)
          ~key:(rkey r) (fun a -> got := Some a));
    run_for net 0.5;
    match !got with Some (Some _) -> true | _ -> false
  in
  check bool_ "the chart entry stayed" true (cached "chart");
  check bool_ "the lab entry left" false (cached "lab")

(* A member whose local constraints decline an update stores nothing,
   so it purges nothing either; the other member purges as usual. *)
let test_declined_update_purges_nothing () =
  let net, services, vo = setup_vo () in
  seed_l2s net services vo [ "chart"; "lab" ];
  let declining = Domain.pap (List.hd (Vo.domains vo)) in
  Pap.set_update_transform declining (fun _ -> None);
  let v0 = Pap.version declining in
  Vo.publish_policy vo lockdown_policy;
  run_for net 1.0;
  check int_ "the push was refused" 1 (Pap.updates_rejected declining);
  check int_ "the declining member kept its version" v0 (Pap.version declining);
  check sizes_list "only the accepting member purged" [ 2; 0 ] (l2_sizes vo)

(* [Vo.cache_hierarchy] twice is once: the same L2s, one poll per member
   per period. *)
let test_hierarchy_idempotent () =
  let polls ~twice =
    let net, _, vo = setup_vo () in
    let l2s = member_l2s vo in
    if twice then Vo.cache_hierarchy vo ~ttl:60.0 ();
    check bool_ "the same L2s" true (List.for_all2 ( == ) l2s (member_l2s vo));
    let q0 = Pap.queries_served (Vo.vo_pap vo) in
    run_for net 20.0;
    Pap.queries_served (Vo.vo_pap vo) - q0
  in
  let once = polls ~twice:false in
  check int_ "four polls per member in 20 s" 8 once;
  check int_ "a second attach adds no poll" once (polls ~twice:true)

(* [Domain.purge] is the one cache purge: the region leaves the L2 and
   every PEP's L1 alike, and an empty region leaves both alone. *)
let seeded_domain ~l2 =
  let net = Net.create ~seed:43L () in
  let services = Service.create (Rpc.create net) in
  let d = Domain.create services ~name:"hospital" () in
  let l1s = [ Decision_cache.create ~ttl:60.0 (); Decision_cache.create ~ttl:60.0 () ] in
  List.iteri
    (fun i cache -> ignore (Domain.expose_resource d ~resource:(Printf.sprintf "r%d" i) ~cache () : Pep.t))
    l1s;
  let l2 = if l2 then Some (Domain.attach_l2 d ~ttl:60.0 ()) else None in
  Net.add_node net "seeder";
  Engine.schedule_at (Net.engine net) ~at:(Net.now net +. 0.1) (fun () ->
      List.iter
        (fun r ->
          List.iter (fun c -> Decision_cache.put c ~now:(Net.now net) ~key:(rkey r) Decision.permit) l1s;
          Option.iter
            (fun l2 ->
              Cache_hierarchy.L2.remote_put services ~src:"seeder" ~l2:(Cache_hierarchy.L2.node l2) ~key:(rkey r)
                Decision.permit)
            l2)
        [ "chart"; "lab" ]);
  Net.run net;
  let sizes () =
    List.map Decision_cache.size l1s
    @ Option.to_list (Option.map (fun l2 -> (Cache_hierarchy.L2.stats l2).size) l2)
  in
  (d, l1s, sizes)

let test_domain_purge_every_level () =
  let d, l1s, sizes = seeded_domain ~l2:true in
  check sizes_list "every level seeded" [ 2; 2; 2 ] (sizes ());
  Domain.purge d Delta.Empty;
  check sizes_list "an empty region drops nothing" [ 2; 2; 2 ] (sizes ());
  Domain.purge d lab_region;
  check sizes_list "the region left every level" [ 1; 1; 1 ] (sizes ());
  List.iter
    (fun c -> check bool_ "the chart entry stayed in L1" true (Decision_cache.get c ~now:1.0 ~key:(rkey "chart") <> None))
    l1s;
  Domain.purge d Delta.unbounded;
  check sizes_list "an unbounded region empties every level" [ 0; 0; 0 ] (sizes ())

let test_domain_purge_without_l2 () =
  let d, _, sizes = seeded_domain ~l2:false in
  check sizes_list "both L1s seeded" [ 2; 2 ] (sizes ());
  Domain.purge d Delta.unbounded;
  check sizes_list "the PEP L1s purge all the same" [ 0; 0 ] (sizes ())

(* A revoked capability purges every member's PEP caches even when no
   cache hierarchy is attached. *)
let test_revocation_without_hierarchy () =
  let net, _, vo = setup_vo ~hierarchy:false () in
  let l1 = Decision_cache.create ~ttl:60.0 () in
  ignore (Domain.expose_resource (List.hd (Vo.domains vo)) ~resource:"chart" ~cache:l1 () : Pep.t);
  check bool_ "no member L2" true
    (List.for_all (fun d -> not (List.mem (Domain.name d ^ ".l2") (Net.nodes net))) (Vo.domains vo));
  Decision_cache.put l1 ~now:(Net.now net) ~key:(rkey "chart") Decision.permit;
  Vo.revoke_capability vo ~assertion_id:"cap-1";
  check int_ "the member L1 was purged" 0 (Decision_cache.size l1)

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
        match_string c attr pin_strings.(v))
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
        ( { Target.subjects; resources; actions; environments },
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
      (1, return Delta.Empty);
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
      let doomed = reference_doomed region keys in
      let expected = List.filter (fun key -> not (List.mem key doomed)) keys in
      let dropped = Decision_cache.invalidate_region c region in
      let survivors = List.filter (fun key -> Decision_cache.get c ~now:1.0 ~key <> None) keys in
      if dropped <> List.length doomed || survivors <> expected then
        QCheck.Test.fail_reportf "dropped %d (reference %d), %d survivors (reference %d)" dropped
          (List.length doomed) (List.length survivors) (List.length expected);
      true)

(* --- the region census ------------------------------------------------- *)

(* What a cache's census must survive: fresh puts, TTL expiries,
   capacity evictions, Unbounded resets and Zones purges, interleaved,
   over a small vocabulary of keys (multi-valued and non-string bags
   from [gen_ctx], plus keys that do not parse).  One of them, the
   late key, names the first atom of a packed key and the next atom id;
   a [Mint] mints that atom (the packed key's pair, a fresh Integer), so
   a key unread at its put can become a mixed-type bag before it
   leaves.  Whether a purge skips the scan or not, it must drop exactly
   the keys [key_in_region] answers [true] for in a snapshot taken
   before it. *)
type census_op = Put of int | Tick of float | Get of int | Sweep | Reset | Purge of int | Mint

let census_packed = 8
let census_regions = 3

let gen_census_op =
  let open QCheck.Gen in
  frequency
    [
      (8, map (fun i -> Put i) (int_bound (census_packed - 1)));
      (1, map (fun i -> Put (census_packed + i)) (int_bound 1));
      (2, return (Put (census_packed + 2)));
      (1, return Mint);
      (2, map (fun d -> Tick d) (float_bound_inclusive 3.0));
      (3, map (fun i -> Get i) (int_bound (census_packed + 2)));
      (2, return Sweep);
      (1, return Reset);
      (4, map (fun r -> Purge r) (int_bound census_regions));
    ]

let census_minted = ref 1_000_000

let census_prop =
  QCheck.Test.make ~count:2000 ~name:"a purge drops exactly the keys in region, census or not"
    (QCheck.make
       ~print:(fun (_, malformed, regions, ops) ->
         Printf.sprintf "malformed %s, regions [%s], %d ops" (String.concat "," (List.map string_of_int malformed))
           (String.concat "; " (List.map Delta.to_string regions))
           (List.length ops))
       QCheck.Gen.(
         quad
           (list_repeat census_packed gen_ctx)
           (list_repeat 2 (int_bound 8))
           (list_repeat census_regions gen_region)
           (list_size (int_range 1 80) gen_census_op)))
    (fun (ctxs, malformed, regions, ops) ->
      let packed = List.map Decision_cache.request_key ctxs in
      let bad = Array.of_list (malformed_keys ()) in
      let late = (Intern.stats Intern.global).Intern.atoms in
      let first_atom =
        List.find_map
          (fun key -> match String.split_on_char '.' key with a :: _ when a <> "" -> Some a | _ -> None)
          packed
      in
      let late_key, late_pair, late_region =
        match first_atom with
        | Some a ->
          let pair, _ = Intern.atom_info Intern.global (int_of_string a) in
          (* A region pinning the late key's own string, the one its
             removal must not uncount. *)
          let region =
            let bindings c = Context.fold (fun cat id bag acc -> (cat, id, bag) :: acc) c [] in
            match Option.map bindings (Intern.decode_key a) with
            | Some [ (category, attr, [ Value.String v ]) ] ->
              Delta.Zones
                [ [ { Delta.pin_category = category; pin_attribute = attr; pin_values = [ v ];
                      pin_guards = [] } ] ]
            | _ -> Delta.Empty
          in
          (Printf.sprintf "%s.%d" a late, Some pair, region)
        | None -> (string_of_int late, None, Delta.Empty)
      in
      let keys = Array.of_list (packed @ List.map (fun i -> bad.(i)) malformed @ [ late_key ]) in
      let regions = Array.of_list (regions @ [ late_region ]) in
      let c = Decision_cache.create ~max_entries:5 ~ttl:5.0 () in
      let now = ref 0.0 in
      let live () =
        List.filter
          (fun key -> Decision_cache.lookup c ~now:!now ~max_stale:infinity ~key <> Decision_cache.Absent)
          (List.sort_uniq compare (Array.to_list keys))
      in
      List.iter
        (function
          | Put i -> Decision_cache.put c ~now:!now ~key:keys.(i) Decision.permit
          | Tick d -> now := !now +. d
          | Get i -> ignore (Decision_cache.lookup c ~now:!now ~max_stale:0.0 ~key:keys.(i))
          | Sweep ->
            Array.iter (fun key -> ignore (Decision_cache.lookup c ~now:!now ~max_stale:0.0 ~key)) keys
          | Reset -> ignore (Decision_cache.invalidate_region c Delta.unbounded)
          | Mint -> (
            match late_pair with
            | Some pair when (Intern.stats Intern.global).Intern.atoms = late ->
              incr census_minted;
              let category, attr = Intern.pair_info Intern.global pair in
              ignore
                (Decision_cache.request_key
                   (Context.add Context.empty category attr (Value.Int !census_minted)))
            | Some _ | None -> ())
          | Purge r ->
            let region = regions.(r) in
            let before = live () in
            let expected =
              match region with
              | Delta.Empty -> []
              | Delta.Unbounded -> before
              | Delta.Zones _ -> List.filter (reference_key_in_region region) before
            in
            let dropped = Decision_cache.invalidate_region c region in
            let after = live () in
            let gone = List.filter (fun key -> not (List.mem key after)) before in
            if dropped <> List.length expected || gone <> expected then
              QCheck.Test.fail_reportf "purge of %s dropped %d [%s], expected %d [%s]"
                (Delta.to_string region) dropped (String.concat "; " gone) (List.length expected)
                (String.concat "; " expected))
        ops;
      true)

(* A shared L2 may hold a key naming an atom id not minted yet when a
   peer put it, and the atom may be minted before the key leaves.  The
   census could not read the key at its put and counted nothing, so its
   removal must decrement nothing: here the late atom makes the key's
   role bag mixed-type, and decrementing it would zero the count of a
   value a live key still carries, so the next purge would skip the key
   it must drop. *)
let test_census_unread_key_asymmetry () =
  let table = Intern.global in
  (* A one-binding key is its one atom's sym. *)
  let key1 =
    Decision_cache.request_key
      (Context.make ~subject:[ ("role", Value.String "asym-carried") ] ())
  in
  let carried = int_of_string key1 in
  let region =
    Delta.Zones
      [ [ { Delta.pin_category = Context.Subject; pin_attribute = "role";
            pin_values = [ "asym-carried" ]; pin_guards = [] } ] ]
  in
  let c = Decision_cache.create ~max_entries:16 ~ttl:10.0 () in
  (* The first purge starts tracking the role pair. *)
  check int_ "nothing to drop yet" 0 (Decision_cache.invalidate_region c region);
  let late = (Intern.stats table).Intern.atoms in
  let key2 = Printf.sprintf "%d.%d" carried late in
  check bool_ "the peer's key does not parse at its put" true (Intern.decode_key key2 = None);
  Decision_cache.put c ~now:0.0 ~key:key2 Decision.permit;
  Decision_cache.put c ~now:5.0 ~key:key1 Decision.permit;
  check int_ "the late atom is minted" late
    (int_of_string
       (Decision_cache.request_key (Context.make ~subject:[ ("role", Value.Int 424_242) ] ())));
  check bool_ "the peer's key parses now" true (Intern.decode_key key2 <> None);
  (* The peer's key expires; the carried one stays live. *)
  check bool_ "the peer's key expired" true
    (Decision_cache.lookup c ~now:12.0 ~max_stale:0.0 ~key:key2 = Decision_cache.Absent);
  check int_ "one live key" 1 (Decision_cache.size c);
  check int_ "the live key carrying the value is dropped" 1 (Decision_cache.invalidate_region c region);
  check int_ "the cache is empty" 0 (Decision_cache.size c)

(* The skip itself: once a purge has counted a cache, a later purge of
   a region every live key provably misses visits no entry, and one
   that may hit a key scans. *)
let test_census_skips_missed_cache () =
  let c = Decision_cache.create ~max_entries:64 ~ttl:60.0 () in
  List.iter (fun r -> Decision_cache.put c ~now:0.0 ~key:(rkey r) Decision.permit) [ "chart"; "note"; "ward" ];
  check int_ "the first purge scans and drops nothing" 0 (Decision_cache.invalidate_region c lab_region);
  check int_ "one scan" 1 (Decision_cache.region_scans c);
  Decision_cache.put c ~now:0.0 ~key:(rkey "desk") Decision.permit;
  check int_ "a missed region drops nothing" 0 (Decision_cache.invalidate_region c lab_region);
  check int_ "and scans nothing" 1 (Decision_cache.region_scans c);
  check int_ "but counts as a purge" 2 (Decision_cache.purges c);
  Decision_cache.put c ~now:0.0 ~key:(rkey "lab") Decision.permit;
  check int_ "a key in the region is dropped" 1 (Decision_cache.invalidate_region c lab_region);
  check int_ "by a scan" 2 (Decision_cache.region_scans c);
  check int_ "the others survive" 4 (Decision_cache.size c)

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
    (Cache_hierarchy.L2.stats l2).size;
  Cache_hierarchy.L2.invalidate_region l2 lab_region;
  check int_ "only the packed keys survive" (List.length packed) (Cache_hierarchy.L2.stats l2).size;
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

(* --- cache summaries ------------------------------------------------------ *)

let l2_skips fx = Metrics.sum_counter (Service.metrics fx.services) "pep_l2_skips_total"
let l2_lookups fx = (Cache_hierarchy.L2.stats fx.l2).Cache_hierarchy.L2.lookups

(* pep1's put reaches the L2 at 1.020 and leaves in its next digest at
   1.120: pep2, asking at 1.05, has not heard of the key and goes
   straight to its tier; once the digest lands it asks the L2 and hits. *)
let test_summary_lists_after_digest () =
  let fx = setup_l2 () in
  let o1 = ref None and o2 = ref None in
  l2_request fx ~pep:"pep1" ~at:1.0 o1;
  l2_request fx ~pep:"pep2" ~at:1.05 o2;
  Net.run fx.net;
  check bool_ "both granted live" true (granted o1 && granted o2);
  check int_ "before the digest pep2 asked its tier" 1 (Pep.stats fx.pep2).Pep.pdp_calls;
  check int_ "and not the L2" 0 (l2_lookups fx);
  check int_ "both descents skipped the L2" 2 (l2_skips fx);
  ignore (Pep.invalidate_region fx.pep2 Delta.unbounded);
  let o3 = ref None in
  l2_request fx ~pep:"pep2" ~at:10.0 o3;
  Net.run fx.net;
  check bool_ "granted" true (granted o3);
  check int_ "after the digest pep2 hit the L2" 1 (Pep.stats fx.pep2).Pep.l2_hits;
  check int_ "and sent its tier nothing more" 1 (Pep.stats fx.pep2).Pep.pdp_calls;
  check int_ "no skip" 2 (l2_skips fx)

(* A digest is taken only from the PEP's own L2: the same frame from a
   stranger lists nothing, while from the L2 it sends the descent to
   ask (and miss: the L2 holds nothing). *)
let test_stranger_digest_ignored () =
  let fx = setup_l2 () in
  Net.add_node fx.net "mallory";
  announce fx.services ~src:"mallory" ~dst:"pep2" [ rkey "r" ];
  announce fx.services ~src:"l2" ~dst:"pep1" [ rkey "r" ];
  Net.run fx.net;
  let o1 = ref None and o2 = ref None in
  l2_request fx ~pep:"pep1" ~at:1.0 o1;
  l2_request fx ~pep:"pep2" ~at:1.0 o2;
  Net.run fx.net;
  check bool_ "both granted live" true (granted o1 && granted o2);
  check int_ "only pep1 asked the L2" 1 (l2_lookups fx);
  check int_ "pep2 skipped it" 1 (l2_skips fx);
  check int_ "both asked their tier" 2 ((Pep.stats fx.pep1).Pep.pdp_calls + (Pep.stats fx.pep2).Pep.pdp_calls)

(* A PEP attached after the L2 filled learns its live keys from the
   first digest. *)
let test_late_subscriber_learns_live_keys () =
  let fx = setup_l2 () in
  let o1 = ref None in
  l2_request fx ~pep:"pep1" ~at:1.0 o1;
  Net.run fx.net;
  let pep3 = l2_pep fx.net fx.services "pep3" in
  let o3 = ref None in
  l2_request fx ~pep:"pep3" ~at:20.0 o3;
  Net.run fx.net;
  check bool_ "granted" true (granted o3);
  check int_ "from the L2" 1 (Pep.stats pep3).Pep.l2_hits;
  check int_ "no tier query" 0 (Pep.stats pep3).Pep.pdp_calls

(* Ten capacities of announcements later the summary is the size it was
   made, still lists the latest capacity's worth, and lists few keys it
   was never told. *)
let test_summary_stays_bounded () =
  let capacity = 1024 in
  let s = Cache_hierarchy.Summary.create ~capacity in
  let words s = Obj.reachable_words (Obj.repr s) in
  (* Two filters of 8 bits per entry (a header and a padding word each)
     and the record. *)
  let bound capacity = (2 * ((capacity / 8) + 2)) + 6 in
  let size = words s in
  check bool_ (Printf.sprintf "8 bits per entry in each filter (%d words)" size) true (size <= bound capacity);
  let fp i = Cache_hierarchy.fingerprint (Printf.sprintf "key-%d" i) in
  for i = 0 to (10 * capacity) - 1 do
    Cache_hierarchy.Summary.add s (fp i)
  done;
  check int_ "no growth" size (words s);
  let listed = ref 0 in
  for i = 9 * capacity to (10 * capacity) - 1 do
    if Cache_hierarchy.Summary.mem s (fp i) then incr listed
  done;
  check int_ "the latest capacity's worth listed" capacity !listed;
  let wrong = ref 0 in
  for i = 20 * capacity to (30 * capacity) - 1 do
    if Cache_hierarchy.Summary.mem s (fp i) then incr wrong
  done;
  (* Two full filters list an absent key about 4.7 % of the time. *)
  check bool_ (Printf.sprintf "few unannounced keys listed (%d in %d)" !wrong (10 * capacity)) true
    (!wrong < capacity);
  check bool_ "an absurd capacity is clamped" true
    (words (Cache_hierarchy.Summary.create ~capacity:max_int) <= bound (1 lsl 18))

(* A crashed L2 sends no more digests: a key it announced costs a failed
   lookup, a key it never could goes straight to the tier, and every
   decision is still made live, as over an L2 that never answered. *)
let test_crashed_l2_decides_live () =
  let fx = setup_l2 () in
  let bob =
    Client.create fx.services ~node:"bob"
      ~subject:[ ("subject-id", Value.String "bob"); ("role", Value.String "doctor") ]
  in
  Net.add_node fx.net "bob";
  let o1 = ref None in
  l2_request fx ~pep:"pep1" ~at:1.0 o1;
  Net.run fx.net;
  Net.crash fx.net "l2";
  let o2 = ref None and ob1 = ref None and ob2 = ref None in
  l2_request fx ~pep:"pep2" ~at:20.0 o2;
  let ask ~pep ~at o =
    Engine.schedule_at (Net.engine fx.net) ~at (fun () ->
        Client.request bob ~pep ~action:"read" ~timeout:5.0 (fun r -> o := Some r))
  in
  ask ~pep:"pep1" ~at:30.0 ob1;
  ask ~pep:"pep2" ~at:32.0 ob2;
  Net.run fx.net;
  check bool_ "every decision granted" true (granted o1 && granted o2 && granted ob1 && granted ob2);
  let s2 = Pep.stats fx.pep2 in
  check int_ "no L2 hit" 0 s2.Pep.l2_hits;
  check int_ "both of pep2's decided live" 2 s2.Pep.pdp_calls;
  check int_ "the never-announced key skipped the L2" 3 (l2_skips fx)

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
          Alcotest.test_case "a stranger's one-way invalidation drops no cached bag" `Quick
            test_one_way_invalidation_only_from_pips;
          Alcotest.test_case "empty bags are negative-cached" `Quick test_negative_attribute_cache;
        ] );
      ( "single-flight",
        [
          Alcotest.test_case "identical concurrent queries share one descent" `Quick
            test_coalescing;
          Alcotest.test_case "distinct queries never coalesce" `Quick
            test_coalescing_distinct_keys;
        ] );
      ( "l1",
        [
          Alcotest.test_case "a pull PEP answers a fresh L1 hit synchronously" `Quick
            (test_fresh_l1_hit_is_synchronous ~sharded:false);
          Alcotest.test_case "a sharded PEP answers a fresh L1 hit synchronously" `Quick
            (test_fresh_l1_hit_is_synchronous ~sharded:true);
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
          Alcotest.test_case "a PEP asks the L2 only once a digest lists the key" `Quick
            test_summary_lists_after_digest;
          Alcotest.test_case "a digest from a node other than the L2 lists nothing" `Quick
            test_stranger_digest_ignored;
          Alcotest.test_case "a late subscriber learns the L2's live keys" `Quick
            test_late_subscriber_learns_live_keys;
          Alcotest.test_case "the summary stays within its bound" `Quick test_summary_stays_bounded;
          Alcotest.test_case "a crashed L2 leaves every decision live" `Quick
            test_crashed_l2_decides_live;
          Alcotest.test_case "an unreachable L2 degrades to a miss" `Quick
            test_l2_unreachable_degrades_to_miss;
          Alcotest.test_case "a pull PEP sends no L2 put for an Indeterminate" `Quick
            (test_no_l2_put_for_indeterminate ~sharded:false);
          Alcotest.test_case "a sharded PEP sends no L2 put for an Indeterminate" `Quick
            (test_no_l2_put_for_indeterminate ~sharded:true);
          Alcotest.test_case "an L2-miss descent sends one put and no reply" `Quick
            test_l2_miss_sends_one_put;
        ] );
      ( "region-invalidation",
        [
          Alcotest.test_case "a bounded region drops only matching entries" `Quick
            test_region_targeted_drops;
          Alcotest.test_case "an unbounded region degrades to the full flush" `Quick
            test_region_unbounded_flush;
          Alcotest.test_case "traces name the purge kind" `Quick test_region_trace_events;
          Alcotest.test_case "an in-flight put cannot outlive a region purge" `Quick
            test_region_put_race;
          Alcotest.test_case "a live answer in flight across a purge stays out of L1" `Quick
            (test_l1_put_after_purge_race ~sharded:true);
          Alcotest.test_case "a pull PEP's answer in flight across a purge stays out of L1"
            `Quick
            (test_l1_put_after_purge_race ~sharded:false);
          QCheck_alcotest.to_alcotest region_equivalence_prop;
          QCheck_alcotest.to_alcotest census_prop;
          Alcotest.test_case "an unread key's removal decrements nothing" `Quick
            test_census_unread_key_asymmetry;
          Alcotest.test_case "a purge skips a cache the census proves missed" `Quick
            test_census_skips_missed_cache;
          Alcotest.test_case "a purge that drops nothing allocates independently of size" `Quick
            test_region_purge_allocation;
          Alcotest.test_case "an L2 region purge drops malformed peer keys" `Quick
            test_l2_region_drops_peer_malformed_keys;
          Alcotest.test_case "an unstamped put is refused after a purge" `Quick
            test_unstamped_puts_refused;
          Alcotest.test_case "a one-way put sent before a purge is rejected" `Quick
            test_one_way_put_race;
        ] );
      ( "one-shape",
        [
          Alcotest.test_case "a call to the L2's cache-put fails with no-such-service" `Quick
            test_call_to_cache_put;
          Alcotest.test_case "a call to the PDP's attribute-invalidate fails with no-such-service"
            `Quick test_call_to_attribute_invalidate;
          Alcotest.test_case "a call to the PIP's attribute-subscribe fails with no-such-service"
            `Quick test_call_to_attribute_subscribe;
          Alcotest.test_case "a call to the PAP's policy-update fails with no-such-service" `Quick
            test_call_to_policy_update;
          Alcotest.test_case "a one-way cache-lookup runs no lookup" `Quick
            test_cast_to_cache_lookup;
          Alcotest.test_case "a one-way policy-update the reader rejects is dropped" `Quick
            test_garbled_policy_update_dropped;
          Alcotest.test_case "a one-way invalidation the reader rejects drops no bag" `Quick
            test_garbled_invalidation_dropped;
          Alcotest.test_case "a one-way subscribe the reader rejects subscribes nobody" `Quick
            test_garbled_subscribe_dropped;
        ] );
      ( "revocation",
        [
          Alcotest.test_case "after one round no cache level serves the grant" `Quick
            test_vo_revocation_round;
          Alcotest.test_case "a revocation purges member L1s without a hierarchy" `Quick
            test_revocation_without_hierarchy;
        ] );
      ( "syndicated-purge",
        [
          Alcotest.test_case "invalidations fan out along the hierarchy" `Quick
            test_invalidation_fanout;
          Alcotest.test_case "a purge from a node other than the parent is refused" `Quick
            test_purge_only_from_parent;
          Alcotest.test_case "an anti-entropy parent's purge is accepted" `Quick
            test_purge_from_anti_entropy_parent;
          Alcotest.test_case "anti-entropy applies a lost purge within one round" `Quick
            test_anti_entropy_backstop;
          Alcotest.test_case "anti-entropy repairs a lost region push" `Quick
            test_region_anti_entropy_repair;
          Alcotest.test_case "a declined update purges nothing" `Quick
            test_declined_update_purges_nothing;
          Alcotest.test_case "attaching the hierarchy twice starts one poll" `Quick
            test_hierarchy_idempotent;
          Alcotest.test_case "Domain.purge drops a region from every level" `Quick
            test_domain_purge_every_level;
          Alcotest.test_case "Domain.purge without an L2 purges the L1s" `Quick
            test_domain_purge_without_l2;
        ] );
    ]
