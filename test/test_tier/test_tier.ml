(* Sharded PDP tier: routing, batching, failover and degradation.

   Covers the dispatcher itself (rendezvous placement and remapping,
   batch coalescing, shard-loss re-routing, fail-closed exhaustion), the
   PEP's Sharded mode (bounded-stale degradation per shard outage), and the
   determinism satellite: two Fig. 3 pull-flow runs under the same chaos
   schedule with the same seed must produce byte-identical management
   reports and metric dumps. *)

module Value = Dacs_policy.Value
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Target = Dacs_policy.Target
module Combine = Dacs_policy.Combine
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Engine = Dacs_net.Engine
module Net = Dacs_net.Net
module Rpc = Dacs_net.Rpc
module Faults = Dacs_net.Faults
module Metrics = Dacs_telemetry.Metrics
module Service = Dacs_ws.Service
open Dacs_core

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

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
  services : Service.t;
  tier : Pdp_tier.t;
  pep : Pep.t;
  alice : Client.t;
  mallory : Client.t;
  shard_nodes : Net.node_id list;
}

let setup ?(seed = 7L) ?(shards = 4) ?batch ?cache ?service_time () =
  let net = Net.create ~seed () in
  let services = Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let shard_nodes =
    List.init shards (fun i ->
        let node = add (Printf.sprintf "shard%d" i) in
        ignore
          (Pdp_service.create services ~node ~name:node ~root:(doctor_policy "r") ?service_time ());
        node)
  in
  let pep_node = add "pep" in
  let tier = Pdp_tier.create services ~node:pep_node ~shards:shard_nodes ?batch () in
  let pep =
    Pep.create services ~node:pep_node ~domain:"a" ~resource:"r" ~content:"the-content"
      (Pep.Sharded { tier; cache })
  in
  let alice = Client.create services ~node:(add "alice") ~subject:(doctor_subject "alice") in
  let mallory = Client.create services ~node:(add "mallory") ~subject:(intern_subject "mallory") in
  { net; services; tier; pep; alice; mallory; shard_nodes }

let request_at fx client ~at ?(timeout = 30.0) ~action outcomes =
  Engine.schedule_at (Net.engine fx.net) ~at (fun () ->
      Client.request client ~pep:"pep" ~action ~timeout (fun r ->
          outcomes := (at, r) :: !outcomes))

let granted = function Ok (Wire.Granted _) -> true | _ -> false

let outcome_at outcomes at =
  match List.assoc_opt at !outcomes with
  | Some r -> r
  | None -> Alcotest.failf "no outcome recorded for request at t=%g" at

let ctx_for user action =
  Context.make
    ~subject:[ ("subject-id", Value.String user); ("role", Value.String "doctor") ]
    ~resource:[ ("resource-id", Value.String "r") ]
    ~action:[ ("action-id", Value.String action) ]
    ()

(* --- placement and remapping ------------------------------------------------ *)

(* Removing one shard may only remap the keys that shard owned; every
   other key keeps its assignment.  This is the property that makes
   shard loss a local event instead of a full cache/ring reshuffle. *)
let test_ring_remap () =
  let fx = setup () in
  let keys = List.init 200 (Printf.sprintf "key%d") in
  let owner k =
    match Pdp_tier.shard_for fx.tier k with
    | Some s -> s
    | None -> Alcotest.fail "tier unexpectedly empty"
  in
  let before = List.map (fun k -> (k, owner k)) keys in
  let dropped = List.nth fx.shard_nodes 2 in
  let survivors = List.filter (fun s -> s <> dropped) fx.shard_nodes in
  Pdp_tier.set_shards fx.tier survivors;
  let moved = ref 0 in
  List.iter
    (fun (k, was) ->
      let is = owner k in
      if was = dropped then begin
        incr moved;
        check bool_ "remapped key lands on a survivor" true (List.mem is survivors)
      end
      else check string_ (Printf.sprintf "stable key %s" k) was is)
    before;
  check bool_ "the dropped shard owned some keys" true (!moved > 0);
  check int_ "one ring rebuild" 1 (Pdp_tier.stats fx.tier).Pdp_tier.rebalances;
  (* Restoring the original set is a rebuild; re-setting it is a no-op. *)
  Pdp_tier.set_shards fx.tier fx.shard_nodes;
  Pdp_tier.set_shards fx.tier fx.shard_nodes;
  check int_ "no-op set_shards not counted" 2 (Pdp_tier.stats fx.tier).Pdp_tier.rebalances

(* Placement does not depend on the order of the shard list, so the
   same set in another order is no rebalance: no count, no trace event.
   A real change still is both. *)
let test_reordered_set_no_rebalance () =
  let fx = setup () in
  let tracer = Service.tracer fx.services in
  Dacs_telemetry.Trace.set_enabled tracer true;
  let rebalances () = (Pdp_tier.stats fx.tier).Pdp_tier.rebalances in
  let traced () = contains (Dacs_telemetry.Trace.render_tree tracer) "tier:rebalance" in
  Pdp_tier.set_shards fx.tier (List.rev fx.shard_nodes);
  check int_ "a reordered set is not counted" 0 (rebalances ());
  check bool_ "nor traced" false (traced ());
  Pdp_tier.set_shards fx.tier (List.tl fx.shard_nodes);
  check int_ "a smaller set is counted" 1 (rebalances ());
  check bool_ "and traced" true (traced ())

(* A tier that is only asked where keys go: [shard_for] needs no live
   shard behind the names. *)
let placement_tier shards =
  let services = Service.create (Rpc.create (Net.create ~seed:7L ())) in
  Pdp_tier.create services ~node:"pep" ~shards ()

let eight_shards = List.init 8 (Printf.sprintf "pdp.%d")
let many_keys = List.init 10_000 (Printf.sprintf "key%d")

let owner_in tier key =
  match Pdp_tier.shard_for tier key with
  | Some s -> s
  | None -> Alcotest.fail "tier unexpectedly empty"

(* An ordered tier's list is its placement: every key goes to the
   first shard, so reordering the list is a rebalance that moves every
   key to the new first shard — while the same reorder of a rendezvous
   set moves nothing and counts nothing. *)
let test_ordered_reorder_moves_keys () =
  let services = Service.create (Rpc.create (Net.create ~seed:7L ())) in
  let ordered = Pdp_tier.ordered services ~node:"pep" ~pdps:eight_shards ~call_timeout:0.5 in
  let rendezvous = placement_tier eight_shards in
  let keys = List.init 100 (Printf.sprintf "key%d") in
  let rendezvous_owners () = List.map (owner_in rendezvous) keys in
  let placed = rendezvous_owners () in
  check bool_ "every key on the first shard" true
    (List.for_all (fun k -> owner_in ordered k = "pdp.0") keys);
  let reordered = List.rev eight_shards in
  Pdp_tier.set_shards ordered reordered;
  Pdp_tier.set_shards rendezvous reordered;
  check bool_ "every key on the new first shard" true
    (List.for_all (fun k -> owner_in ordered k = "pdp.7") keys);
  check int_ "the reorder is a rebalance" 1 (Pdp_tier.stats ordered).Pdp_tier.rebalances;
  Pdp_tier.set_shards ordered reordered;
  check int_ "the same order again is not" 1 (Pdp_tier.stats ordered).Pdp_tier.rebalances;
  check (Alcotest.list string_) "rendezvous keys stay put" placed (rendezvous_owners ());
  check int_ "a reordered rendezvous set is no rebalance" 0
    (Pdp_tier.stats rendezvous).Pdp_tier.rebalances

(* Each of eight shards gets about an eighth of the keys: the busiest
   holds at most 1.10x the mean, since its queue sets the tier's tail. *)
let test_balance () =
  let tier = placement_tier eight_shards in
  let load = Hashtbl.create 8 in
  List.iter
    (fun k ->
      let s = owner_in tier k in
      Hashtbl.replace load s (1 + Option.value ~default:0 (Hashtbl.find_opt load s)))
    many_keys;
  let busiest = Hashtbl.fold (fun _ n acc -> max n acc) load 0 in
  let mean = float_of_int (List.length many_keys) /. 8.0 in
  if float_of_int busiest > 1.10 *. mean then
    Alcotest.failf "busiest shard holds %d keys, %.2fx the mean %.0f" busiest
      (float_of_int busiest /. mean) mean

(* Placement depends on the shard set, not on the order it is listed in. *)
let test_order_independent () =
  let reference = placement_tier eight_shards in
  let split keep = List.filteri (fun i _ -> keep i) eight_shards in
  let rotated = split (fun i -> i >= 3) @ split (fun i -> i < 3) in
  let evens_first = split (fun i -> i mod 2 = 0) @ split (fun i -> i mod 2 = 1) in
  List.iter
    (fun order ->
      let tier = placement_tier order in
      List.iter
        (fun k -> check string_ ("owner of " ^ k) (owner_in reference k) (owner_in tier k))
        (List.filteri (fun i _ -> i < 2_000) many_keys))
    [ List.rev eight_shards; rotated; evens_first ]

(* Adding a ninth shard only moves keys onto it; every other key stays
   where it was. *)
let test_monotone_growth () =
  let tier = placement_tier eight_shards in
  let before = List.map (fun k -> (k, owner_in tier k)) many_keys in
  Pdp_tier.set_shards tier (eight_shards @ [ "pdp.8" ]);
  let moved = ref 0 in
  List.iter
    (fun (k, was) ->
      let is = owner_in tier k in
      if is = "pdp.8" then incr moved else check string_ ("stable key " ^ k) was is)
    before;
  check bool_ "the new shard took some keys" true (!moved > 0)

(* --- batch coalescing -------------------------------------------------------- *)

(* [Pdp_tier.decide] routed by [key], by default the request's own key
   as the PEP passes it. *)
let tier_decide ?key tier ctx k =
  let key = match key with Some key -> key | None -> Decision_cache.request_key ctx in
  Pdp_tier.decide ~key tier ctx k

let test_batching () =
  let fx = setup ~batch:4 () in
  let ctx = ctx_for "alice" "read" in
  let expected = Policy.evaluate_child ctx (doctor_policy "r") in
  let answers = ref [] in
  (* Ten same-key queries issued in one instant: same point, so one
     shard sees all ten as 4 + 4 + 2 frames. *)
  for _ = 1 to 10 do
    tier_decide fx.tier ctx (fun r _ -> answers := r :: !answers)
  done;
  Net.run fx.net;
  check int_ "all continuations fired" 10 (List.length !answers);
  List.iter
    (function
      | Ok r ->
        check bool_ "tier decision matches local evaluation" true
          (Decision.equal_decision r.Decision.decision expected.Decision.decision)
      | Error e -> Alcotest.failf "tier failed: %s" e)
    !answers;
  let s = Pdp_tier.stats fx.tier in
  check int_ "ten queries dispatched" 10 s.Pdp_tier.dispatched;
  check int_ "coalesced into ceil(10/4) frames" 3 s.Pdp_tier.batches;
  check bool_ "batched frames on the wire" true
    (Metrics.sum_counter (Service.metrics fx.services) "rpc_batches_total" >= 3)

(* A flush that carries one query sends Fig. 3's plain authz-query frame
   even on a tier that batches; only a flush of several queries pays the
   batch envelope.  The frames are told apart by their exact bytes on the
   wire: the one message of each flush is as long as the frame of its
   kind around the SOAP envelopes of its queries. *)
let test_frame_per_flush () =
  let envelope ctx =
    let buf = Buffer.create 256 in
    Dacs_ws.Soap.write buf (fun buf -> Wire.write_authz_query buf ctx);
    Buffer.contents buf
  in
  let flush ctxs =
    let fx = setup ~shards:1 () in
    let answers = ref [] in
    List.iter
      (fun ctx -> tier_decide fx.tier ctx (fun r p -> answers := (r, p) :: !answers))
      ctxs;
    Net.run fx.net;
    let sent =
      match List.assoc_opt "authz-query" (Net.stats_by_category fx.net) with
      | Some st -> st
      | None -> Alcotest.fail "no authz-query frame sent"
    in
    let metrics = Service.metrics fx.services in
    (List.rev !answers, sent, Metrics.sum_counter metrics "rpc_batches_total")
  in
  let alice = ctx_for "alice" "read" and bob = ctx_for "bob" "write" in
  let decisions answers =
    List.map
      (function
        | Ok r, _ -> Decision.decision_to_string r.Decision.decision
        | Error e, _ -> Alcotest.failf "tier failed: %s" e)
      answers
  in
  let one, one_sent, one_batches = flush [ alice ] in
  check int_ "one query: one frame" 1 one_sent.Net.count;
  check int_ "one query: a plain Q frame"
    (String.length (Rpc.encode_request 0 "authz-query" (envelope alice)))
    one_sent.Net.bytes;
  check int_ "one query: no batch frame" 0 one_batches;
  List.iter
    (fun (_, p) -> check int_ "provenance still reads batch=1" 1 p.Provenance.batch)
    one;
  let two, two_sent, two_batches = flush [ alice; bob ] in
  check int_ "two queries: one frame" 1 two_sent.Net.count;
  check int_ "two queries: one B frame with two parts"
    (String.length (Rpc.encode_batch_request 0 "authz-query" [ envelope alice; envelope bob ]))
    two_sent.Net.bytes;
  check int_ "two queries: one batch frame" 1 two_batches;
  List.iter (fun (_, p) -> check int_ "both ride a batch of two" 2 p.Provenance.batch) two;
  let expected ctx =
    Decision.decision_to_string (Policy.evaluate_child ctx (doctor_policy "r")).Decision.decision
  in
  check (Alcotest.list string_) "the plain frame decides as the policy does" [ expected alice ]
    (decisions one);
  check (Alcotest.list string_) "both frames decide identically"
    [ expected alice; expected bob ] (decisions two);
  check string_ "alice's decision is the same either way" (List.hd (decisions one))
    (List.hd (decisions two))

(* --- failover ----------------------------------------------------------------- *)

let test_failover () =
  let fx = setup () in
  (* Crash whichever shard owns alice's key, before any traffic. *)
  let key = Decision_cache.request_key (ctx_for "alice" "read") in
  let victim =
    match Pdp_tier.shard_for fx.tier key with
    | Some s -> s
    | None -> Alcotest.fail "tier unexpectedly empty"
  in
  Net.crash fx.net victim;
  let a = ref [] in
  request_at fx fx.alice ~at:0.5 ~action:"read" a;
  Net.run fx.net;
  check bool_ "granted despite the owning shard being down" true (granted (outcome_at a 0.5));
  let s = Pdp_tier.stats fx.tier in
  check bool_ "query re-routed to a successor" true (s.Pdp_tier.failovers >= 1);
  check int_ "nothing failed closed" 0 s.Pdp_tier.exhausted

(* A sharded PEP's retry policy is its tier's: a frame lost on the way
   to the owning shard is sent to that shard again after the timeout
   and a backoff, instead of failing over to another shard. *)
let test_pep_retry_stays_on_shard () =
  let fx = setup ~shards:2 () in
  Pdp_tier.set_retry_policy fx.tier
    { Rpc.attempts = 2; base_delay = 0.05; multiplier = 2.0; max_delay = 1.0; jitter = 0.0 };
  let owner =
    match Pdp_tier.shard_for fx.tier (Decision_cache.request_key (ctx_for "alice" "read")) with
    | Some s -> s
    | None -> Alcotest.fail "tier unexpectedly empty"
  in
  (* Down when the frame arrives, back long before the retry. *)
  let at t f = Engine.schedule_at (Net.engine fx.net) ~at:t f in
  at 0.4 (fun () -> Net.crash fx.net owner);
  at 0.6 (fun () -> Net.recover fx.net owner);
  let answer = ref None in
  at 0.5 (fun () ->
      Pep.decide_explained fx.pep (ctx_for "alice" "read") (fun r p -> answer := Some (r, p)));
  Net.run fx.net;
  match !answer with
  | Some (r, p) ->
    check bool_ "granted" true (Decision.is_permit r);
    check (Alcotest.option string_) "answered by the owning shard" (Some owner) p.Provenance.shard;
    check int_ "no failover" 0 p.Provenance.failovers;
    check bool_ "retried" true p.Provenance.retried;
    let s = Pep.stats fx.pep in
    check int_ "one retry" 1 s.Pep.retries;
    check int_ "no failover counted" 0 s.Pep.failovers
  | None -> Alcotest.fail "no decision"

(* A pull PEP's retry policy is its ordered tier's, as a sharded PEP's
   is its rendezvous tier's: a frame lost on the way to the first PDP is
   sent to that PDP again after the call timeout and a backoff, instead
   of failing over down the list. *)
let test_ordered_retry_stays_on_first_pdp () =
  let net = Net.create ~seed:7L () in
  let services = Service.create (Rpc.create net) in
  List.iter (Net.add_node net) [ "pdp0"; "pdp1"; "pep" ];
  List.iter
    (fun node -> ignore (Pdp_service.create services ~node ~name:node ~root:(doctor_policy "r") ()))
    [ "pdp0"; "pdp1" ];
  let tier = Pdp_tier.ordered services ~node:"pep" ~pdps:[ "pdp0"; "pdp1" ] ~call_timeout:1.0 in
  let pep = Pep.create services ~node:"pep" ~domain:"a" ~resource:"r" (Pep.Sharded { tier; cache = None }) in
  Pdp_tier.set_retry_policy tier
    { Rpc.attempts = 2; base_delay = 0.05; multiplier = 2.0; max_delay = 1.0; jitter = 0.0 };
  (* Down when the frame arrives, back long before the retry. *)
  let at t f = Engine.schedule_at (Net.engine net) ~at:t f in
  at 0.4 (fun () -> Net.crash net "pdp0");
  at 0.6 (fun () -> Net.recover net "pdp0");
  let answer = ref None in
  at 0.5 (fun () -> Pep.decide_explained pep (ctx_for "alice" "read") (fun r p -> answer := Some (r, p)));
  Net.run net;
  match !answer with
  | Some (r, p) ->
    check bool_ "granted" true (Decision.is_permit r);
    check (Alcotest.option string_) "answered by the first PDP" (Some "pdp0") p.Provenance.shard;
    check int_ "no failover" 0 p.Provenance.failovers;
    check bool_ "retried" true p.Provenance.retried;
    let s = Pep.stats pep in
    check int_ "one retry" 1 s.Pep.retries;
    check int_ "no failover counted" 0 s.Pep.failovers
  | None -> Alcotest.fail "no decision"

(* --- stale-cache degradation and fail-closed ---------------------------------- *)

let test_stale_degradation () =
  let cache = Decision_cache.create ~ttl:1.0 () in
  let fx = setup ~cache () in
  Pep.set_stale_window fx.pep 10.0;
  let a = ref [] in
  (* Prime the cache while the tier is healthy, then lose every shard. *)
  request_at fx fx.alice ~at:0.5 ~action:"read" a;
  Engine.schedule_at (Net.engine fx.net) ~at:1.0 (fun () ->
      List.iter (Net.crash fx.net) fx.shard_nodes);
  (* TTL-expired but within the stale window: degraded serving. *)
  request_at fx fx.alice ~at:3.0 ~action:"read" a;
  (* Far past the window: the entry is gone — fail closed. *)
  request_at fx fx.alice ~at:30.0 ~action:"read" a;
  Net.run fx.net;
  check bool_ "fresh grant before the outage" true (granted (outcome_at a 0.5));
  check bool_ "stale-served during the outage" true (granted (outcome_at a 3.0));
  check bool_ "fails closed beyond the stale window" false (granted (outcome_at a 30.0));
  check bool_ "tier reported exhaustion" true ((Pdp_tier.stats fx.tier).Pdp_tier.exhausted >= 1)

let test_fail_closed_without_cache () =
  let fx = setup () in
  List.iter (Net.crash fx.net) fx.shard_nodes;
  let a = ref [] and m = ref [] in
  request_at fx fx.alice ~at:0.5 ~action:"read" a;
  request_at fx fx.mallory ~at:0.6 ~action:"read" m;
  Net.run fx.net;
  check bool_ "authorised subject still not granted" false (granted (outcome_at a 0.5));
  check bool_ "denied subject not granted" false (granted (outcome_at m 0.6));
  check bool_ "exhaustion counted" true ((Pdp_tier.stats fx.tier).Pdp_tier.exhausted >= 2)

let test_empty_tier_fails_closed () =
  let fx = setup ~shards:1 () in
  Pdp_tier.set_shards fx.tier [];
  let answer = ref None in
  tier_decide fx.tier (ctx_for "alice" "read") (fun r _ -> answer := Some r);
  Net.run fx.net;
  match !answer with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "empty tier produced a decision"
  | None -> Alcotest.fail "empty tier never answered"

(* --- routing around open breakers ---------------------------------------------- *)

(* Breakers that trip on the first timeout and stay open [cooldown]
   seconds, so a test opens one with a single lost frame. *)
let trip_on_first_timeout fx ~cooldown =
  Rpc.set_breaker (Service.rpc fx.services) { Rpc.failure_threshold = 1; cooldown }

let rejections fx =
  Metrics.counter_value
    (Metrics.counter (Service.metrics fx.services) ~labels:[ ("src", "pep") ]
       "rpc_breaker_rejections_total")

(* [Pdp_tier.decide] for [key] issued at [at]; the answer lands in the ref. *)
let decide_at fx ~at ?key ctx answer =
  Engine.schedule_at (Net.engine fx.net) ~at (fun () ->
      tier_decide ?key fx.tier ctx (fun outcome p ->
          answer := Some (Net.now fx.net, outcome, p)))

let answered_by what answer =
  match !answer with
  | Some (_, Ok _, { Provenance.shard = Some s; _ }) -> s
  | Some (_, Error e, _) -> Alcotest.failf "%s: tier failed: %s" what e
  | Some (_, Ok _, { Provenance.shard = None; _ }) | None ->
    Alcotest.failf "%s: no shard answered" what

let test_all_breakers_open () =
  let fx = setup () in
  trip_on_first_timeout fx ~cooldown:30.0;
  let ctx = ctx_for "alice" "read" in
  (* With every shard down, one query's failover chain times out once on
     each shard, opening all four breakers, and then fails closed. *)
  List.iter (Net.crash fx.net) fx.shard_nodes;
  let first = ref None in
  decide_at fx ~at:0.5 ctx first;
  Net.run fx.net;
  List.iter
    (fun s ->
      check bool_ ("breaker open on " ^ s) true
        (Rpc.breaker_state (Service.rpc fx.services) s = Rpc.Open))
    fx.shard_nodes;
  (* Now the tier knows better than to send: the next query fails closed
     in the instant it is issued, with no frame and no timeout. *)
  let exhausted = (Pdp_tier.stats fx.tier).Pdp_tier.exhausted in
  let sent = (Net.total_sent fx.net).Net.count in
  let answer = ref None and fired_inline = ref false in
  Engine.schedule_at (Net.engine fx.net) ~at:10.0 (fun () ->
      tier_decide fx.tier ctx (fun outcome p ->
          answer := Some (Net.now fx.net, outcome, p));
      fired_inline := !answer <> None);
  Net.run fx.net;
  check bool_ "deliver fired before decide returned" true !fired_inline;
  (match !answer with
  | Some (at, Error _, { Provenance.shard = None; batch = 0; failovers = 0; _ }) ->
    check (Alcotest.float 0.0) "at the instant it was issued" 10.0 at
  | _ -> Alcotest.fail "expected a synchronous fail-closed answer with no shard");
  check int_ "no message sent" sent (Net.total_sent fx.net).Net.count;
  check int_ "exhausted rises by one" (exhausted + 1) (Pdp_tier.stats fx.tier).Pdp_tier.exhausted;
  (* A PEP holding an offline replica degrades to it at once, and its
     provenance says the breakers are why. *)
  let offline =
    Offline.create ~now:(fun () -> Net.now fx.net) ~key:"tier-mesh-key" ~author:"a" ()
  in
  Offline.publish offline (doctor_policy "r");
  Pep.set_offline_replica fx.pep (Some offline);
  let explained = ref None in
  Engine.schedule_at (Net.engine fx.net) ~at:11.0 (fun () ->
      Pep.decide_explained fx.pep ctx (fun result prov ->
          explained := Some (Net.now fx.net, result, prov)));
  Net.run fx.net;
  match !explained with
  | Some (at, result, prov) ->
    check (Alcotest.float 0.0) "served in the instant it was asked" 11.0 at;
    check bool_ "offline permits the doctor" true (result.Decision.decision = Decision.Permit);
    check string_ "served by the offline rung" "offline"
      (Provenance.stage_name prov.Provenance.stage);
    check bool_ "provenance records the breakers" true prov.Provenance.breaker_tripped
  | None -> Alcotest.fail "the PEP never answered"

(* Opens the breaker of the shard owning alice's key: it is down when the
   first query reaches it, and back up (breaker still open) at 2.0.
   Returns the shard and the keys it owns. *)
let open_one_breaker fx ~cooldown =
  trip_on_first_timeout fx ~cooldown;
  let ctx = ctx_for "alice" "read" in
  let owner key = Option.get (Pdp_tier.shard_for fx.tier key) in
  let victim = owner (Decision_cache.request_key ctx) in
  let keys = List.filter (fun k -> owner k = victim) (List.init 100 (Printf.sprintf "key%d")) in
  Net.crash fx.net victim;
  let first = ref None in
  decide_at fx ~at:0.5 ctx first;
  Engine.schedule_at (Net.engine fx.net) ~at:2.0 (fun () -> Net.recover fx.net victim);
  Net.run fx.net;
  check bool_ "the first query failed over" true (answered_by "first query" first <> victim);
  check bool_ "the owner's breaker is open" true
    (Rpc.breaker_state (Service.rpc fx.services) victim = Rpc.Open);
  (victim, keys)

let test_one_breaker_open () =
  let fx = setup () in
  let victim, keys = open_one_breaker fx ~cooldown:300.0 in
  check bool_ "the open shard owns some keys" true (keys <> []);
  (* The tier without the open shard: where its keys must go. *)
  let survivors = List.filter (fun s -> s <> victim) fx.shard_nodes in
  let successor_tier = Pdp_tier.create fx.services ~node:"probe" ~shards:survivors () in
  let rejected = rejections fx in
  Net.set_tracing fx.net true;
  List.iteri
    (fun i key ->
      let answer = ref None in
      decide_at fx ~at:(3.0 +. float_of_int i) ~key (ctx_for "alice" "read") answer;
      Net.run fx.net;
      check string_ ("ring successor answers " ^ key)
        (Option.get (Pdp_tier.shard_for successor_tier key))
        (answered_by key answer);
      match !answer with
      | Some (_, _, p) -> check int_ "skipping is not a failover" 0 p.Provenance.failovers
      | None -> ())
    keys;
  check bool_ "no frame reached the open shard" false
    (List.exists (fun e -> e.Net.t_dst = victim) (Net.trace fx.net));
  check int_ "each skip counted once as a shed call" (rejected + List.length keys) (rejections fx)

let test_breaker_recloses () =
  let fx = setup () in
  let victim, keys = open_one_breaker fx ~cooldown:5.0 in
  let key = List.hd keys in
  (* Tripped at 1.5; from 6.5 the next query is the half-open probe. *)
  let probe = ref None and after = ref None in
  decide_at fx ~at:7.0 ~key (ctx_for "alice" "read") probe;
  decide_at fx ~at:8.0 ~key (ctx_for "alice" "read") after;
  Net.run fx.net;
  check string_ "the probe goes to the owner" victim (answered_by "probe" probe);
  check bool_ "its success closed the breaker" true
    (Rpc.breaker_state (Service.rpc fx.services) victim = Rpc.Closed);
  check string_ "routing is back on the owner" victim (answered_by "after" after)

(* --- failure detection -------------------------------------------------------- *)

let owner_of_alice fx =
  Option.get (Pdp_tier.shard_for fx.tier (Decision_cache.request_key (ctx_for "alice" "read")))

(* Five answered queries to alice's shard, one every 100 ms from 0.1. *)
let warm_up fx =
  let answers = List.init 5 (fun _ -> ref None) in
  List.iteri
    (fun i a -> decide_at fx ~at:(0.1 *. float_of_int (i + 1)) (ctx_for "alice" "read") a)
    answers;
  Net.run fx.net;
  List.iter (fun a -> ignore (answered_by "warm-up" a)) answers

let expiries fx = (Pdp_tier.stats fx.tier).Pdp_tier.expiries

(* A shard cut off after warm-up is suspected one RTO after its frame
   went out — not at the 1 s call timeout — and the frame's query is
   answered by the next shard in its key's ranking. *)
let test_silent_shard_detected () =
  let fx = setup () in
  warm_up fx;
  let victim = owner_of_alice fx in
  let rto = Pdp_tier.rto fx.tier victim in
  check bool_ "a measured RTO below the call timeout" true (rto < 1.0);
  Engine.schedule_at (Net.engine fx.net) ~at:2.0 (fun () -> Net.crash fx.net victim);
  let answer = ref None in
  decide_at fx ~at:3.0 (ctx_for "alice" "read") answer;
  Net.run fx.net;
  let successor = answered_by "after the cut" answer in
  check bool_ "answered by another shard" true (successor <> victim);
  (match !answer with
  | Some (at, _, p) ->
    check int_ "one failover" 1 p.Provenance.failovers;
    (* Failed over at 3.0 + RTO, then one round trip to the successor. *)
    check bool_ "not before one RTO" true (at >= 3.0 +. rto);
    check bool_ "well before the call timeout" true (at < 3.0 +. rto +. 0.05)
  | None -> ());
  check int_ "one expiry" 1 (expiries fx);
  check int_ "one failover counted" 1 (Pdp_tier.stats fx.tier).Pdp_tier.failovers

(* A suspicion spends the silence that raised it.  Alice's frame to her
   shard is lost and expired after one RTO, then waits out a long
   backoff before its retry; a frame sent to the shard meanwhile, once
   it is back up, must get its own RTO to be answered, not be expired at
   the instant it is sent.  The retry is a frame of the tier's too: it
   restarts the silence clock, so the shard that came back answers it,
   and the one lost frame is the only expiry. *)
let test_frame_after_suspicion_gets_an_rto () =
  let fx = setup () in
  Pdp_tier.set_retry_policy fx.tier
    { Rpc.attempts = 2; base_delay = 0.3; multiplier = 2.0; max_delay = 1.0; jitter = 0.0 };
  warm_up fx;
  let victim = owner_of_alice fx in
  let other =
    List.find
      (fun user ->
        user <> "alice"
        && Pdp_tier.shard_for fx.tier (Decision_cache.request_key (ctx_for user "read"))
           = Some victim)
      (List.init 100 (Printf.sprintf "user%d"))
  in
  let at t f = Engine.schedule_at (Net.engine fx.net) ~at:t f in
  at 2.9 (fun () -> Net.crash fx.net victim);
  at 3.25 (fun () -> Net.recover fx.net victim);
  let lost = ref None and later = ref None in
  decide_at fx ~at:3.0 (ctx_for "alice" "read") lost;
  decide_at fx ~at:3.3 (ctx_for other "read") later;
  let before = expiries fx in
  Net.run fx.net;
  check string_ "alice's retry is answered by the shard that came back" victim
    (answered_by "lost" lost);
  check int_ "one expiry" (before + 1) (expiries fx);
  check string_ "the later frame is answered by the same shard" victim (answered_by "later" later);
  match !later with
  | Some (t, _, _) -> check bool_ "within one round trip" true (t < 3.35)
  | None -> ()

(* A lost two-query flush is re-sent whole: one frame after one backoff,
   one retry counted, and each attempt's failure heard by the breaker
   (threshold 2, so the second trips it).  The shard swallows every
   frame; with attempts spent and no other shard, both fail closed. *)
let test_lost_flush_resent_as_one_frame () =
  let fx = setup ~shards:1 () in
  let rpc = Service.rpc fx.services in
  Rpc.set_breaker rpc { Rpc.failure_threshold = 2; cooldown = 30.0 };
  Pdp_tier.set_retry_policy fx.tier
    { Rpc.attempts = 2; base_delay = 0.25; multiplier = 2.0; max_delay = 1.0; jitter = 0.0 };
  let frames = ref [] in
  Net.set_handler fx.net "shard0" (fun msg ->
      match Rpc.decode msg.Net.payload with
      | Some (Rpc.Batch_request (_, _, parts)) -> frames := (Net.now fx.net, List.length parts) :: !frames
      | Some _ | None -> frames := (Net.now fx.net, 1) :: !frames);
  let a = ref None and b = ref None in
  decide_at fx ~at:0.5 (ctx_for "alice" "read") a;
  decide_at fx ~at:0.5 (ctx_for "bob" "read") b;
  Net.run fx.net;
  (* Sent at 0.5, timed out at 1.5, re-sent after the 0.25 s backoff;
     each arrives one 5 ms hop later. *)
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) int_))
    "two 2-query frames" [ (0.505, 2); (1.755, 2) ] (List.rev !frames);
  check int_ "one retry" 1 (Rpc.resilience_stats rpc).Rpc.retries;
  check bool_ "both attempts' failures trip the breaker" true
    (Rpc.breaker_state rpc "shard0" = Rpc.Open);
  check int_ "one trip" 1 (Rpc.resilience_stats rpc).Rpc.breaker_trips;
  List.iter
    (fun r ->
      match !r with
      | Some (_, Error _, _) -> ()
      | _ -> Alcotest.fail "expected the query to fail closed")
    [ a; b ];
  check int_ "both failed closed" 2 (Pdp_tier.stats fx.tier).Pdp_tier.exhausted

(* 15 ms per query and 48 queries at once: six 8-query frames queue on
   one shard, so round trips grow to ~0.7 s, far above the warm RTO —
   but the shard answers someone every 120 ms, so it is never silent. *)
let saturate fx ~at =
  let answers = List.init 48 (fun _ -> ref None) in
  List.iter (fun a -> decide_at fx ~at (ctx_for "alice" "read") a) answers;
  Net.run fx.net;
  answers

let test_saturated_shard_not_suspected () =
  let fx = setup ~service_time:0.015 () in
  warm_up fx;
  check bool_ "warm RTO at its floor" true (Pdp_tier.rto fx.tier (owner_of_alice fx) < 0.25);
  let answers = saturate fx ~at:2.0 in
  let last = ref 0.0 in
  List.iter
    (fun a ->
      ignore (answered_by "saturated" a);
      match !a with Some (at, _, _) -> last := Float.max !last at | None -> ())
    answers;
  check bool_ "queued round trips exceeded 200 ms" true (!last -. 2.0 > 0.2);
  check int_ "no expiry" 0 (expiries fx);
  check int_ "no failover" 0 (Pdp_tier.stats fx.tier).Pdp_tier.failovers;
  check int_ "nothing failed closed" 0 (Pdp_tier.stats fx.tier).Pdp_tier.exhausted

(* Before any answer there is no round trip to estimate from: the RTO
   is the call timeout, and a frame to a dead shard waits all of it. *)
let test_cold_tier_waits_full_timeout () =
  let fx = setup () in
  let victim = owner_of_alice fx in
  check (Alcotest.float 0.0) "cold RTO" 1.0 (Pdp_tier.rto fx.tier victim);
  Net.crash fx.net victim;
  let answer = ref None in
  decide_at fx ~at:0.5 (ctx_for "alice" "read") answer;
  Net.run fx.net;
  check bool_ "answered by another shard" true (answered_by "cold" answer <> victim);
  match !answer with
  | Some (at, _, _) -> check bool_ "after the full 1 s" true (at >= 1.5)
  | None -> ()

let test_rto_clamps () =
  let fx = setup ~service_time:0.015 () in
  let victim = owner_of_alice fx in
  let in_bounds what =
    let rto = Pdp_tier.rto fx.tier victim in
    if rto < 0.2 || rto > 1.0 then Alcotest.failf "%s: RTO %g outside [0.2, 1]" what rto;
    rto
  in
  warm_up fx;
  (* Round trips of ~25 ms: srtt + 4·rttvar is far below the floor. *)
  check (Alcotest.float 0.0) "clamped to 200 ms" 0.2 (in_bounds "warm");
  ignore (saturate fx ~at:2.0);
  (* Round trips of up to ~0.7 s: the estimate overshoots the cap. *)
  check (Alcotest.float 0.0) "clamped to the call timeout" 1.0 (in_bounds "saturated")

(* --- each query's own trip ------------------------------------------------------ *)

(* The provenance flags are facts about one query's trip through the
   tier.  Another query's re-send, breaker trip or breaker skip on the
   same PEP, landing while this one is in flight, must not set them. *)

(* The first of user0..user99 whose read [wanted] says yes to the owner of. *)
let user_where fx wanted =
  List.find
    (fun user ->
      wanted (Pdp_tier.shard_for fx.tier (Decision_cache.request_key (ctx_for user "read"))))
    (List.init 100 (Printf.sprintf "user%d"))

(* [user]'s read asked of the PEP at [at]; the decision, its delivery
   instant and its provenance land in the ref. *)
let explain_at fx ~at user answer =
  Engine.schedule_at (Net.engine fx.net) ~at (fun () ->
      Pep.decide_explained fx.pep (ctx_for user "read") (fun r p ->
          answer := Some (Net.now fx.net, r, p)))

let explained what answer =
  match !answer with Some a -> a | None -> Alcotest.failf "%s: no decision" what

(* Alice's owner is down from 0.4 s to 0.6 s, so her frame sent at 0.5 s
   (with no L2 to ask first) times out at 1.5 s and, under a two-attempt
   policy, is re-sent to the same shard after a 50 ms backoff. *)
let alice_resent fx =
  Pdp_tier.set_retry_policy fx.tier
    { Rpc.attempts = 2; base_delay = 0.05; multiplier = 2.0; max_delay = 1.0; jitter = 0.0 };
  let owner = owner_of_alice fx in
  Engine.schedule_at (Net.engine fx.net) ~at:0.4 (fun () -> Net.crash fx.net owner);
  Engine.schedule_at (Net.engine fx.net) ~at:0.6 (fun () -> Net.recover fx.net owner);
  let alice = ref None in
  explain_at fx ~at:0.5 "alice" alice;
  (owner, alice)

let test_bystander_not_retried () =
  let fx = setup ~shards:2 () in
  let owner, alice = alice_resent fx in
  let bob = user_where fx (fun s -> s <> Some owner) in
  let during = ref None in
  explain_at fx ~at:1.495 bob during;
  Net.run fx.net;
  let _, _, p = explained "alice" alice in
  check bool_ "alice's query was re-sent" true p.Provenance.retried;
  check int_ "one re-send on the PEP" 1 (Pep.stats fx.pep).Pep.retries;
  let at, r, p = explained "bob" during in
  check bool_ "bob granted" true (Decision.is_permit r);
  check bool_ "by the healthy shard" true (p.Provenance.shard <> Some owner);
  check bool_ "answered after alice's re-send" true (at > 1.5);
  check bool_ "bob's query was not re-sent" false p.Provenance.retried

let test_bystander_not_breaker_tripped () =
  let fx = setup () in
  let victim, _ = open_one_breaker fx ~cooldown:300.0 in
  let bob = user_where fx (fun s -> s <> Some victim) in
  let carol = user_where fx (fun s -> s = Some victim) in
  let routed = ref None and skipping = ref None in
  explain_at fx ~at:3.0 bob routed;
  explain_at fx ~at:3.001 carol skipping;
  Net.run fx.net;
  let _, _, p = explained "carol" skipping in
  check bool_ "carol's route skipped the open shard" true p.Provenance.breaker_tripped;
  let at, _, p = explained "bob" routed in
  let shard = Option.get p.Provenance.shard in
  check bool_ "bob's shard has a closed breaker" true
    (Rpc.breaker_state (Service.rpc fx.services) shard = Rpc.Closed);
  check bool_ "answered after carol's skip" true (at > 3.001);
  check bool_ "bob's trip met no breaker" false p.Provenance.breaker_tripped

let test_l2_hit_flags_false () =
  let fx = setup ~shards:2 () in
  Net.add_node fx.net "l2";
  ignore (Cache_hierarchy.L2.create fx.services ~node:"l2" ~ttl:60.0 ());
  Pep.set_l2 fx.pep (Some "l2");
  (* Alice's lost frame also trips her owner's breaker.  Her L2 miss
     takes one 10 ms round trip first, so the frame leaves at 0.51 s and
     fails at 1.51 s. *)
  trip_on_first_timeout fx ~cooldown:30.0;
  let owner, alice = alice_resent fx in
  let bob = user_where fx (fun s -> s <> Some owner) in
  let priming = ref None and hit = ref None in
  explain_at fx ~at:0.1 bob priming;
  explain_at fx ~at:1.505 bob hit;
  Net.run fx.net;
  let _, _, p = explained "alice" alice in
  check bool_ "alice's query was re-sent" true p.Provenance.retried;
  check bool_ "and met the breaker" true p.Provenance.breaker_tripped;
  let at, r, p = explained "bob" hit in
  check bool_ "bob granted" true (Decision.is_permit r);
  check string_ "from the L2" "l2" (Provenance.stage_name p.Provenance.stage);
  check bool_ "answered after alice's re-send" true (at > 1.51);
  check bool_ "not retried" false p.Provenance.retried;
  check bool_ "no breaker" false p.Provenance.breaker_tripped

let test_own_trip_flagged () =
  let fx = setup ~shards:2 () in
  trip_on_first_timeout fx ~cooldown:30.0;
  let owner = owner_of_alice fx in
  Net.crash fx.net owner;
  let bob = user_where fx (fun s -> s <> Some owner) in
  let alice = ref None and during = ref None in
  explain_at fx ~at:0.5 "alice" alice;
  explain_at fx ~at:1.495 bob during;
  Net.run fx.net;
  check bool_ "alice's owner tripped" true
    (Rpc.breaker_state (Service.rpc fx.services) owner = Rpc.Open);
  let _, r, p = explained "alice" alice in
  check bool_ "alice granted" true (Decision.is_permit r);
  check string_ "live" "live" (Provenance.stage_name p.Provenance.stage);
  check int_ "after one failover" 1 p.Provenance.failovers;
  check bool_ "her own frame's failure tripped the breaker" true p.Provenance.breaker_tripped;
  check bool_ "not retried" false p.Provenance.retried;
  let at, _, p = explained "bob" during in
  check bool_ "bob answered after the trip" true (at > 1.5);
  check bool_ "bob's trip met no breaker" false p.Provenance.breaker_tripped

(* --- same-seed determinism ----------------------------------------------------- *)

(* One Fig. 3 pull-flow run through the sharded tier under a chaos
   schedule, returning the full management report and the raw metric
   exposition.  Identical seeds must reproduce both byte for byte:
   reports and dumps are derived entirely from virtual time and the
   seeded RNG, never from wall-clock state. *)
let chaos_run seed =
  let fx = setup ~seed () in
  Net.set_tracing fx.net true;
  Faults.apply fx.net
    [
      Faults.Drop_burst { rate = 0.4; window = { from_ = 0.1; until_ = 2.0 } };
      Faults.Crash_restart { node = "shard0"; at = 0.5; restart = Some 3.0 };
      Faults.Latency_spike
        { a = "pep"; b = "shard1"; latency = 0.8; window = { from_ = 1.0; until_ = 4.0 } };
    ];
  let a = ref [] and m = ref [] in
  List.iter (fun at -> request_at fx fx.alice ~at ~action:"read" a) [ 0.3; 1.5; 4.5 ];
  List.iter (fun at -> request_at fx fx.mallory ~at ~action:"read" m) [ 0.4; 2.5 ];
  Net.run fx.net;
  List.iter
    (fun (at, r) ->
      if granted r then Alcotest.failf "denied subject granted at t=%g under chaos" at)
    !m;
  Metrics.render (Service.metrics fx.services)

let test_same_seed_identical_runs () =
  let dump1 = chaos_run 1234L in
  let dump2 = chaos_run 1234L in
  (* The runs must be non-trivial: the tier actually routed queries. *)
  check bool_ "tier series present in the dump" true (contains dump1 "pdp_tier_dispatch_total");
  (* Every flush of this schedule carries one query, so its frames are
     plain authz-query calls and no batch series exists. *)
  check bool_ "authz-query calls present in the dump" true
    (contains dump1 "rpc_calls_total{service=\"authz-query\"}");
  check string_ "byte-identical metric dumps" dump1 dump2

(* --- allocation of one whole decision ------------------------------------- *)

(* Measured: 426.5 words (428.5 while the tier took the request key as
   an optional argument, boxed in a [Some]; 433.5 when each call's
   timeout timer was an event of its own, with a closure; 439.5 when the
   tier answered with a
   metadata record the PEP copied into a provenance record of its own;
   992 when a
   one-query flush rode a batch frame, every layer wrapped the
   continuation in a closure of its own and each engine event and link
   lookup allocated; 540.5 before the bus parsed headers into its own
   scratch, kept pending calls in an id-indexed table and read envelopes
   without a closure); the bound leaves 10 % headroom over 428.5, which
   the former 433.5 fits in and the former 540.5 does not (it was 483.0,
   10 % over 439.5, while a bench ledger gate held the tighter line). *)
let cold_words_bound = 471.0

let test_cold_decision_allocation () =
  let probe = Dacs_workload.Workload.cold_decision_probe () in
  check int_ "every decision answered" probe.decisions probe.answered;
  check int_ "doctors and nurses may read" probe.decisions probe.permitted;
  let words = probe.words_per_decision in
  Printf.printf "one cold decision, one-shard sharded PEP: %.1f minor words (bound %.1f)\n" words
    cold_words_bound;
  check bool_
    (Printf.sprintf "%.1f words <= %.1f" words cold_words_bound)
    true (words <= cold_words_bound)

let () =
  Alcotest.run "dacs_tier"
    [
      ( "routing",
        [
          Alcotest.test_case "shard loss only remaps its own keys" `Quick test_ring_remap;
          Alcotest.test_case "a reordered shard set is no rebalance" `Quick
            test_reordered_set_no_rebalance;
          Alcotest.test_case "reordering an ordered tier moves its keys" `Quick
            test_ordered_reorder_moves_keys;
          Alcotest.test_case "same-instant queries coalesce into frames" `Quick test_batching;
          Alcotest.test_case "one query per flush rides a plain frame" `Quick test_frame_per_flush;
          Alcotest.test_case "eight shards: the busiest holds <= 1.10x the mean" `Quick
            test_balance;
          Alcotest.test_case "placement ignores the order of the shard list" `Quick
            test_order_independent;
          Alcotest.test_case "a ninth shard only takes keys onto itself" `Quick
            test_monotone_growth;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "crash of the owning shard fails over" `Quick test_failover;
          Alcotest.test_case "a PEP's retry policy retries on the same shard" `Quick
            test_pep_retry_stays_on_shard;
          Alcotest.test_case "a pull PEP's retry policy retries its first PDP" `Quick
            test_ordered_retry_stays_on_first_pdp;
          Alcotest.test_case "total outage degrades to bounded-stale serving" `Quick
            test_stale_degradation;
          Alcotest.test_case "total outage without cache fails closed" `Quick
            test_fail_closed_without_cache;
          Alcotest.test_case "empty tier fails closed" `Quick test_empty_tier_fails_closed;
          Alcotest.test_case "every breaker open: fail closed at once, offline answers" `Quick
            test_all_breakers_open;
          Alcotest.test_case "one breaker open: its keys go to the ring successor" `Quick
            test_one_breaker_open;
          Alcotest.test_case "after the cooldown a success re-closes and routes back" `Quick
            test_breaker_recloses;
        ] );
      ( "detection",
        [
          Alcotest.test_case "a shard cut after warm-up fails over after one RTO" `Quick
            test_silent_shard_detected;
          Alcotest.test_case "a saturated shard that keeps answering is never suspected" `Quick
            test_saturated_shard_not_suspected;
          Alcotest.test_case "a lost flush is re-sent whole after one backoff" `Quick
            test_lost_flush_resent_as_one_frame;
          Alcotest.test_case "a frame sent after a suspicion gets its own RTO" `Quick
            test_frame_after_suspicion_gets_an_rto;
          Alcotest.test_case "a cold tier waits the full call timeout" `Quick
            test_cold_tier_waits_full_timeout;
          Alcotest.test_case "the RTO stays within [0.2 s, 1 s]" `Quick test_rto_clamps;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "a query answered during another's re-send is not retried" `Quick
            test_bystander_not_retried;
          Alcotest.test_case "a closed-breaker route during another's skip met no breaker"
            `Quick test_bystander_not_breaker_tripped;
          Alcotest.test_case "an L2 hit during another's re-send reads both flags false" `Quick
            test_l2_hit_flags_false;
          Alcotest.test_case "a query whose own frame trips the breaker reads it" `Quick
            test_own_trip_flagged;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, byte-identical report and metric dump" `Quick
            test_same_seed_identical_runs;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "one cold decision stays within its word bound" `Quick
            test_cold_decision_allocation;
        ] );
    ]
