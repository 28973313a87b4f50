(* The offline authorization replica: signed-log integrity at sync time,
   the offline rung of the PEP ladder, and the coalesced-waiter
   provenance regression.

   The convergence story (partition -> diverge -> heal -> deny-wins
   replay equals a flat reference) lives in test_model; this suite goes
   after the adversarial and integration edges:

   - a mutated, reordered, truncated or forged log segment is rejected
     at sync with the distinct error for its tamper class, the whole
     segment is refused (never partially or silently replayed), and the
     rejection metric increments under the matching reason label;
   - a partitioned PEP descends to the offline rung: decisions carry
     [offline] provenance with the replica's epoch and log head, are
     never written back to L1, and an offline Indeterminate falls
     through to fail-closed without ever being logged;
   - a coalesced waiter parked across the partition transition observes
     the rung that actually answered (offline), not the leader's
     pre-partition rung;
   - on random scripts over 2-3 replicas, whose shared clock also steps
     back, replay agrees with a reference deny-wins replay on the
     interpreter: state digest, purged keys, conflicts and stats, with
     replay judging the request as logged and re-checking no more
     Decides than the reference, which re-checks every one; and
     [events], the order both replays follow, is the replica's log
     sorted in total order;
   - the log renders Double and Time values exactly, so a Decide's
     logged context reads back to the one served;
   - a heal of two diverged replicas allocates a bounded number of words
     per moved event, and one Decide a bounded number of words and
     canonical bytes. *)

module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Expr = Dacs_policy.Expr
module Combine = Dacs_policy.Combine
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Value = Dacs_policy.Value
module Net = Dacs_net.Net
module Service = Dacs_ws.Service
module Metrics = Dacs_telemetry.Metrics
module Chain = Dacs_crypto.Chain
open Dacs_core
module O = Offline

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string
let mesh_key = Dacs_crypto.Sha256.digest "test-offline-mesh"

let pol =
  Policy.make ~id:"offline-p" ~rule_combining:Combine.First_applicable
    [
      Rule.permit ~condition:(Expr.one_of (Expr.subject_attr "role") [ "doctor" ]) "doctors";
      Rule.deny "default-deny";
    ]

let ctx ?(subject = "alice") () =
  Context.make
    ~subject:[ ("subject-id", Value.String subject) ]
    ~resource:[ ("resource-id", Value.String "chart") ]
    ~action:[ ("action-id", Value.String "read") ]
    ()

let replica ?metrics name = O.create ?metrics ~now:(fun () -> 0.0) ~key:mesh_key ~author:name ()

(* A replica with a few events to sync: policy, a grant, a revoke. *)
let populated ?metrics name =
  let o = replica ?metrics name in
  O.publish o (Policy.Inline_policy pol);
  O.grant o ~subject:"alice" ~attr:"role" ~value:"doctor";
  O.revoke o ~subject:"bob" ~attr:"role";
  o

(* --- log basics ----------------------------------------------------------- *)

let test_log_basics () =
  let o = populated "alpha" in
  (* One author: the chain head is the last event's digest. *)
  let own_head () = (List.nth (O.events o) (List.length (O.events o) - 1)).O.digest in
  check int_ "three events logged" 3 (O.stats o).O.events_logged;
  check bool_ "head advanced" true (own_head () <> Chain.genesis);
  (match O.frontier o with
  | [ ("alpha", 3) ] -> ()
  | _ -> Alcotest.fail "frontier should be [alpha -> 3]");
  let seqs = List.map (fun e -> e.O.seq) (O.events o) in
  check bool_ "events in order" true (seqs = [ 1; 2; 3 ]);
  (* own chain verifies link by link *)
  match O.decide o (ctx ()) with
  | Some (r, head) ->
    check bool_ "granted from log" true (r.Decision.decision = Decision.Permit);
    check string_ "decision stamped with head" (Chain.short (own_head ())) head;
    check int_ "decide logged" 4 (O.stats o).O.events_logged
  | None -> Alcotest.fail "no offline decision"

let test_sync_pair_converges () =
  let a = populated "alpha" and b = replica "beta" in
  O.grant b ~subject:"carol" ~attr:"role" ~value:"nurse";
  (match O.sync_pair a b with
  | Ok n -> check int_ "all events moved" 4 n
  | Error e -> Alcotest.failf "honest sync rejected: %s" (O.sync_error_to_string e));
  check string_ "digests converge" (O.state_digest a) (O.state_digest b);
  check bool_ "grants merged" true
    (List.mem ("carol", "role", "nurse") (O.surviving_grants a))

(* --- tamper rejection ------------------------------------------------------ *)

let reasons metrics =
  Metrics.sum_counter_by metrics "offline_sync_rejections_total" ~label:"reason"

let segment_for dst src = O.missing_for src ~frontier:(O.frontier dst)

(* Every tamper test asserts the same containment: admit returns the
   distinct error, and nothing of the segment — not even its honest
   prefix — reaches the local log. *)
let assert_rejected ~what ~reason metrics a seg expect =
  let before = (O.stats a).O.events_known in
  let digest = O.state_digest a in
  (match O.admit a seg with
  | Error e -> expect e
  | Ok n -> Alcotest.failf "%s admitted (%d events)" what n);
  check int_ (what ^ ": nothing admitted") before (O.stats a).O.events_known;
  check string_ (what ^ ": state untouched") digest (O.state_digest a);
  check bool_ (what ^ ": rejection metric") true
    (match List.assoc_opt reason (reasons metrics) with Some n -> n >= 1 | None -> false)

let test_mutated_segment_rejected () =
  let metrics = Metrics.create () in
  let a = replica ~metrics "alpha" and b = populated "beta" in
  let seg =
    List.map
      (fun ev ->
        if ev.O.seq = 2 then
          { ev with O.kind = O.Grant { subject = "mallory"; attr = "role"; value = "doctor" } }
        else ev)
      (segment_for a b)
  in
  assert_rejected ~what:"mutated event" ~reason:"chain-mismatch" metrics a seg (function
    | O.Chain_mismatch { author = "beta"; seq = 2 } -> ()
    | e -> Alcotest.failf "expected Chain_mismatch beta/2, got %s" (O.sync_error_to_string e));
  (* the honest segment still goes through afterwards *)
  match O.admit a (segment_for a b) with
  | Ok 3 -> check string_ "converged after honest resend" (O.state_digest b) (O.state_digest a)
  | Ok n -> Alcotest.failf "expected 3 events, got %d" n
  | Error e -> Alcotest.failf "honest resend rejected: %s" (O.sync_error_to_string e)

let test_reordered_segment_rejected () =
  (* Swap the payloads of two links but keep their claimed digests: the
     recomputation diverges at the first swapped link. *)
  let metrics = Metrics.create () in
  let a = replica ~metrics "alpha" and b = populated "beta" in
  let seg =
    match segment_for a b with
    | [ e1; e2; e3 ] ->
      [ { e1 with O.kind = e2.O.kind }; { e2 with O.kind = e1.O.kind }; e3 ]
    | _ -> Alcotest.fail "expected 3 events"
  in
  assert_rejected ~what:"reordered payloads" ~reason:"chain-mismatch" metrics a seg (function
    | O.Chain_mismatch { author = "beta"; seq = 1 } -> ()
    | e -> Alcotest.failf "expected Chain_mismatch beta/1, got %s" (O.sync_error_to_string e))

let test_truncated_segment_rejected () =
  (* Drop the head of the suffix: the remainder is non-contiguous with
     what we know. *)
  let metrics = Metrics.create () in
  let a = replica ~metrics "alpha" and b = populated "beta" in
  let seg = List.filter (fun ev -> ev.O.seq <> 1) (segment_for a b) in
  assert_rejected ~what:"truncated segment" ~reason:"gap" metrics a seg (function
    | O.Gap { author = "beta"; expected = 1; got = 2 } -> ()
    | e -> Alcotest.failf "expected Gap beta 1/2, got %s" (O.sync_error_to_string e))

let test_out_of_order_segment_rejected () =
  (* Swap the positions of two honest links: each author's fresh events
     must arrive in seq order, as [missing_for] exports them. *)
  let metrics = Metrics.create () in
  let a = replica ~metrics "alpha" and b = populated "beta" in
  let seg =
    match segment_for a b with
    | [ e1; e2; e3 ] -> [ e2; e1; e3 ]
    | _ -> Alcotest.fail "expected 3 events"
  in
  assert_rejected ~what:"out-of-order segment" ~reason:"gap" metrics a seg (function
    | O.Gap { author = "beta"; expected = 1; got = 2 } -> ()
    | e -> Alcotest.failf "expected Gap beta 1/2, got %s" (O.sync_error_to_string e))

let test_forged_tag_rejected () =
  let metrics = Metrics.create () in
  let a = replica ~metrics "alpha" and b = populated "beta" in
  let seg =
    List.map
      (fun ev -> if ev.O.seq = 3 then { ev with O.tag = String.make 32 '\000' } else ev)
      (segment_for a b)
  in
  assert_rejected ~what:"forged tag" ~reason:"bad-signature" metrics a seg (function
    | O.Bad_signature { author = "beta"; seq = 3 } -> ()
    | e -> Alcotest.failf "expected Bad_signature beta/3, got %s" (O.sync_error_to_string e))

let test_wrong_mesh_key_rejected () =
  (* A consistently re-chained forgery under the wrong key: the chain
     recomputes, but no valid HMAC can be produced without the mesh
     key. *)
  let metrics = Metrics.create () in
  let a = replica ~metrics "alpha" in
  let outsider =
    O.create ~now:(fun () -> 0.0) ~key:(Dacs_crypto.Sha256.digest "other-mesh") ~author:"beta" ()
  in
  O.publish outsider (Policy.Inline_policy pol);
  let seg = segment_for a outsider in
  assert_rejected ~what:"wrong mesh key" ~reason:"bad-signature" metrics a seg (function
    | O.Bad_signature { author = "beta"; seq = 1 } -> ()
    | e -> Alcotest.failf "expected Bad_signature beta/1, got %s" (O.sync_error_to_string e))

let test_partial_tamper_rejects_whole_segment () =
  (* First two links honest, third mutated: verify-then-commit means the
     honest prefix is not admitted either. *)
  let metrics = Metrics.create () in
  let a = replica ~metrics "alpha" and b = populated "beta" in
  let seg =
    List.map
      (fun ev ->
        if ev.O.seq = 3 then { ev with O.kind = O.Revoke { subject = "alice"; attr = "role" } }
        else ev)
      (segment_for a b)
  in
  assert_rejected ~what:"tampered tail" ~reason:"chain-mismatch" metrics a seg (function
    | O.Chain_mismatch { author = "beta"; seq = 3 } -> ()
    | e -> Alcotest.failf "expected Chain_mismatch beta/3, got %s" (O.sync_error_to_string e))

(* --- RPC sync over the simulated network ---------------------------------- *)

let test_sync_rpc_partition_heal () =
  let net = Net.create ~seed:5L () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let an = add "a.offline" and bn = add "b.offline" in
  let a = replica "alpha" and b = populated "beta" in
  O.serve a services ~node:an;
  O.serve b services ~node:bn;
  (* partitioned: the round surfaces an error, admits nothing *)
  Net.partition net [ an ] [ bn ];
  let got = ref None in
  O.sync_rpc a services ~src:an ~dst:bn (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Error _) -> ()
  | Some (Ok n) -> Alcotest.failf "partitioned sync admitted %d events" n
  | None -> Alcotest.fail "no sync outcome");
  check int_ "nothing crossed the cut" 0 (O.stats a).O.events_known;
  (* healed: the next round exchanges the suffix *)
  Net.unpartition net [ an ] [ bn ];
  got := None;
  O.sync_rpc a services ~src:an ~dst:bn (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok 3) -> ()
  | Some (Ok n) -> Alcotest.failf "expected 3 events after heal, got %d" n
  | Some (Error e) -> Alcotest.failf "post-heal sync failed: %s" e
  | None -> Alcotest.fail "no sync outcome");
  check string_ "digests converge over RPC" (O.state_digest b) (O.state_digest a)

(* --- stats are registry series ------------------------------------------- *)

(* Two replicas race: alpha grants carol and serves an offline Permit on
   it while beta revokes her; one tampered segment is refused before the
   honest sync, whose replay surfaces the conflict and invalidates the
   Permit. *)
let race ?metrics () =
  let now = ref 0.0 in
  let mk author =
    O.create ?metrics
      ~now:(fun () ->
        now := !now +. 1.0;
        !now)
      ~key:mesh_key ~author ()
  in
  let a = mk "alpha" and b = mk "beta" in
  O.publish a (Policy.Inline_policy pol);
  ignore (O.sync_pair a b);
  O.grant a ~subject:"carol" ~attr:"role" ~value:"doctor";
  ignore (O.decide a (ctx ~subject:"carol" ()));
  O.revoke b ~subject:"carol" ~attr:"role";
  let tampered =
    List.map (fun ev -> { ev with O.at = ev.O.at +. 0.5 }) (segment_for a b)
  in
  (match O.admit a tampered with
  | Error _ -> ()
  | Ok n -> Alcotest.failf "tampered segment admitted (%d events)" n);
  ignore (O.sync_pair a b);
  ignore (O.state_digest a);
  ignore (O.state_digest b);
  (a, b)

let stats_of_series metrics author =
  let series name =
    Metrics.counter_value (Metrics.counter metrics ~labels:[ ("domain", author) ] name)
  in
  fun (o : O.t) ->
    {
      (O.stats o) with
      O.events_logged = series "offline_events_total";
      replays = series "offline_replays_total";
      invalidations = series "offline_retroactive_invalidations_total";
      conflicts = series "offline_conflicts_total";
      sync_rejections =
        Option.value ~default:0
          (List.assoc_opt author
             (Metrics.sum_counter_by metrics "offline_sync_rejections_total" ~label:"domain"));
      offline_decides = series "offline_decides_total";
    }

let test_stats_are_registry_series () =
  let metrics = Metrics.create () in
  let a, b = race ~metrics () in
  let sa = O.stats a in
  check int_ "events logged" 3 sa.O.events_logged;
  check int_ "one offline decide" 1 sa.O.offline_decides;
  check int_ "one tampered segment refused" 1 sa.O.sync_rejections;
  check int_ "the race surfaced" 1 sa.O.conflicts;
  check int_ "the offline Permit invalidated" 1 sa.O.invalidations;
  check bool_ "alpha: stats = its series" true (stats_of_series metrics "alpha" a = sa);
  check bool_ "beta: stats = its series" true (stats_of_series metrics "beta" b = O.stats b);
  check int_ "beta refused nothing" 0 (O.stats b).O.sync_rejections;
  let a', _ = race () in
  check bool_ "a private registry counts the same" true (O.stats a' = sa)

(* --- the PEP's offline rung ------------------------------------------------ *)

type stack = { net : Net.t; pep : Pep.t; offline : O.t }

let make_stack ?(attach = true) ?(with_policy = true) () =
  let net = Net.create ~seed:11L () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let shards =
    List.init 2 (fun i ->
        let node = add (Printf.sprintf "pdp%d" i) in
        ignore
          (Pdp_service.create services ~node ~name:node ~root:(Policy.Inline_policy pol) ());
        node)
  in
  let tier = Pdp_tier.create services ~node:(add "pep") ~shards () in
  let pep =
    Pep.create services ~node:"pep" ~domain:"d" ~resource:"chart"
      (Pep.Sharded { tier; cache = Some (Decision_cache.create ~ttl:600.0 ()) })
  in
  let offline = replica ~metrics:(Service.metrics services) "d" in
  if with_policy then O.publish offline (Policy.Inline_policy pol);
  O.grant offline ~subject:"alice" ~attr:"role" ~value:"doctor";
  if attach then Pep.set_offline_replica pep (Some offline);
  Net.run net;
  { net; pep; offline }

let crash_tier s =
  Net.crash s.net "pdp0";
  Net.crash s.net "pdp1"

let decide_explained s c =
  let answer = ref None in
  Pep.decide_explained s.pep c (fun r p -> answer := Some (r, p));
  Net.run s.net;
  match !answer with None -> Alcotest.fail "no answer" | Some rp -> rp

let test_pep_offline_rung () =
  let s = make_stack () in
  crash_tier s;
  let r, p = decide_explained s (ctx ()) in
  check bool_ "permit from the log" true (r.Decision.decision = Decision.Permit);
  check string_ "offline stage" "offline" (Provenance.stage_name p.Provenance.stage);
  check int_ "offline epoch stamped" (O.epoch s.offline) p.Provenance.epoch;
  check bool_ "epoch started" true (O.epoch s.offline >= 1);
  (match p.Provenance.log_head with
  | Some h -> check bool_ "log head stamped" true (String.length h = 12)
  | None -> Alcotest.fail "offline provenance must carry the log head");
  (* offline answers are never cached: the identical repeat descends the
     ladder again and is served offline again *)
  let _, p2 = decide_explained s (ctx ()) in
  check string_ "second serve also offline" "offline" (Provenance.stage_name p2.Provenance.stage);
  let st = Pep.stats s.pep in
  check int_ "offline_serves counted" 2 st.Pep.offline_serves;
  check int_ "no cache hits" 0 st.Pep.cache_hits;
  check int_ "decides logged" 2 (O.stats s.offline).O.offline_decides

let test_pep_offline_deny () =
  let s = make_stack () in
  crash_tier s;
  let r, p = decide_explained s (ctx ~subject:"bob" ()) in
  check bool_ "deny from the log" true (r.Decision.decision = Decision.Deny);
  check string_ "offline stage" "offline" (Provenance.stage_name p.Provenance.stage)

let test_pep_offline_indeterminate_falls_through () =
  (* No policy in the log: Offline.decide has no basis, the ladder falls
     to fail-closed, and nothing is logged (an Indeterminate can never
     replay into a grant). *)
  let s = make_stack ~with_policy:false () in
  crash_tier s;
  let logged = (O.stats s.offline).O.events_logged in
  let r, p = decide_explained s (ctx ()) in
  (match r.Decision.decision with
  | Decision.Indeterminate _ -> ()
  | d -> Alcotest.failf "expected Indeterminate, got %s" (Decision.decision_to_string d));
  check string_ "fail-closed stage" "fail-closed" (Provenance.stage_name p.Provenance.stage);
  check int_ "nothing logged" logged (O.stats s.offline).O.events_logged;
  check int_ "no offline serve counted" 0 (Pep.stats s.pep).Pep.offline_serves

let test_pep_without_replica_fails_closed () =
  let s = make_stack ~attach:false () in
  crash_tier s;
  let r, p = decide_explained s (ctx ()) in
  (match r.Decision.decision with
  | Decision.Indeterminate _ -> ()
  | d -> Alcotest.failf "expected Indeterminate, got %s" (Decision.decision_to_string d));
  check string_ "fail-closed stage" "fail-closed" (Provenance.stage_name p.Provenance.stage)

(* The satellite regression: a waiter coalesced onto a leader whose
   descent was cut off mid-flight must observe the rung that actually
   answered (offline), with its own coalesced flag — not the leader's
   pre-partition rung. *)
let test_coalesced_waiter_across_partition () =
  let s = make_stack () in
  let leader = ref None and waiter = ref None in
  Pep.decide_explained s.pep (ctx ()) (fun r p -> leader := Some (r, p));
  Pep.decide_explained s.pep (ctx ()) (fun r p -> waiter := Some (r, p));
  (* the tier call is now in flight; the partition lands before it
     completes *)
  crash_tier s;
  Net.run s.net;
  match (!leader, !waiter) with
  | Some (lr, lp), Some (wr, wp) ->
    check string_ "leader answered offline" "offline" (Provenance.stage_name lp.Provenance.stage);
    check string_ "waiter observes the completion rung" "offline"
      (Provenance.stage_name wp.Provenance.stage);
    check bool_ "waiter flagged coalesced" true wp.Provenance.coalesced;
    check bool_ "leader not flagged" false lp.Provenance.coalesced;
    check bool_ "same decision" true (lr.Decision.decision = wr.Decision.decision);
    check int_ "one descent, one offline serve" 1 (Pep.stats s.pep).Pep.offline_serves;
    check int_ "waiter counted as coalesced" 1 (Pep.stats s.pep).Pep.coalesced
  | _ -> Alcotest.fail "both callbacks must fire"

(* --- oracle: the replay against a reference deny-wins replay ------------- *)

(* Replay judges the request as logged, and the log renders Double and
   Time values exactly.  Under [late_pol], a non-doctor asking at time
   1000000.4 is permitted; a lossy %g rendering would log "1e+06" — not
   later than 1e6 — and a replay judging those bytes would deny and purge
   the key although nothing it depends on changed. *)
let late_pol =
  Policy.make ~id:"offline-late" ~rule_combining:Combine.First_applicable
    [
      Rule.permit ~condition:(Expr.one_of (Expr.subject_attr "role") [ "doctor" ]) "doctors";
      Rule.permit
        ~condition:
          (Expr.Apply
             ( "time-greater-than",
               [
                 Expr.Apply
                   ( "time-one-and-only",
                     [
                       Expr.Designator
                         { category = Context.Environment; attribute_id = "time"; must_be_present = false };
                     ] );
                 Expr.Const (Value.Time 1e6);
               ] ))
        "late";
      Rule.deny "default-deny";
    ]

let nurse_pol =
  Policy.make ~id:"offline-nurse" ~rule_combining:Combine.First_applicable
    [
      Rule.permit ~condition:(Expr.one_of (Expr.subject_attr "role") [ "nurse" ]) "nurses";
      Rule.deny "default-deny";
    ]

let oracle_policies = [| late_pol; nurse_pol |]

(* A chart read by [subject], at [time] when one is given. *)
let ctx_at subject time =
  Context.make
    ~subject:[ ("subject-id", Value.String subject) ]
    ~resource:[ ("resource-id", Value.String "chart") ]
    ~action:[ ("action-id", Value.String "read") ]
    ~environment:(match time with Some t -> [ ("time", Value.Time t) ] | None -> [])
    ()

let test_log_renders_floats_exactly () =
  let o = replica "alpha" in
  O.publish o (Policy.Inline_policy late_pol);
  let c = ctx_at "bob" (Some 1000000.4) in
  (match O.decide o c with
  | Some (r, _) -> check bool_ "permitted live" true (r.Decision.decision = Decision.Permit)
  | None -> Alcotest.fail "no offline decision");
  check bool_ "the logged context reads back to the served one" true
    (List.exists
       (fun ev ->
         match ev.O.kind with
         | O.Decide { ctx; _ } -> (
           match Context.read_compact ctx with Ok logged -> Context.equal logged c | Error _ -> false)
         | _ -> false)
       (O.events o));
  (* A revoke of a role nobody holds dirties the log but derives the same
     state: the Decide takes the shortcut, bytes and all. *)
  O.revoke o ~subject:"carol" ~attr:"role";
  ignore (O.state_digest o);
  check int_ "nothing re-checked" 0 (O.stats o).O.rechecked;
  (* An unrelated grant changes the converged grants, so the Decide is
     re-evaluated from its logged bytes — and they still permit. *)
  O.grant o ~subject:"carol" ~attr:"role" ~value:"nurse";
  ignore (O.state_digest o);
  check int_ "re-checked once" 1 (O.stats o).O.rechecked;
  check int_ "no invalidation" 0 (O.stats o).O.invalidations

(* Replay re-evaluates only the Decides a merge could flip.  Two
   replicas publish the same policy and share alice's and bob's grants,
   then decide while apart: the merge changes neither the grants nor the
   adopted policy bytes, so nothing is re-checked.  A revoke of alice's
   role, concurrent with one more of her Decides, then fires exactly her
   Decides at both replicas. *)
let test_replay_rechecks_what_changed () =
  let a = replica "alpha" and b = replica "beta" in
  let replicas = [ (a, "alpha"); (b, "beta") ] in
  O.publish a (Policy.Inline_policy nurse_pol);
  O.publish b (Policy.Inline_policy nurse_pol);
  O.grant a ~subject:"alice" ~attr:"role" ~value:"nurse";
  O.grant a ~subject:"bob" ~attr:"role" ~value:"nurse";
  ignore (O.sync_pair a b);
  let decide o subject expected =
    match O.decide o (ctx_at subject None) with
    | Some (r, _) -> check bool_ (subject ^ " decided") true (r.Decision.decision = expected)
    | None -> Alcotest.fail "no offline decision"
  in
  decide a "alice" Decision.Permit;
  decide a "bob" Decision.Permit;
  decide b "alice" Decision.Permit;
  decide b "carol" Decision.Deny;
  (match O.sync_pair a b with Ok n -> check int_ "decides exchanged" 4 n | Error _ -> Alcotest.fail "sync");
  List.iter
    (fun (o, name) ->
      check int_ (name ^ ": nothing re-checked") 0 (O.stats o).O.rechecked;
      check int_ (name ^ ": nothing invalidated") 0 (O.stats o).O.invalidations)
    replicas;
  O.revoke b ~subject:"alice" ~attr:"role";
  decide a "alice" Decision.Permit;
  ignore (O.sync_pair a b);
  List.iter
    (fun (o, name) -> check int_ (name ^ ": alice's three Decides fire") 3 (O.stats o).O.invalidations)
    replicas

(* The shortcut derives a Decide's state from the events its frontier
   covers, so it must know all of them.  Here alpha admits gamma's Deny
   of alice without beta's revoke that caused it: under alpha's state
   alice is a nurse, so the full replay's re-check contradicts the Deny
   and invalidates it, and so must ours. *)
let test_replay_rechecks_without_causal_past () =
  let a = replica "alpha" and b = replica "beta" and c = replica "gamma" in
  O.publish a (Policy.Inline_policy nurse_pol);
  O.grant a ~subject:"alice" ~attr:"role" ~value:"nurse";
  ignore (O.sync_pair a b);
  ignore (O.sync_pair a c);
  O.revoke b ~subject:"alice" ~attr:"role";
  ignore (O.sync_pair b c);
  (match O.decide c (ctx_at "alice" None) with
  | Some (r, _) -> check bool_ "gamma denies" true (r.Decision.decision = Decision.Deny)
  | None -> Alcotest.fail "no offline decision");
  let gammas = List.filter (fun ev -> ev.O.author = "gamma") (O.missing_for c ~frontier:(O.frontier a)) in
  check bool_ "gamma's segment admitted" true (O.admit a gammas = Ok 1);
  check int_ "the Deny is invalidated" 1 (O.stats a).O.invalidations;
  check int_ "re-checked" 1 (O.stats a).O.rechecked

type op =
  | Grant of int * string * string
  | Revoke of int * string
  | Publish of int * int
  | Decide of int * string * float option
  | Sync of int * int
  | Tick
  | Rewind
  | Digest of int

let show_op = function
  | Grant (i, s, v) -> Printf.sprintf "grant %d %s=%s" i s v
  | Revoke (i, s) -> Printf.sprintf "revoke %d %s" i s
  | Publish (i, p) -> Printf.sprintf "publish %d #%d" i p
  | Decide (i, s, Some t) -> Printf.sprintf "decide %d %s @%.1f" i s t
  | Decide (i, s, None) -> Printf.sprintf "decide %d %s" i s
  | Sync (i, j) -> Printf.sprintf "sync %d %d" i j
  | Tick -> "tick"
  | Rewind -> "rewind"
  | Digest i -> Printf.sprintf "digest %d" i

let script_gen =
  let open QCheck.Gen in
  int_range 2 3 >>= fun n ->
  let replica = int_bound (n - 1) in
  let subject = oneofl [ "alice"; "bob"; "carol" ] in
  let op =
    frequency
      [
        (3, map3 (fun i s v -> Grant (i, s, v)) replica subject (oneofl [ "doctor"; "nurse" ]));
        (2, map2 (fun i s -> Revoke (i, s)) replica subject);
        (1, map2 (fun i p -> Publish (i, p)) replica (int_bound (Array.length oracle_policies - 1)));
        ( 4,
          map3
            (fun i s t -> Decide (i, s, t))
            replica subject
            (oneofl [ Some 0.0; Some 1000000.4; Some 2e6; None; None ]) );
        (2, map2 (fun i d -> Sync (i, (i + 1 + d) mod n)) replica (int_bound (n - 2)));
        (2, return Tick);
        (1, return Rewind);
        (1, map (fun i -> Digest i) replica);
      ]
  in
  map (fun ops -> (n, ops)) (list_size (int_range 1 40) op)

(* The reference replay: deny-wins over the replica's merged log with
   the interpreter, lists for every set, and its own counts of replays,
   conflicts and invalidations. *)
type ref_state = {
  r_grants : (string * string * string) list;
  r_policy : Policy.child option;
  r_conflicts : O.conflict list;
}

type model = {
  o : O.t;
  mutable dirty : bool;
  mutable state : ref_state;
  mutable fired : (string * int) list;
  mutable known : (string * int * string * int) list;
  mutable logged : int;
  mutable replays : int;
  mutable replayed : int;
  mutable rechecks : int;
  mutable invalidations : int;
  mutable conflicts : int;
  mutable decides : int;
}

let covers frontier author seq =
  match List.assoc_opt author frontier with Some n -> n >= seq | None -> false

let key_of = function
  | O.Grant { subject; attr; _ } | O.Revoke { subject; attr } -> Some (subject, attr)
  | _ -> None

let enrich grants ctx =
  match Context.subject_id ctx with
  | None -> ctx
  | Some subject ->
    List.fold_left
      (fun ctx (s, a, v) ->
        if s = subject && Context.bag ctx Context.Subject a = [] then
          Context.add ctx Context.Subject a (Value.String v)
        else ctx)
      ctx grants

let ref_evaluate state ctx =
  Option.map (fun child -> Policy.evaluate_child (enrich state.r_grants ctx) child) state.r_policy

let ref_replay m =
  let all = O.events m.o in
  m.replays <- m.replays + 1;
  m.replayed <- m.replayed + List.length all;
  let is_grant e = match e.O.kind with O.Grant _ -> true | _ -> false in
  let is_revoke e = match e.O.kind with O.Revoke _ -> true | _ -> false in
  let revokes = List.filter is_revoke all in
  let defeaters g =
    List.filter
      (fun r -> key_of r.O.kind = key_of g.O.kind && not (covers g.O.frontier r.O.author r.O.seq))
      revokes
  in
  let grants = List.filter is_grant all in
  let values =
    List.fold_left
      (fun acc g ->
        match g.O.kind with
        | O.Grant { subject; attr; value } when defeaters g = [] ->
          ((subject, attr), value) :: List.remove_assoc (subject, attr) acc
        | _ -> acc)
      [] grants
  in
  let races =
    List.concat_map
      (fun g ->
        List.filter_map
          (fun r -> if covers r.O.frontier g.O.author g.O.seq then None else Some (g, r))
          (defeaters g))
      grants
  in
  List.iter
    (fun (g, r) ->
      let id = (g.O.author, g.O.seq, r.O.author, r.O.seq) in
      if not (List.mem id m.known) then begin
        m.known <- id :: m.known;
        m.conflicts <- m.conflicts + 1
      end)
    races;
  let conflict (g, r) =
    match g.O.kind with
    | O.Grant { subject; attr; _ } ->
      {
        O.c_subject = subject;
        c_attr = attr;
        c_grant_author = g.O.author;
        c_revoke_author = r.O.author;
        c_at = g.O.at;
      }
    | _ -> assert false
  in
  let policy =
    List.fold_left
      (fun acc e ->
        match e.O.kind with
        | O.Publish { policy } -> (
          match Dacs_policy.Xacml_xml.child_of_string policy with Ok c -> Some c | Error _ -> acc)
        | _ -> acc)
      None all
  in
  m.state <-
    {
      r_grants = List.sort compare (List.map (fun ((s, a), v) -> (s, a, v)) values);
      r_policy = policy;
      r_conflicts = List.sort_uniq compare (List.map conflict races);
    };
  List.iter
    (fun e ->
      match e.O.kind with
      | O.Decide { ctx; decision; _ } when not (List.mem (e.O.author, e.O.seq) m.fired) -> (
        m.rechecks <- m.rechecks + 1;
        match Result.to_option (Context.read_compact ctx) |> Option.map (ref_evaluate m.state) with
        | Some (Some r) when Decision.decision_to_string r.Decision.decision <> decision ->
          m.fired <- (e.O.author, e.O.seq) :: m.fired;
          m.invalidations <- m.invalidations + 1
        | _ -> ())
      | _ -> ())
    all;
  m.dirty <- false

let ref_force m = if m.dirty then ref_replay m

let ref_digest m =
  let b = Buffer.create 256 in
  Buffer.add_string b "grants\n";
  List.iter (fun (s, a, v) -> Buffer.add_string b (Printf.sprintf "%s|%s|%s\n" s a v)) m.state.r_grants;
  Buffer.add_string b "policy\n";
  Buffer.add_string b
    (match m.state.r_policy with Some c -> Dacs_policy.Xacml_xml.child_to_string c | None -> "-");
  Buffer.add_string b "\nconflicts\n";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "%s|%s|%s|%s|%.17g\n" c.O.c_subject c.O.c_attr c.O.c_grant_author c.O.c_revoke_author
           c.O.c_at))
    m.state.r_conflicts;
  Dacs_crypto.Sha256.hex_digest (Buffer.contents b)

(* The replay order [(at, author, seq)], sorted directly. *)
let in_total_order events =
  List.sort
    (fun a b -> compare (a.O.at, a.O.author, a.O.seq) (b.O.at, b.O.author, b.O.seq))
    events

let missing ~from ~into =
  let known = List.map (fun e -> (e.O.author, e.O.seq)) (O.events into.o) in
  List.length (List.filter (fun e -> not (List.mem (e.O.author, e.O.seq) known)) (O.events from.o))

let run_script (n, ops) =
  let clock = ref 0.0 in
  let ms =
    Array.init n (fun i ->
        let o = O.create ~now:(fun () -> !clock) ~key:mesh_key ~author:(Printf.sprintf "dom%d" i) () in
        let m =
          {
            o;
            dirty = true;
            state = { r_grants = []; r_policy = None; r_conflicts = [] };
            fired = [];
            known = [];
            logged = 0;
            replays = 0;
            replayed = 0;
            rechecks = 0;
            invalidations = 0;
            conflicts = 0;
            decides = 0;
          }
        in
        m)
  in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let appended m =
    m.logged <- m.logged + 1;
    m.dirty <- true
  in
  let digest_agrees i =
    let m = ms.(i) in
    let ours = O.state_digest m.o in
    ref_force m;
    ours = ref_digest m || fail "replica %d: state digest differs from the reference" i
  in
  let step = function
    | Grant (i, subject, value) ->
      O.grant ms.(i).o ~subject ~attr:"role" ~value;
      appended ms.(i);
      true
    | Revoke (i, subject) ->
      O.revoke ms.(i).o ~subject ~attr:"role";
      appended ms.(i);
      true
    | Publish (i, p) ->
      O.publish ms.(i).o (Policy.Inline_policy oracle_policies.(p));
      appended ms.(i);
      true
    | Decide (i, subject, time) -> (
      let m = ms.(i) in
      let c = ctx_at subject time in
      (* the replica replays before it appends the Decide *)
      ref_force m;
      let got = O.decide m.o c in
      let expected =
        match ref_evaluate m.state c with
        | Some { Decision.decision = Decision.Indeterminate _; _ } | None -> None
        | Some r -> Some r
      in
      match (got, expected) with
      | None, None -> true
      | Some (r, _), Some e when r = e ->
        m.logged <- m.logged + 1;
        m.decides <- m.decides + 1;
        true
      | _ -> fail "replica %d: offline decision differs from the reference" i)
    | Sync (i, j) -> (
      let a = ms.(i) and b = ms.(j) in
      let to_b = missing ~from:a ~into:b and to_a = missing ~from:b ~into:a in
      match O.sync_pair a.o b.o with
      | Ok moved ->
        if to_b > 0 then ref_replay b;
        if to_a > 0 then ref_replay a;
        moved = to_b + to_a || fail "sync %d %d moved %d, expected %d" i j moved (to_b + to_a)
      | Error e -> fail "honest sync rejected: %s" (O.sync_error_to_string e))
    | Tick ->
      clock := !clock +. 1.0;
      true
    | Rewind ->
      clock := !clock -. 1.5;
      true
    | Digest i -> digest_agrees i
  in
  List.for_all step ops
  && List.for_all
       (fun i ->
         let m = ms.(i) in
         digest_agrees i
         && (O.events m.o = in_total_order (O.missing_for m.o ~frontier:[])
            || fail "replica %d: events are not its log in total order" i)
         && (O.conflicts m.o = m.state.r_conflicts || fail "replica %d: conflicts differ" i)
         && (O.surviving_grants m.o = m.state.r_grants || fail "replica %d: grants differ" i)
         &&
         let expected =
           {
             O.events_logged = m.logged;
             events_known = List.length (O.events m.o);
             replays = m.replays;
             replayed_events = m.replayed;
             rechecked = (O.stats m.o).O.rechecked;
             invalidations = m.invalidations;
             conflicts = m.conflicts;
             sync_rejections = 0;
             offline_decides = m.decides;
           }
         in
         let show (s : O.stats) =
           Printf.sprintf "logged %d known %d replays %d replayed %d invalidations %d conflicts %d decides %d"
             s.O.events_logged s.events_known s.replays s.replayed_events s.invalidations s.conflicts
             s.offline_decides
         in
         (O.stats m.o = expected
         || fail "replica %d: stats {%s}, reference {%s}" i (show (O.stats m.o)) (show expected))
         && ((O.stats m.o).O.rechecked <= m.rechecks
            || fail "replica %d: %d re-checks, the reference needed %d" i (O.stats m.o).O.rechecked
                 m.rechecks))
       (List.init n Fun.id)

let oracle_test =
  QCheck.Test.make ~name:"replay = reference deny-wins replay (digest, hooks, conflicts, stats)" ~count:300
    (QCheck.make
       ~print:(fun (n, ops) -> Printf.sprintf "%d replicas: %s" n (String.concat ", " (List.map show_op ops)))
       script_gen)
    run_script

(* --- replay order ----------------------------------------------------------- *)

(* A clock reading [times] in turn, then 10.0. *)
let clock times =
  let rest = ref times in
  fun () ->
    match !rest with
    | t :: more ->
      rest := more;
      t
    | [] -> 10.0

(* [events] merges the per-author logs, each in [(at, author, seq)]
   order while its author's clock never steps back, and sorts the log of
   one whose clock did.  Alpha and beta stamp equal times, so the author
   breaks those ties, and beta's clock steps back twice. *)
let test_events_total_order () =
  let a = O.create ~now:(clock [ 1.0; 2.0; 2.0; 3.0; 5.0 ]) ~key:mesh_key ~author:"alpha" ()
  and b = O.create ~now:(clock [ 2.0; 1.0; 2.0; 4.0; 0.5 ]) ~key:mesh_key ~author:"beta" () in
  O.publish a (Policy.Inline_policy pol);
  List.iter
    (fun subject -> O.grant a ~subject ~attr:"role" ~value:"doctor")
    [ "alice"; "bob"; "carol"; "dave" ];
  List.iter
    (fun subject -> O.grant b ~subject ~attr:"role" ~value:"nurse")
    [ "erin"; "frank"; "grace"; "heidi"; "ivan" ];
  (match O.sync_pair a b with
  | Ok n -> check int_ "every event moved" 10 n
  | Error e -> Alcotest.failf "honest sync rejected: %s" (O.sync_error_to_string e));
  let order o = List.map (fun ev -> Printf.sprintf "%s#%d" ev.O.author ev.O.seq) (O.events o) in
  List.iter
    (fun (name, o) ->
      check (Alcotest.list string_)
        (name ^ ": (at, author, seq) order")
        [
          "beta#5"; "alpha#1"; "beta#2"; "alpha#2"; "alpha#3"; "beta#1"; "beta#3"; "alpha#4"; "beta#4";
          "alpha#5";
        ]
        (order o);
      check bool_
        (name ^ ": events = its log sorted")
        true
        (O.events o = in_total_order (O.missing_for o ~frontier:[])))
    [ ("alpha", a); ("beta", b) ];
  check string_ "digests converge" (O.state_digest a) (O.state_digest b)

(* --- allocation of a heal ------------------------------------------------ *)

(* Minor words per moved event of a heal of two diverged replicas, [n]
   Decides a side: the segments both ways, their verification (each
   event re-rendered, chain-hashed and HMAC-checked) and both replays.
   Measured: 32.5 words, of which 15 are the three digests of each
   verified event, 4 its rendered timestamp and 3 its cell in the
   exported segment (480 when each heal sorted the whole log, rebuilt
   and re-sorted per-author lists, copied every event's canonical bytes
   out of the buffer and allocated closures, tuples and cut lists per
   replayed Decide); the bound leaves 10 % headroom. *)
let heal_words_bound = 36.0

let test_heal_allocation () =
  let n = 400 in
  let now = ref 0.0 in
  let mk author = O.create ~now:(fun () -> !now) ~key:mesh_key ~author () in
  let a = mk "alpha" and b = mk "beta" in
  List.iter (fun o -> O.publish o (Policy.Inline_policy pol)) [ a; b ];
  O.grant a ~subject:"user0" ~attr:"role" ~value:"doctor";
  ignore (O.sync_pair a b);
  let ctxs = Array.init 40 (fun i -> ctx ~subject:(Printf.sprintf "user%d" i) ()) in
  O.set_offline a true;
  O.set_offline b true;
  for i = 0 to n - 1 do
    now := !now +. 0.001;
    ignore (O.decide a ctxs.(i mod 40));
    ignore (O.decide b ctxs.((i * 7) mod 40))
  done;
  O.set_offline a false;
  O.set_offline b false;
  let before = Gc.minor_words () in
  let moved =
    match O.sync_pair a b with
    | Ok moved -> moved
    | Error e -> Alcotest.failf "honest heal rejected: %s" (O.sync_error_to_string e)
  in
  let words = (Gc.minor_words () -. before) /. float_of_int moved in
  check int_ "every Decide moved" (2 * n) moved;
  check int_ "alpha re-checked nothing" 0 (O.stats a).O.rechecked;
  check int_ "beta re-checked nothing" 0 (O.stats b).O.rechecked;
  check int_ "alpha invalidated nothing" 0 (O.stats a).O.invalidations;
  check int_ "beta invalidated nothing" 0 (O.stats b).O.invalidations;
  check string_ "digests converge" (O.state_digest a) (O.state_digest b);
  Printf.printf "heal of 2 x %d Decides: %.1f minor words per moved event (bound %.1f)\n" n words
    heal_words_bound;
  check bool_
    (Printf.sprintf "%.1f words <= %.1f" words heal_words_bound)
    true (words <= heal_words_bound)

(* --- the size and cost of one Decide ---------------------------------------- *)

(* A Decide shaped like a workload request (subject-id, role, resource-id,
   action-id) has canonical bytes — [Wire.write_log_link]'s, what the
   chain hashes at append and again at admission — of at most
   [decide_bytes_bound], and one offline decide allocates at most
   [decide_words_bound] minor words, 60 fewer than when the context was
   logged as escaped XACML XML.  Measured: 136 bytes (3 SHA-256 blocks
   with the previous digest) and 173.6 words; hashed as the event's XML
   element, 326 bytes (6 blocks) and 182.6 words, its timestamp rendered
   as a string among them; with the context as XML too, 794 bytes (14
   blocks) and 278.6 words. *)
let decide_bytes_bound = 180
let decide_words_bound = 218.0

let test_decide_cost () =
  let now = ref 0.0 in
  let o = O.create ~now:(fun () -> !now) ~key:mesh_key ~author:"dom0" () in
  O.publish o (Policy.Inline_policy pol);
  O.set_offline o true;
  let ctxs =
    Array.init 40 (fun i ->
        Context.make
          ~subject:[ ("subject-id", Value.String (Printf.sprintf "user%d" i)); ("role", Value.String "nurse") ]
          ~resource:[ ("resource-id", Value.String "res5") ]
          ~action:[ ("action-id", Value.String "read") ]
          ())
  in
  let decide i =
    now := !now +. 0.001;
    ignore (Sys.opaque_identity (O.decide o ctxs.(i mod 40)))
  in
  for i = 0 to 99 do
    decide i
  done;
  let n = 400 in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    decide i
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  let bytes =
    List.fold_left
      (fun acc ev ->
        match ev.O.kind with
        | O.Decide _ ->
          let buf = Buffer.create 512 in
          Wire.write_log_link buf ev;
          max acc (Buffer.length buf)
        | _ -> acc)
      0 (O.events o)
  in
  Printf.printf "one Decide: %d canonical bytes (bound %d), %.1f minor words (bound %.1f)\n" bytes
    decide_bytes_bound words decide_words_bound;
  check bool_ (Printf.sprintf "%d bytes <= %d" bytes decide_bytes_bound) true (bytes <= decide_bytes_bound);
  check bool_
    (Printf.sprintf "%.1f words <= %.1f" words decide_words_bound)
    true (words <= decide_words_bound)

let () =
  Alcotest.run "dacs_offline"
    [
      ( "log",
        [
          Alcotest.test_case "append, head, frontier, decide" `Quick test_log_basics;
          Alcotest.test_case "sync_pair converges" `Quick test_sync_pair_converges;
        ] );
      ( "tamper",
        [
          Alcotest.test_case "mutated event -> Chain_mismatch" `Quick test_mutated_segment_rejected;
          Alcotest.test_case "reordered payloads -> Chain_mismatch" `Quick
            test_reordered_segment_rejected;
          Alcotest.test_case "truncated segment -> Gap" `Quick test_truncated_segment_rejected;
          Alcotest.test_case "out-of-order segment -> Gap" `Quick test_out_of_order_segment_rejected;
          Alcotest.test_case "forged tag -> Bad_signature" `Quick test_forged_tag_rejected;
          Alcotest.test_case "wrong mesh key -> Bad_signature" `Quick test_wrong_mesh_key_rejected;
          Alcotest.test_case "tampered tail rejects honest prefix" `Quick
            test_partial_tamper_rejects_whole_segment;
        ] );
      ( "rpc",
        [ Alcotest.test_case "partition blocks, heal syncs" `Quick test_sync_rpc_partition_heal ] );
      ( "stats",
        [ Alcotest.test_case "stats are the registry's series" `Quick test_stats_are_registry_series ] );
      ( "oracle",
        [
          Alcotest.test_case "the log renders Double and Time exactly" `Quick
            test_log_renders_floats_exactly;
          Alcotest.test_case "replay re-checks only what a merge changed" `Quick
            test_replay_rechecks_what_changed;
          Alcotest.test_case "a Decide without its causal past is re-checked" `Quick
            test_replay_rechecks_without_causal_past;
          QCheck_alcotest.to_alcotest oracle_test;
          Alcotest.test_case "events merge per-author logs in total order" `Quick
            test_events_total_order;
        ] );
      ( "pep",
        [
          Alcotest.test_case "offline rung serves with provenance" `Quick test_pep_offline_rung;
          Alcotest.test_case "offline deny" `Quick test_pep_offline_deny;
          Alcotest.test_case "indeterminate falls through, never logged" `Quick
            test_pep_offline_indeterminate_falls_through;
          Alcotest.test_case "no replica -> fail-closed" `Quick test_pep_without_replica_fails_closed;
          Alcotest.test_case "coalesced waiter across partition transition" `Quick
            test_coalesced_waiter_across_partition;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "a heal stays within its word bound" `Quick test_heal_allocation;
          Alcotest.test_case "a Decide stays within its byte and word bounds" `Quick test_decide_cost;
        ] );
    ]
