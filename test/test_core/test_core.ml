(* Tests for dacs_core components: wire formats, audit, decision cache,
   PAP, PIP, PDP service, capability service, IdP, PEP modes, client,
   delegation, negotiation, conflict analysis, meta-policies. *)

module Xml = Dacs_xml.Xml
module Value = Dacs_policy.Value
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Expr = Dacs_policy.Expr
module Target = Dacs_policy.Target
module Combine = Dacs_policy.Combine
module Obligation = Dacs_policy.Obligation
module Net = Dacs_net.Net
module Rpc = Dacs_net.Rpc
module Service = Dacs_ws.Service
open Dacs_core

(* A string-equal match on one attribute, in any section. *)
let match_string category attribute_id s =
  Target.make_match ~fn:"string-equal" ~value:(Value.String s) ~category ~attribute_id

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let fresh () =
  let net = Net.create () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  (net, services)

let add_node net id =
  Net.add_node net id;
  id

(* A simple policy permitting doctors to read the given resource. *)
let doctor_policy ?(id = "p") resource =
  Policy.Inline_policy
    (Policy.make ~id ~issuer:"domain-a" ~rule_combining:Combine.First_applicable
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

(* --- wire ------------------------------------------------------------- *)

(* Reads back, with [read], the bytes [write] appends. *)
let read_written write read =
  let buf = Buffer.create 64 in
  write buf;
  Result.join (Xml.Cursor.parse (Buffer.contents buf) read)

let test_wire_access_request () =
  let request buf = Wire.write_access_request buf ~subject:(doctor_subject "alice") ~action:"read" in
  match read_written request Wire.Services.access.request with
  | Ok (subject, action) ->
    check string_ "action" "read" action;
    check int_ "attrs" 2 (List.length subject);
    check bool_ "subject-id" true (List.assoc_opt "subject-id" subject = Some (Value.String "alice"))
  | Error e -> Alcotest.fail e

let test_wire_authz_roundtrip () =
  let ctx = Context.make ~subject:(doctor_subject "alice") () in
  (match Wire.parse_authz_query (Wire.authz_query ctx) with
  | Ok ctx' -> check bool_ "ctx" true (Context.equal ctx ctx')
  | Error e -> Alcotest.fail e);
  let result = Decision.with_obligations Decision.permit [ Obligation.audit ] in
  match Wire.parse_authz_response (Wire.authz_response result) with
  | Ok r ->
    check bool_ "decision" true (Decision.is_permit r);
    check int_ "obligations" 1 (List.length r.Decision.obligations)
  | Error e -> Alcotest.fail e

let test_wire_attribute_roundtrip () =
  let q buf = Wire.write_attribute_query buf ~category:Context.Subject ~attribute_id:"role" ~subject:"alice" in
  (match read_written q Wire.Services.attribute_query.request with
  | Ok (c, id, s) ->
    check bool_ "category" true (c = Context.Subject);
    check string_ "id" "role" id;
    check string_ "subject" "alice" s
  | Error e -> Alcotest.fail e);
  let r buf = Wire.write_attribute_result buf [ Value.String "doctor"; Value.Int 3 ] in
  match read_written r Wire.Services.attribute_query.reply with
  | Ok bag -> check int_ "bag" 2 (List.length bag)
  | Error e -> Alcotest.fail e

let test_wire_policy_roundtrip () =
  let child = doctor_policy "r1" in
  let response policy buf = Wire.write_policy_response buf ~version:7 policy in
  (match read_written (response (Some child)) Wire.Services.policy_query.reply with
  | Ok (7, Some c) -> check string_ "id" "p" (Policy.child_id c)
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e);
  (match read_written (response None) Wire.Services.policy_query.reply with
  | Ok (7, None) -> ()
  | _ -> Alcotest.fail "expected current marker");
  match read_written (fun buf -> Wire.write_policy_update buf ~version:3 child) Wire.Services.policy_update.request with
  | Ok (3, c) -> check string_ "id" "p" (Policy.child_id c)
  | _ -> Alcotest.fail "update roundtrip failed"

let test_wire_capability_roundtrip () =
  let request buf =
    Wire.write_capability_request buf ~subject:(doctor_subject "alice")
      ~pairs:[ ("r1", "read"); ("r2", "write") ]
  in
  match read_written request Wire.Services.capability_request.request with
  | Ok (subject, pairs) ->
    check int_ "subject" 2 (List.length subject);
    check int_ "pairs" 2 (List.length pairs);
    check bool_ "pair content" true (List.mem ("r2", "write") pairs)
  | Error e -> Alcotest.fail e

let test_wire_outcomes () =
  let outcome o buf = Wire.write_access_outcome buf o in
  (match read_written (outcome (Wire.Granted { content = "data"; encrypted = false })) Wire.Services.access.reply with
  | Ok (Wire.Granted { content; encrypted }) ->
    check string_ "content" "data" content;
    check bool_ "plain" false encrypted
  | _ -> Alcotest.fail "expected granted");
  match read_written (outcome (Wire.Denied "nope")) Wire.Services.access.reply with
  | Ok (Wire.Denied reason) -> check string_ "reason" "nope" reason
  | _ -> Alcotest.fail "expected denied"

(* --- audit -------------------------------------------------------------- *)

let entry ?(at = 0.0) ?(domain = "d") subject resource decision =
  { Audit.at; domain; subject; resource; action = "read"; decision; provenance = None }

let test_audit_basics () =
  let log = Audit.create () in
  Audit.record log (entry ~at:1.0 "alice" "r1" Decision.Permit);
  Audit.record log (entry ~at:2.0 "alice" "r2" Decision.Deny);
  Audit.record log (entry ~at:3.0 "bob" "r1" Decision.Permit);
  check int_ "size" 3 (Audit.size log);
  check (Alcotest.list string_) "permitted" [ "r1" ] (Audit.permitted_resources log ~subject:"alice")

let test_audit_merge_ordering () =
  let a = Audit.create () and b = Audit.create () in
  Audit.record a (entry ~at:5.0 ~domain:"a" "u" "r1" Decision.Permit);
  Audit.record a (entry ~at:1.0 ~domain:"a" "u" "r2" Decision.Permit);
  Audit.record b (entry ~at:3.0 ~domain:"b" "u" "r3" Decision.Permit);
  let merged = Audit.merge [ a; b ] in
  check (Alcotest.list (Alcotest.float 0.001)) "time ordered" [ 1.0; 3.0; 5.0 ]
    (List.map (fun e -> e.Audit.at) (Audit.entries merged))

(* --- decision cache -------------------------------------------------------- *)

let test_cache_hit_miss_expiry () =
  let c = Decision_cache.create ~ttl:10.0 () in
  check bool_ "miss" true (Decision_cache.get c ~now:0.0 ~key:"k" = None);
  Decision_cache.put c ~now:0.0 ~key:"k" Decision.permit;
  (match Decision_cache.get c ~now:5.0 ~key:"k" with
  | Some r -> check bool_ "hit" true (Decision.is_permit r)
  | None -> Alcotest.fail "expected hit");
  check bool_ "expired" true (Decision_cache.get c ~now:10.1 ~key:"k" = None);
  let s = Decision_cache.stats c in
  check int_ "hits" 1 s.Decision_cache.hits;
  check int_ "misses" 2 s.Decision_cache.misses;
  check int_ "expiries" 1 s.Decision_cache.expiries

let test_cache_eviction () =
  let c = Decision_cache.create ~max_entries:2 ~ttl:100.0 () in
  Decision_cache.put c ~now:0.0 ~key:"a" Decision.permit;
  Decision_cache.put c ~now:1.0 ~key:"b" Decision.permit;
  Decision_cache.put c ~now:2.0 ~key:"c" Decision.permit;
  check int_ "bounded" 2 (Decision_cache.size c);
  (* The oldest key was evicted. *)
  check bool_ "a gone" true (Decision_cache.get c ~now:3.0 ~key:"a" = None);
  check bool_ "c present" true (Decision_cache.get c ~now:3.0 ~key:"c" <> None);
  check int_ "evictions" 1 (Decision_cache.stats c).Decision_cache.evictions

let test_cache_refresh_not_evicted () =
  (* Regression: re-putting a live key used to leave a stale queue entry
     behind; the next capacity eviction then removed the *refreshed* key
     instead of the oldest live one. *)
  let c = Decision_cache.create ~max_entries:2 ~ttl:100.0 () in
  Decision_cache.put c ~now:0.0 ~key:"a" Decision.permit;
  Decision_cache.put c ~now:1.0 ~key:"b" Decision.permit;
  Decision_cache.put c ~now:2.0 ~key:"a" Decision.deny;
  (* refresh, still 2 entries *)
  check int_ "refresh keeps size" 2 (Decision_cache.size c);
  Decision_cache.put c ~now:3.0 ~key:"c" Decision.permit;
  check int_ "bounded" 2 (Decision_cache.size c);
  check bool_ "b (oldest live) evicted" true (Decision_cache.get c ~now:4.0 ~key:"b" = None);
  (match Decision_cache.get c ~now:4.0 ~key:"a" with
  | Some r -> check bool_ "refreshed entry survives with new value" true (Decision.is_deny r)
  | None -> Alcotest.fail "refreshed key was evicted prematurely");
  check bool_ "c present" true (Decision_cache.get c ~now:4.0 ~key:"c" <> None);
  check int_ "one eviction" 1 (Decision_cache.stats c).Decision_cache.evictions

let test_cache_stale_lookup () =
  let c = Decision_cache.create ~ttl:10.0 () in
  Decision_cache.put c ~now:0.0 ~key:"k" Decision.permit;
  (match Decision_cache.lookup c ~now:5.0 ~max_stale:0.0 ~key:"k" with
  | Decision_cache.Fresh r -> check bool_ "fresh hit" true (Decision.is_permit r)
  | _ -> Alcotest.fail "expected Fresh");
  (* Expired by 3 s, within a 5 s stale window: served as stale, retained. *)
  (match Decision_cache.lookup c ~now:13.0 ~max_stale:5.0 ~key:"k" with
  | Decision_cache.Stale { result; age } ->
    check bool_ "stale value" true (Decision.is_permit result);
    check (Alcotest.float 1e-9) "age past expiry" 3.0 age
  | _ -> Alcotest.fail "expected Stale");
  check int_ "stale serve counted" 1 (Decision_cache.stats c).Decision_cache.stale_hits;
  check int_ "entry retained for future stale serves" 1 (Decision_cache.size c);
  (* Beyond the bound the entry is gone for good. *)
  check bool_ "absent past window" true
    (Decision_cache.lookup c ~now:20.0 ~max_stale:4.0 ~key:"k" = Decision_cache.Absent);
  check int_ "expiry counted" 1 (Decision_cache.stats c).Decision_cache.expiries;
  check int_ "removed" 0 (Decision_cache.size c)

let test_cache_invalidation () =
  let c = Decision_cache.create ~ttl:100.0 () in
  Decision_cache.put c ~now:0.0 ~key:"a" Decision.permit;
  Decision_cache.put c ~now:0.0 ~key:"b" Decision.deny;
  check int_ "an empty region drops nothing" 0 (Decision_cache.invalidate_region c Dacs_policy.Delta.Empty);
  check bool_ "a stays" true (Decision_cache.get c ~now:1.0 ~key:"a" <> None);
  check int_ "no purge counted" 0 (Decision_cache.purges c);
  check int_ "an unbounded region drops both" 2
    (Decision_cache.invalidate_region c Dacs_policy.Delta.unbounded);
  check int_ "flushed" 0 (Decision_cache.size c);
  check int_ "one purge counted" 1 (Decision_cache.purges c)

let test_cache_key_stability () =
  let ctx1 = Context.make ~subject:(doctor_subject "alice") ~action:[ ("action-id", Value.String "read") ] () in
  let ctx2 = Context.make ~action:[ ("action-id", Value.String "read") ] ~subject:(doctor_subject "alice") () in
  check string_ "same key" (Decision_cache.request_key ctx1) (Decision_cache.request_key ctx2);
  let ctx3 = Context.make ~subject:(doctor_subject "bob") () in
  check bool_ "different key" true (Decision_cache.request_key ctx1 <> Decision_cache.request_key ctx3)

(* One of each counted event: a miss, a hit, a stale serve, an expiry
   (itself a miss) and a capacity eviction. *)
let drive_cache_events c =
  ignore (Decision_cache.get c ~now:0.0 ~key:"k");
  Decision_cache.put c ~now:0.0 ~key:"k" Decision.permit;
  ignore (Decision_cache.get c ~now:5.0 ~key:"k");
  ignore (Decision_cache.lookup c ~now:12.0 ~max_stale:5.0 ~key:"k");
  ignore (Decision_cache.lookup c ~now:20.0 ~max_stale:1.0 ~key:"k");
  Decision_cache.put c ~now:20.0 ~key:"a" Decision.permit;
  Decision_cache.put c ~now:21.0 ~key:"b" Decision.permit

let expected_cache_stats =
  { Decision_cache.hits = 1; misses = 3; expiries = 1; evictions = 1; stale_hits = 1 }

let cache_stats =
  Alcotest.testable
    (fun ppf (s : Decision_cache.stats) ->
      Format.fprintf ppf "{hits=%d; misses=%d; expiries=%d; evictions=%d; stale_hits=%d}" s.hits
        s.misses s.expiries s.evictions s.stale_hits)
    ( = )

let test_cache_stats_are_registry_series () =
  let m = Dacs_telemetry.Metrics.create () in
  let c = Decision_cache.create ~metrics:m ~owner:"pep-a" ~max_entries:1 ~ttl:10.0 () in
  let idle = Decision_cache.create ~metrics:m ~owner:"pep-b" ~ttl:10.0 () in
  drive_cache_events c;
  let series owner name =
    Dacs_telemetry.Metrics.counter_value
      (Dacs_telemetry.Metrics.counter m ~labels:[ ("cache", owner) ]
         ("decision_cache_" ^ name ^ "_total"))
  in
  let from_registry owner =
    {
      Decision_cache.hits = series owner "hits";
      misses = series owner "misses";
      expiries = series owner "expiries";
      evictions = series owner "evictions";
      stale_hits = series owner "stale_hits";
    }
  in
  check cache_stats "counts" expected_cache_stats (Decision_cache.stats c);
  check cache_stats "stats = registry series" (from_registry "pep-a") (Decision_cache.stats c);
  check cache_stats "another owner's series untouched" (from_registry "pep-b")
    (Decision_cache.stats idle);
  check int_ "idle cache counts nothing" 0 (Decision_cache.stats idle).Decision_cache.misses

let test_cache_stats_without_registry () =
  let c = Decision_cache.create ~max_entries:1 ~ttl:10.0 () in
  drive_cache_events c;
  check cache_stats "same counts in a private registry" expected_cache_stats
    (Decision_cache.stats c)

(* --- pap ------------------------------------------------------------------- *)

let test_pap_query_versions () =
  let net, services = fresh () in
  let pap_node = add_node net "pap" in
  let client = add_node net "pdp" in
  let pap = Pap.create services ~node:pap_node ~name:"pap" ~root:(doctor_policy "r") () in
  check int_ "initial version" 1 (Pap.version pap);
  let got = ref None in
  let query known_version =
    Service.call services ~src:client ~dst:pap_node Wire.Services.policy_query
      (fun buf -> Wire.write_policy_query buf ~scope:"" ~known_version)
      (fun r -> got := Some r);
    Net.run net
  in
  query 0;
  (match !got with
  | Some (Ok (Ok (1, Some _))) -> ()
  | Some (Ok _) -> Alcotest.fail "expected full policy"
  | _ -> Alcotest.fail "no reply");
  (* Known version up to date: small None reply. *)
  query 1;
  match !got with
  | Some (Ok (Ok (1, None))) -> check int_ "queries served" 2 (Pap.queries_served pap)
  | Some (Ok _) -> Alcotest.fail "expected current marker"
  | _ -> Alcotest.fail "no reply"

let admin_policy_for nodes =
  Policy.Inline_policy
    (Policy.make ~id:"admin" ~rule_combining:Combine.First_applicable
       [
         Rule.permit ~condition:(Expr.one_of (Expr.subject_attr "subject-id") nodes) "allow";
         Rule.deny "deny";
       ])

let test_pap_remote_update_access_control () =
  let net, services = fresh () in
  let pap_node = add_node net "pap" in
  let admin = add_node net "admin" in
  let rogue = add_node net "rogue" in
  let pap =
    Pap.create services ~node:pap_node ~name:"pap" ~admin_policy:(admin_policy_for [ "admin" ])
      ~root:(doctor_policy "r") ()
  in
  let send_update src =
    Service.cast services ~src ~dst:pap_node Wire.Services.policy_update (fun buf ->
        Wire.write_policy_update buf ~version:9 (doctor_policy ~id:"p2" "r2"));
    Net.run net
  in
  send_update admin;
  check int_ "admin accepted: version bumped" 2 (Pap.version pap);
  check int_ "accepted count" 1 (Pap.updates_accepted pap);
  check bool_ "the admin's policy stored" true
    (match Pap.current pap with Some c -> Policy.child_id c = "p2" | None -> false);
  send_update rogue;
  check int_ "rejected count" 1 (Pap.updates_rejected pap);
  check int_ "version unchanged" 2 (Pap.version pap)

let test_pap_syndication_cascade () =
  (* Fig. 5: global PAP -> two regional PAPs -> one leaf PAP. *)
  let net, services = fresh () in
  let global = Pap.create services ~node:(add_node net "g") ~name:"g" () in
  let make_child name parent =
    let pap =
      Pap.create services ~node:(add_node net name) ~name
        ~admin_policy:(admin_policy_for [ Pap.node parent ])
        ()
    in
    Pap.subscribe_local parent ~child:(Pap.node pap);
    pap
  in
  let region_a = make_child "ra" global in
  let region_b = make_child "rb" global in
  let leaf = make_child "leaf" region_a in
  Pap.publish global (doctor_policy "r");
  Net.run net;
  check bool_ "region a updated" true (Pap.current region_a <> None);
  check bool_ "region b updated" true (Pap.current region_b <> None);
  check bool_ "leaf updated through the hierarchy" true (Pap.current leaf <> None)

let test_pap_announces_every_update () =
  (* Every accepted update hands its change-impact region to the
     [on_update] hooks; a syndicated update computes the same region at
     the PAP it is pushed to. *)
  let net, services = fresh () in
  let global = Pap.create services ~node:(add_node net "g") ~name:"g" () in
  let child =
    Pap.create services ~node:(add_node net "c") ~name:"c" ~admin_policy:(admin_policy_for [ "g" ]) ()
  in
  Pap.subscribe_local global ~child:"c";
  let captured pap =
    let regions = ref [] in
    Pap.on_update pap (fun r -> regions := r :: !regions);
    fun () ->
      match !regions with
      | [ r ] ->
        regions := [];
        r
      | rs -> Alcotest.failf "expected one announced region, got %d" (List.length rs)
  in
  let at_global = captured global and at_child = captured child in
  let region take = Dacs_policy.Delta.to_string (take ()) in
  Pap.publish global (doctor_policy "r");
  Net.run net;
  let first = at_global () in
  check bool_ "a first publish is unbounded" true (Dacs_policy.Delta.is_unbounded first);
  check string_ "the pushed update carries the same region" (Dacs_policy.Delta.to_string first)
    (region at_child);
  Pap.publish global (doctor_policy "r2");
  Net.run net;
  let edit = at_global () in
  check bool_ "an edit yields zones" true
    (Dacs_policy.Delta.zone_count edit > 0 && not (Dacs_policy.Delta.is_unbounded edit));
  check string_ "same zones below" (Dacs_policy.Delta.to_string edit) (region at_child);
  Pap.publish global (doctor_policy "r2");
  Net.run net;
  check bool_ "a no-op republish is empty" true (Dacs_policy.Delta.is_empty (at_global ()));
  check bool_ "below too" true (Dacs_policy.Delta.is_empty (at_child ()))

let test_pap_hooks_in_order () =
  (* Hooks run in registration order, after the version bump; a no-op
     republish still bumps the version and announces an empty region. *)
  let net, services = fresh () in
  let pap = Pap.create services ~node:(add_node net "pap") ~name:"pap" () in
  let seen = ref [] in
  let hook name region =
    seen := (name, Pap.version pap, Dacs_policy.Delta.is_empty region) :: !seen
  in
  Pap.on_update pap (hook "first");
  Pap.on_update pap (hook "second");
  let v0 = Pap.version pap in
  Pap.publish pap (doctor_policy "r");
  Pap.publish pap (doctor_policy "r");
  check int_ "two bumps" (v0 + 2) (Pap.version pap);
  check
    (Alcotest.list (Alcotest.triple string_ int_ bool_))
    "order, version and region"
    [ ("first", v0 + 1, false); ("second", v0 + 1, false); ("first", v0 + 2, true); ("second", v0 + 2, true) ]
    (List.rev !seen)

let test_pap_update_transform_declines () =
  let net, services = fresh () in
  let parent = Pap.create services ~node:(add_node net "parent") ~name:"parent" () in
  let child =
    Pap.create services ~node:(add_node net "child") ~name:"child"
      ~admin_policy:(admin_policy_for [ "parent" ])
      ()
  in
  Pap.subscribe_local parent ~child:"child";
  (* The child only accepts policies whose id starts with "approved". *)
  Pap.set_update_transform child (fun c ->
      if String.starts_with ~prefix:"approved" (Policy.child_id c) then Some c else None);
  Pap.publish parent (doctor_policy ~id:"rogue-policy" "r");
  Net.run net;
  check bool_ "filtered out" true (Pap.current child = None);
  check int_ "the push is refused" 1 (Pap.updates_rejected child);
  Pap.publish parent (doctor_policy ~id:"approved-1" "r");
  Net.run net;
  check bool_ "accepted" true (Pap.current child <> None)

(* --- pip ------------------------------------------------------------------------ *)

let test_pip_lookup_service () =
  let net, services = fresh () in
  let pip_node = add_node net "pip" in
  let caller = add_node net "pdp" in
  let pip = Pip.create services ~node:pip_node in
  Pip.add_subject_attribute pip ~subject:"alice" ~id:"role" (Value.String "doctor");
  let query ~id ~subject =
    let got = ref None in
    Service.call services ~src:caller ~dst:pip_node Wire.Services.attribute_query
      (fun buf -> Wire.write_attribute_query buf ~category:Context.Subject ~attribute_id:id ~subject)
      (fun r -> got := Some r);
    Net.run net;
    match !got with Some (Ok (Ok bag)) -> bag | _ -> Alcotest.fail "no reply"
  in
  (match query ~id:"role" ~subject:"alice" with
  | [ Value.String "doctor" ] -> ()
  | _ -> Alcotest.fail "wrong attribute value");
  check int_ "served" 1 (Pip.lookups_served pip);
  (* Unknown lookups. *)
  check bool_ "unknown empty" true (query ~id:"x" ~subject:"bob" = []);
  (* Revocation. *)
  Pip.remove_subject_attribute pip ~subject:"alice" ~id:"role";
  check bool_ "revoked" true (query ~id:"role" ~subject:"alice" = [])

(* --- pdp service ------------------------------------------------------------------- *)

let role_condition_policy resource =
  (* Requires the subject's role attribute, which only the PIP knows. *)
  Policy.Inline_policy
    (Policy.make ~id:"p" ~rule_combining:Combine.First_applicable
       [
         Rule.permit
           ~target:Target.(any |> resource_is "resource-id" resource)
           ~condition:(Expr.Apply ("string-is-in", [ Expr.Const (Value.String "doctor"); Expr.subject_attr "role" ]))
           "permit";
         Rule.deny "deny";
       ])

let authz_call services ~src ~dst ctx k =
  Service.call services ~src ~dst Wire.Services.authz_query
    (fun buf -> Wire.write_authz_query buf ctx)
    (fun r ->
      match r with
      | Ok body -> k (Result.map fst body)
      | Error e -> k (Error (Service.error_to_string e)))

let test_pdp_service_basic () =
  let net, services = fresh () in
  let pdp_node = add_node net "pdp" in
  let pep = add_node net "pep" in
  let pdp =
    Pdp_service.create services ~node:pdp_node ~name:"pdp" ~root:(doctor_policy "r") ()
  in
  let ctx =
    Context.make ~subject:(doctor_subject "alice")
      ~resource:[ ("resource-id", Value.String "r") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  let decide what ctx expect =
    let got = ref None in
    authz_call services ~src:pep ~dst:pdp_node ctx (fun r -> got := Some r);
    Net.run net;
    match !got with
    | Some (Ok r) -> check bool_ what true (expect r)
    | _ -> Alcotest.fail "no decision"
  in
  decide "permit" ctx Decision.is_permit;
  decide "nurse denied"
    (Context.make
       ~subject:[ ("subject-id", Value.String "bob"); ("role", Value.String "nurse") ]
       ~resource:[ ("resource-id", Value.String "r") ]
       ~action:[ ("action-id", Value.String "read") ]
       ())
    Decision.is_deny;
  let s = Pdp_service.stats pdp in
  check int_ "queries" 2 s.Pdp_service.queries;
  check int_ "permits" 1 s.Pdp_service.permits;
  check int_ "denies" 1 s.Pdp_service.denies;
  (* A local install swaps the tree the next query is decided by. *)
  Pdp_service.install_policy pdp (Policy.Inline_policy (Policy.make ~id:"deny" [ Rule.deny "d" ]));
  decide "denied after the swap" ctx Decision.is_deny

let test_pdp_service_pip_fetch () =
  let net, services = fresh () in
  let pdp_node = add_node net "pdp" in
  let pip_node = add_node net "pip" in
  let pep = add_node net "pep" in
  let pip = Pip.create services ~node:pip_node in
  Pip.add_subject_attribute pip ~subject:"alice" ~id:"role" (Value.String "doctor");
  let pdp =
    Pdp_service.create services ~node:pdp_node ~name:"pdp" ~root:(role_condition_policy "r")
      ~pips:[ pip_node ] ()
  in
  (* The request context has no role attribute: the PDP must fetch it. *)
  let ctx =
    Context.make
      ~subject:[ ("subject-id", Value.String "alice") ]
      ~resource:[ ("resource-id", Value.String "r") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  let got = ref None in
  authz_call services ~src:pep ~dst:pdp_node ctx (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok r) -> check bool_ "permit via PIP" true (Decision.is_permit r)
  | _ -> Alcotest.fail "no decision");
  check bool_ "pip fetches counted" true ((Pdp_service.stats pdp).Pdp_service.pip_fetches > 0);
  (* Unknown subject: PIP has nothing, decision falls through to deny. *)
  let ctx2 =
    Context.make
      ~subject:[ ("subject-id", Value.String "mallory") ]
      ~resource:[ ("resource-id", Value.String "r") ]
      ()
  in
  let got2 = ref None in
  authz_call services ~src:pep ~dst:pdp_node ctx2 (fun r -> got2 := Some r);
  Net.run net;
  match !got2 with
  | Some (Ok r) -> check bool_ "deny" true (Decision.is_deny r)
  | _ -> Alcotest.fail "no decision"

let test_pdp_service_policy_fetch_and_ttl () =
  let net, services = fresh () in
  let pap_node = add_node net "pap" in
  let pdp_node = add_node net "pdp" in
  let pep = add_node net "pep" in
  let _pap = Pap.create services ~node:pap_node ~name:"pap" ~root:(doctor_policy "r") () in
  let pdp =
    Pdp_service.create services ~node:pdp_node ~name:"pdp" ~pap:pap_node
      ~refresh:(Pdp_service.Ttl 10.0) ()
  in
  let ctx =
    Context.make ~subject:(doctor_subject "alice")
      ~resource:[ ("resource-id", Value.String "r") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  let decide k = authz_call services ~src:pep ~dst:pdp_node ctx k in
  let got = ref None in
  decide (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok r) -> check bool_ "permit after fetch" true (Decision.is_permit r)
  | _ -> Alcotest.fail "no decision");
  check int_ "one pap fetch" 1 (Pdp_service.stats pdp).Pdp_service.pap_fetches;
  (* Within the TTL no new fetch happens. *)
  decide (fun r -> got := Some r);
  Net.run net;
  check int_ "still one fetch" 1 (Pdp_service.stats pdp).Pdp_service.pap_fetches;
  (* After the TTL the PDP revalidates; the PAP answers "current". *)
  Dacs_net.Engine.schedule (Net.engine net) ~delay:11.0 (fun () -> decide (fun r -> got := Some r));
  Net.run net;
  check int_ "revalidated" 2 (Pdp_service.stats pdp).Pdp_service.pap_fetches;
  check int_ "current marker" 1 (Pdp_service.stats pdp).Pdp_service.pap_refresh_hits

let test_pdp_service_no_policy () =
  let net, services = fresh () in
  let pdp_node = add_node net "pdp" in
  let pep = add_node net "pep" in
  let _pdp = Pdp_service.create services ~node:pdp_node ~name:"pdp" () in
  let got = ref None in
  authz_call services ~src:pep ~dst:pdp_node (Context.make ()) (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok { Decision.decision = Decision.Indeterminate _; _ }) -> ()
  | _ -> Alcotest.fail "expected indeterminate"

(* --- capability service / idp -------------------------------------------------------- *)

(* A capability asked for over the capability-request service, as a
   client asks for one. *)
let request_capability services ~src ~cas ~subject ~pairs =
  let got = ref None in
  Service.call services ~src ~dst:cas Wire.Services.capability_request
    (fun buf -> Wire.write_capability_request buf ~subject ~pairs)
    (fun r -> got := Some r);
  Net.run (Service.net services);
  match !got with Some (Ok (Ok (a, _))) -> a | _ -> Alcotest.fail "no capability issued"

let test_capability_issue_and_verify () =
  let _net, services = fresh () in
  let net = Service.net services in
  let keys = Dacs_crypto.Rsa.generate (Dacs_crypto.Rng.create 7L) ~bits:512 in
  let cas =
    Capability_service.create services ~node:(add_node net "cas") ~issuer:"cas" ~keypair:keys
      ~root:(doctor_policy "r") ()
  in
  let a =
    request_capability services ~src:(add_node net "c") ~cas:"cas" ~subject:(doctor_subject "alice")
      ~pairs:[ ("r", "read"); ("r", "write") ]
  in
  check bool_ "signed ok" true (Dacs_saml.Assertion.verify (Capability_service.public_key cas) a);
  check bool_ "read permitted" true (Dacs_saml.Assertion.permits a ~resource:"r" ~action:"read");
  check bool_ "write denied" false (Dacs_saml.Assertion.permits a ~resource:"r" ~action:"write");
  check int_ "issued" 1 (Capability_service.issued_count cas)

let test_capability_revocation () =
  let _net, services = fresh () in
  let net = Service.net services in
  let keys = Dacs_crypto.Rsa.generate (Dacs_crypto.Rng.create 8L) ~bits:512 in
  let cas =
    Capability_service.create services ~node:(add_node net "cas") ~issuer:"cas" ~keypair:keys
      ~root:(doctor_policy "r") ()
  in
  let a =
    request_capability services ~src:(add_node net "c") ~cas:"cas" ~subject:(doctor_subject "alice")
      ~pairs:[ ("r", "read") ]
  in
  check bool_ "not revoked" false (Capability_service.is_revoked cas ~assertion_id:a.Dacs_saml.Assertion.id);
  Capability_service.revoke cas ~assertion_id:a.Dacs_saml.Assertion.id;
  check bool_ "revoked" true (Capability_service.is_revoked cas ~assertion_id:a.Dacs_saml.Assertion.id)

let test_idp () =
  let net, services = fresh () in
  let keys = Dacs_crypto.Rsa.generate (Dacs_crypto.Rng.create 9L) ~bits:512 in
  let idp = Idp.create services ~node:(add_node net "idp") ~issuer:"idp.a" ~keypair:keys () in
  Idp.register_user idp ~user:"alice" (doctor_subject "alice");
  (* A user's agent asks for an assertion; lib models none, so the test
     writes the request frame itself. *)
  let caller = add_node net "c" in
  let ask subject =
    let got = ref None in
    Service.call services ~src:caller ~dst:"idp" Wire.Services.attribute_assertion
      (fun buf -> Xml.print buf (Xml.element "AttributeAssertionRequest" ~attrs:[ ("Subject", subject) ]))
      (fun r -> got := Some r);
    Net.run net;
    !got
  in
  (match ask "alice" with
  | Some (Ok (Ok a)) ->
    check bool_ "verifies" true (Dacs_saml.Assertion.verify (Idp.public_key idp) a);
    check int_ "attrs" 2 (List.length (Dacs_saml.Assertion.attributes a))
  | _ -> Alcotest.fail "expected an assertion over the wire");
  match ask "bob" with
  | Some (Error (Service.Fault f)) -> check string_ "unknown subject over wire" "soap:Receiver" f.Dacs_ws.Soap.code
  | _ -> Alcotest.fail "expected a fault for an unknown subject"

(* --- pep: pull mode ---------------------------------------------------------------------- *)

let pull_setup ?cache ?(pdps = 1) ?audit () =
  let net, services = fresh () in
  let pdp_nodes =
    List.init pdps (fun i ->
        let node = add_node net (Printf.sprintf "pdp%d" i) in
        ignore (Pdp_service.create services ~node ~name:node ~root:(doctor_policy "r") ());
        node)
  in
  let pep_node = add_node net "pep" in
  let tier = Pdp_tier.ordered services ~node:pep_node ~pdps:pdp_nodes ~call_timeout:0.5 in
  let pep =
    Pep.create services ~node:pep_node ~domain:"a" ~resource:"r" ~content:"the-content" ?audit
      (Pep.Sharded { tier; cache })
  in
  let client = Client.create services ~node:(add_node net "client") ~subject:(doctor_subject "alice") in
  (net, tier, pep, client, pdp_nodes)

let test_pep_pull_grant_and_deny () =
  let audit = Audit.create () in
  let net, _tier, pep, client, _ = pull_setup ~audit () in
  let got = ref None in
  Client.request client ~pep:"pep" ~action:"read" (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Granted { content; _ })) -> check string_ "content" "the-content" content
  | _ -> Alcotest.fail "expected grant");
  (* Write denied. *)
  Client.request client ~pep:"pep" ~action:"write" (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Denied _)) -> ()
  | _ -> Alcotest.fail "expected deny");
  let s = Pep.stats pep in
  check int_ "requests" 2 s.Pep.requests;
  check int_ "granted" 1 s.Pep.granted;
  check int_ "denied" 1 s.Pep.denied;
  check int_ "pdp calls" 2 s.Pep.pdp_calls;
  (* Audit trail. *)
  check int_ "audit entries" 2 (Audit.size audit)

let test_pep_pull_cache () =
  let cache = Decision_cache.create ~ttl:60.0 () in
  let net, _tier, pep, client, _ = pull_setup ~cache () in
  let run_request () =
    let got = ref None in
    Client.request client ~pep:"pep" ~action:"read" (fun r -> got := Some r);
    Net.run net;
    match !got with
    | Some (Ok (Wire.Granted _)) -> ()
    | _ -> Alcotest.fail "expected grant"
  in
  run_request ();
  run_request ();
  run_request ();
  let s = Pep.stats pep in
  check int_ "single PDP call" 1 s.Pep.pdp_calls;
  check int_ "two cache hits" 2 s.Pep.cache_hits

let test_pep_pull_failover () =
  let net, _tier, pep, client, pdp_nodes = pull_setup ~pdps:3 () in
  (* Crash the first two PDPs: the request must still succeed. *)
  Net.crash net (List.nth pdp_nodes 0);
  Net.crash net (List.nth pdp_nodes 1);
  let got = ref None in
  Client.request client ~pep:"pep" ~action:"read" ~timeout:10.0 (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Granted _)) -> ()
  | other ->
    Alcotest.failf "expected grant, got %s"
      (match other with
      | Some (Ok (Wire.Denied r)) -> "denied: " ^ r
      | Some (Ok (Wire.Granted _)) -> "granted"
      | Some (Error e) -> Service.error_to_string e
      | None -> "nothing"));
  (* One query to the PEP's tier, re-routed twice. *)
  let s = Pep.stats pep in
  check int_ "two failovers" 2 s.Pep.failovers;
  check int_ "three attempts" 3 (s.Pep.pdp_calls + s.Pep.failovers)

(* A pull PEP's failover list is an ordered tier, so the tier's failure
   detector guards it: once the primary has answered, one RTO of its
   silence (0.2 s here) moves the query to the next replica, well before
   the 0.5 s call timeout. *)
let test_pep_pull_fails_over_at_rto () =
  let net, _tier, pep, _client, pdp_nodes = pull_setup ~pdps:2 () in
  let decide_at at user answer =
    Dacs_net.Engine.schedule_at (Net.engine net) ~at (fun () ->
        let ctx =
          Context.make ~subject:(doctor_subject user)
            ~resource:[ ("resource-id", Value.String "r") ]
            ~action:[ ("action-id", Value.String "read") ]
            ()
        in
        Pep.decide_explained pep ctx (fun r p -> answer := Some (Net.now net, r, p)))
  in
  let first = ref None and second = ref None in
  decide_at 0.1 "alice" first;
  Dacs_net.Engine.schedule_at (Net.engine net) ~at:1.0 (fun () -> Net.crash net (List.hd pdp_nodes));
  decide_at 2.0 "bob" second;
  Net.run net;
  (match !first with
  | Some (_, r, p) ->
    check bool_ "the primary answered" true (Decision.is_permit r);
    check (Alcotest.option string_) "primary" (Some (List.nth pdp_nodes 0)) p.Provenance.shard
  | None -> Alcotest.fail "no first decision");
  match !second with
  | Some (at, r, p) ->
    check bool_ "granted by the secondary" true (Decision.is_permit r);
    check (Alcotest.option string_) "secondary" (Some (List.nth pdp_nodes 1)) p.Provenance.shard;
    check int_ "one failover" 1 p.Provenance.failovers;
    check bool_ "not before the RTO" true (at >= 2.2);
    check bool_ "before the call timeout" true (at < 2.5);
    check int_ "failover counted" 1 (Pep.stats pep).Pep.failovers
  | None -> Alcotest.fail "no second decision"

(* A pull PEP asks the PDP list its tier holds now: the list the tier
   was built with, then, after the caller rebinds the tier, the new
   list, first PDP first.  No failover is involved: both PDPs stay up. *)
let test_pep_pull_follows_tier_rebind () =
  let net, tier, pep, _client, pdp_nodes = pull_setup ~pdps:2 () in
  let answered_by user =
    let got = ref None in
    let ctx =
      Context.make ~subject:(doctor_subject user)
        ~resource:[ ("resource-id", Value.String "r") ]
        ~action:[ ("action-id", Value.String "read") ]
        ()
    in
    Pep.decide_explained pep ctx (fun r p -> got := Some (r, p));
    Net.run net;
    match !got with
    | Some (r, p) ->
      check bool_ "granted" true (Decision.is_permit r);
      check int_ "no failover" 0 p.Provenance.failovers;
      p.Provenance.shard
    | None -> Alcotest.fail "no decision"
  in
  check (Alcotest.list string_) "built list" pdp_nodes (Pdp_tier.shards tier);
  check (Alcotest.option string_) "first PDP answers" (Some "pdp0") (answered_by "alice");
  Pdp_tier.set_shards tier [ "pdp1"; "pdp0" ];
  check (Alcotest.list string_) "rebound list" [ "pdp1"; "pdp0" ] (Pdp_tier.shards tier);
  check (Alcotest.option string_) "new first PDP answers" (Some "pdp1") (answered_by "bob");
  check int_ "no failover counted" 0 (Pep.stats pep).Pep.failovers

let test_pep_pull_all_pdps_down () =
  let net, _tier, pep, client, pdp_nodes = pull_setup ~pdps:2 () in
  List.iter (Net.crash net) pdp_nodes;
  let got = ref None in
  Client.request client ~pep:"pep" ~action:"read" ~timeout:10.0 (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Denied reason)) ->
    check bool_ "fails closed with reason" true
      (String.length reason > 0)
  | _ -> Alcotest.fail "expected deny (fail closed)");
  check int_ "denied" 1 (Pep.stats pep).Pep.denied

(* A retry policy outside the ranges [Rpc] documents is refused where it
   is set — by a PEP's tier and a client request alike — so it can never
   abort the run from inside the first decision (for a tier, inside
   [Net.run]); the PEP keeps deciding under the policy it had. *)
let test_pep_rejects_bad_retry_policy () =
  let net, tier, _pep, client, _ = pull_setup () in
  let bad =
    [ { Rpc.no_retry with attempts = 0 }; { Rpc.default_retry with jitter = 1.5 }; { Rpc.default_retry with jitter = -0.1 } ]
  in
  let rejected what set =
    List.iter
      (fun retry ->
        match set retry with
        | () ->
          Alcotest.failf "%s accepted attempts=%d jitter=%g" what retry.Rpc.attempts retry.Rpc.jitter
        | exception Invalid_argument _ -> ())
      bad
  in
  rejected "Pdp_tier.set_retry_policy" (Pdp_tier.set_retry_policy tier);
  rejected "Client.request" (fun retry -> Client.request client ~pep:"pep" ~action:"read" ~retry ignore);
  check int_ "no request sent" 0 (Net.total_sent net).Net.count;
  Pdp_tier.set_retry_policy tier Rpc.default_retry;
  let got = ref None in
  Client.request client ~pep:"pep" ~action:"read" (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok (Wire.Granted _)) -> ()
  | _ -> Alcotest.fail "expected grant"

let test_pep_obligations_encrypt () =
  (* A policy that obliges the PEP to encrypt the response. *)
  let net, services = fresh () in
  let pdp_node = add_node net "pdp" in
  let policy =
    Policy.Inline_policy
      (Policy.make ~id:"p" ~rule_combining:Combine.First_applicable
         ~obligations:[ Obligation.encrypt_response ~strength:128 ]
         [ Rule.permit "allow" ])
  in
  ignore (Pdp_service.create services ~node:pdp_node ~name:"pdp" ~root:policy ());
  let pep_node = add_node net "pep" in
  ignore
    (Pep.create services ~node:pep_node ~domain:"a" ~resource:"r" ~content:"secret"
       ~encryption_key:(Dacs_crypto.Stream_cipher.derive_key "k")
       (Pep.Sharded
          { tier = Pdp_tier.ordered services ~node:pep_node ~pdps:[ pdp_node ] ~call_timeout:0.5; cache = None }));
  let client = Client.create services ~node:(add_node net "client") ~subject:(doctor_subject "alice") in
  let got = ref None in
  Client.request client ~pep:pep_node ~action:"read" (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok (Wire.Granted { content; encrypted })) ->
    check bool_ "encrypted" true encrypted;
    check bool_ "content hidden" true (content <> "secret");
    (* The client can decrypt with the shared key. *)
    let cipher = Dacs_crypto.Encoding.base64_decode content in
    check bool_ "decrypts" true
      (Dacs_crypto.Stream_cipher.decrypt ~key:(Dacs_crypto.Stream_cipher.derive_key "k") cipher
      = Some "secret")
  | _ -> Alcotest.fail "expected encrypted grant"

(* Each encrypted grant draws its own nonce: two Permits from one PEP
   must not share a keystream, and both must still decrypt. *)
let test_pep_encrypt_fresh_nonces () =
  let net, services = fresh () in
  let pdp_node = add_node net "pdp" in
  let policy =
    Policy.Inline_policy
      (Policy.make ~id:"p" ~rule_combining:Combine.First_applicable
         ~obligations:[ Obligation.encrypt_response ~strength:128 ]
         [ Rule.permit "allow" ])
  in
  ignore (Pdp_service.create services ~node:pdp_node ~name:"pdp" ~root:policy ());
  let pep_node = add_node net "pep" in
  let key = Dacs_crypto.Stream_cipher.derive_key "k" in
  ignore
    (Pep.create services ~node:pep_node ~domain:"a" ~resource:"r" ~content:"secret" ~encryption_key:key
       (Pep.Sharded
          { tier = Pdp_tier.ordered services ~node:pep_node ~pdps:[ pdp_node ] ~call_timeout:0.5; cache = None }));
  let client = Client.create services ~node:(add_node net "client") ~subject:(doctor_subject "alice") in
  let grants = ref [] in
  for _ = 1 to 2 do
    Client.request client ~pep:pep_node ~action:"read" (fun r -> grants := r :: !grants);
    Net.run net
  done;
  match !grants with
  | [
   Ok (Wire.Granted { content = c1; encrypted = true }); Ok (Wire.Granted { content = c2; encrypted = true });
  ] ->
    let c1 = Dacs_crypto.Encoding.base64_decode c1 and c2 = Dacs_crypto.Encoding.base64_decode c2 in
    (* One key and one plaintext: the ciphertexts differ only if the
       nonces do. *)
    check bool_ "distinct nonces" true (c1 <> c2);
    check bool_ "first decrypts" true (Dacs_crypto.Stream_cipher.decrypt ~key c1 = Some "secret");
    check bool_ "second decrypts" true (Dacs_crypto.Stream_cipher.decrypt ~key c2 = Some "secret")
  | _ -> Alcotest.fail "expected two encrypted grants"

let test_pep_unknown_obligation_fails_closed () =
  let net, services = fresh () in
  let pdp_node = add_node net "pdp" in
  let policy =
    Policy.Inline_policy
      (Policy.make ~id:"p"
         ~obligations:[ { Obligation.id = "urn:dacs:obligation:mystery"; fulfill_on = Permit; parameters = [] } ]
         [ Rule.permit "allow" ])
  in
  ignore (Pdp_service.create services ~node:pdp_node ~name:"pdp" ~root:policy ());
  let pep_node = add_node net "pep" in
  ignore
    (Pep.create services ~node:pep_node ~domain:"a" ~resource:"r"
       (Pep.Sharded
          { tier = Pdp_tier.ordered services ~node:pep_node ~pdps:[ pdp_node ] ~call_timeout:0.5; cache = None }));
  let client = Client.create services ~node:(add_node net "client") ~subject:(doctor_subject "alice") in
  let got = ref None in
  Client.request client ~pep:pep_node ~action:"read" (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok (Wire.Denied _)) -> ()
  | _ -> Alcotest.fail "a PEP that cannot fulfil an obligation must not grant"

(* --- pep: push mode -------------------------------------------------------------------------- *)

let push_setup ?(revocation = false) () =
  let net, services = fresh () in
  let keys = Dacs_crypto.Rsa.generate (Dacs_crypto.Rng.create 11L) ~bits:512 in
  let cas =
    Capability_service.create services ~node:(add_node net "cas") ~issuer:"cas" ~keypair:keys
      ~root:(doctor_policy "r") ()
  in
  let pep_node = add_node net "pep" in
  let trusted_issuer issuer = if issuer = "cas" then Some (Capability_service.public_key cas) else None in
  let pep =
    Pep.create services ~node:pep_node ~domain:"a" ~resource:"r" ~content:"pushed-content"
      (Pep.Push
         {
           trusted_issuer;
           check_revocation = (if revocation then Some "cas" else None);
           local_pdp = None;
         })
  in
  let client = Client.create services ~node:(add_node net "client") ~subject:(doctor_subject "alice") in
  (net, services, cas, pep, client)

let test_pep_push_happy_path () =
  let net, _services, _cas, pep, client = push_setup () in
  let got = ref None in
  Client.request_with_capability client ~capability_service:"cas" ~pep:"pep" ~resource:"r"
    ~action:"read" (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Granted { content; _ })) -> check string_ "content" "pushed-content" content
  | _ -> Alcotest.fail "expected grant");
  check int_ "one capability request" 1 (Client.capability_requests_made client);
  (* Second access reuses the cached capability. *)
  Client.request_with_capability client ~capability_service:"cas" ~pep:"pep" ~resource:"r"
    ~action:"read" (fun r -> got := Some r);
  Net.run net;
  check int_ "capability reused" 1 (Client.capability_requests_made client);
  check int_ "two grants" 2 (Pep.stats pep).Pep.granted

let test_pep_push_without_assertion () =
  let net, _services, _cas, pep, client = push_setup () in
  let got = ref None in
  (* A plain request without a capability header. *)
  Client.request client ~pep:"pep" ~action:"read" (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Denied _)) -> ()
  | _ -> Alcotest.fail "expected deny");
  check int_ "rejection counted" 1 (Pep.stats pep).Pep.assertion_rejections

(* A capability whose SignatureValue is not base64: what a hostile or
   corrupting peer can put in a header or a capability response.  The
   rest of the capability is intact, so only the signature's decoding
   stands between it and the PEP. *)
let corrupt_signature_value node =
  let s = Xml.to_string node in
  let tag = "SignatureValue>" in
  let rec find i =
    if String.sub s i (String.length tag) = tag then i + String.length tag else find (i + 1)
  in
  let start = find 0 in
  let stop = String.index_from s start '<' in
  Xml.of_string (String.sub s 0 start ^ "!!!!" ^ String.sub s stop (String.length s - stop))

let x509_xml a = Xml.of_string (Dacs_saml.Attribute_cert.to_string a)

let pep_denies_undecodable_capability wire_of () =
  let net, services, _cas, pep, client = push_setup () in
  let capability =
    request_capability services ~src:"client" ~cas:"cas" ~subject:(doctor_subject "alice")
      ~pairs:[ ("r", "read") ]
  in
  let got = ref None in
  Service.call services ~src:"client" ~dst:"pep"
    ~headers:[ corrupt_signature_value (wire_of capability) ]
    Wire.Services.access
    (fun buf -> Wire.write_access_request buf ~subject:(doctor_subject "alice") ~action:"read")
    (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Ok (Wire.Denied _))) -> ()
  | Some (Ok _) -> Alcotest.fail "an undecodable capability must be denied"
  | _ -> Alcotest.fail "expected an answer from the PEP");
  check int_ "rejection counted" 1 (Pep.stats pep).Pep.assertion_rejections;
  (* The simulation goes on: an intact capability is still honoured. *)
  Client.request_with_capability client ~capability_service:"cas" ~pep:"pep" ~resource:"r"
    ~action:"read" ignore;
  Net.run net;
  check int_ "next request granted" 1 (Pep.stats pep).Pep.granted

let client_rejects_undecodable_capability wire_of () =
  let net, services, _cas, pep, client = push_setup () in
  (* A capability service that answers with a corrupted capability: a
     hostile peer, serving raw frames in a SOAP envelope. *)
  let rogue = add_node net "rogue-cas" in
  let capability =
    request_capability services ~src:"client" ~cas:"cas" ~subject:(doctor_subject "alice")
      ~pairs:[ ("r", "read") ]
  in
  Rpc.serve_frame (Service.rpc services) ~node:rogue ~service:"capability-request"
    ~envelope:(fun buf write -> Dacs_ws.Soap.write buf write)
    (fun ~caller:_ _ reply ->
      let corrupted = corrupt_signature_value (wire_of capability) in
      reply (fun buf -> Xml.print buf corrupted));
  let got = ref None in
  Client.request_with_capability client ~capability_service:rogue ~pep:"pep" ~resource:"r"
    ~action:"read" (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Error (Service.Malformed _)) -> ()
  | _ -> Alcotest.fail "an undecodable capability response must be a Malformed error");
  check int_ "nothing cached, nothing presented" 0 (Pep.stats pep).Pep.assertion_rejections;
  Client.request_with_capability client ~capability_service:"cas" ~pep:"pep" ~resource:"r"
    ~action:"read" (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok (Wire.Granted _)) -> ()
  | _ -> Alcotest.fail "the honest capability service must still be honoured"

let test_pep_push_capability_scope () =
  let net, _services, _cas, _pep, client = push_setup () in
  (* Capability is issued for read; only write is denied by the CAS's
     policy, so the decision statement says Deny and the PEP refuses. *)
  let got = ref None in
  Client.request_with_capability client ~capability_service:"cas" ~pep:"pep" ~resource:"r"
    ~action:"write" (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok (Wire.Denied _)) -> ()
  | _ -> Alcotest.fail "expected deny for uncovered action"

let test_pep_push_revocation () =
  let net, _services, cas, pep, client = push_setup ~revocation:true () in
  let got = ref None in
  Client.request_with_capability client ~capability_service:"cas" ~pep:"pep" ~resource:"r"
    ~action:"read" (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Granted _)) -> ()
  | _ -> Alcotest.fail "expected grant before revocation");
  check int_ "revocation checked" 1 (Pep.stats pep).Pep.revocation_checks;
  (* Revoke all issued assertions, then replay the cached capability. *)
  for i = 1 to Capability_service.issued_count cas do
    Capability_service.revoke cas ~assertion_id:(Printf.sprintf "cap-cas-%d" i)
  done;
  Client.request_with_capability client ~capability_service:"cas" ~pep:"pep" ~resource:"r"
    ~action:"read" (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok (Wire.Denied _)) -> ()
  | _ -> Alcotest.fail "expected deny after revocation"

let test_pep_push_local_final_say () =
  (* The capability service permits, but the resource provider's local PDP
     denies: the paper's "resource providers may impose their own
     restrictions". *)
  let net, services = fresh () in
  let keys = Dacs_crypto.Rsa.generate (Dacs_crypto.Rng.create 12L) ~bits:512 in
  let cas =
    Capability_service.create services ~node:(add_node net "cas") ~issuer:"cas" ~keypair:keys
      ~root:(doctor_policy "r") ()
  in
  let local_pdp_node = add_node net "local-pdp" in
  let deny_all = Policy.Inline_policy (Policy.make ~id:"deny" [ Rule.deny "d" ]) in
  let local_pdp = Pdp_service.create services ~node:local_pdp_node ~name:"local" ~root:deny_all () in
  let pep_node = add_node net "pep" in
  ignore
    (Pep.create services ~node:pep_node ~domain:"a" ~resource:"r"
       (Pep.Push
          {
            trusted_issuer =
              (fun issuer -> if issuer = "cas" then Some (Capability_service.public_key cas) else None);
            check_revocation = None;
            local_pdp = Some local_pdp;
          }));
  let client = Client.create services ~node:(add_node net "client") ~subject:(doctor_subject "alice") in
  let got = ref None in
  Client.request_with_capability client ~capability_service:"cas" ~pep:pep_node ~resource:"r"
    ~action:"read" (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok (Wire.Denied _)) -> ()
  | _ -> Alcotest.fail "local PDP must have the final say"

let test_pep_agent_mode () =
  let net, services = fresh () in
  let pep_node = add_node net "pep" in
  (* Agent mode: the PDP is embedded; no authz-query traffic at all. *)
  let embedded =
    Pdp_service.create services ~node:pep_node ~name:"embedded" ~root:(doctor_policy "r") ()
  in
  ignore
    (Pep.create services ~node:pep_node ~domain:"a" ~resource:"r" ~content:"agent-content"
       (Pep.Agent embedded));
  let client = Client.create services ~node:(add_node net "client") ~subject:(doctor_subject "alice") in
  let got = ref None in
  Client.request client ~pep:pep_node ~action:"read" (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Granted { content; _ })) -> check string_ "content" "agent-content" content
  | _ -> Alcotest.fail "expected grant");
  (* No authz-query messages were sent. *)
  check bool_ "no remote decision traffic" true
    (List.assoc_opt "authz-query" (Net.stats_by_category net) = None)

(* --- delegation --------------------------------------------------------------------------------- *)

let test_delegation_chains () =
  let d = Delegation.create ~roots:[ "root-a" ] in
  check bool_ "root has authority" true (Delegation.authority_for d ~issuer:"root-a" ~resource:"x" ~now:0.0);
  check bool_ "stranger lacks it" false (Delegation.authority_for d ~issuer:"b" ~resource:"x" ~now:0.0);
  let g1 =
    Delegation.grant d ~can_redelegate:true ~delegator:"root-a" ~delegate:"b" ~scope:"res/"
      ~now:0.0 ~expires:100.0 ()
  in
  check bool_ "grant ok" true (Result.is_ok g1);
  check bool_ "b authorised in scope" true
    (Delegation.authority_for d ~issuer:"b" ~resource:"res/1" ~now:10.0);
  check bool_ "b not outside scope" false
    (Delegation.authority_for d ~issuer:"b" ~resource:"other" ~now:10.0);
  check bool_ "b not after expiry" false
    (Delegation.authority_for d ~issuer:"b" ~resource:"res/1" ~now:100.5);
  (* Re-delegation b -> c. *)
  let g2 =
    Delegation.grant d ~delegator:"b" ~delegate:"c" ~scope:"res/sub/" ~now:10.0 ~expires:50.0 ()
  in
  check bool_ "redelegation ok" true (Result.is_ok g2);
  check bool_ "c authorised" true (Delegation.authority_for d ~issuer:"c" ~resource:"res/sub/x" ~now:20.0);
  (* c cannot re-delegate (grant was not redelegable). *)
  check bool_ "c cannot delegate" true
    (Result.is_error
       (Delegation.grant d ~delegator:"c" ~delegate:"e" ~scope:"res/sub/" ~now:20.0 ~expires:50.0 ()))

let test_delegation_revocation_cascades () =
  let d = Delegation.create ~roots:[ "root" ] in
  let g1 =
    match
      Delegation.grant d ~can_redelegate:true ~delegator:"root" ~delegate:"b" ~scope:"" ~now:0.0
        ~expires:100.0 ()
    with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  ignore (Delegation.grant d ~delegator:"b" ~delegate:"c" ~scope:"" ~now:0.0 ~expires:100.0 ());
  check bool_ "c authorised" true (Delegation.authority_for d ~issuer:"c" ~resource:"x" ~now:1.0);
  check bool_ "revoked" true (Delegation.revoke d ~grant_id:g1.Delegation.id);
  (* Revoking the first link severs the whole chain. *)
  check bool_ "b cut" false (Delegation.authority_for d ~issuer:"b" ~resource:"x" ~now:1.0);
  check bool_ "c cut too" false (Delegation.authority_for d ~issuer:"c" ~resource:"x" ~now:1.0);
  check bool_ "unknown revoke" false (Delegation.revoke d ~grant_id:"nope")

let granted = function
  | Ok g -> g
  | Error e -> Alcotest.fail e

let test_delegation_scope_narrows () =
  let d = Delegation.create ~roots:[ "root" ] in
  ignore
    (granted
       (Delegation.grant d ~can_redelegate:true ~delegator:"root" ~delegate:"b" ~scope:"res/" ~now:0.0
          ~expires:100.0 ()));
  let by_b scope now = Delegation.grant d ~delegator:"b" ~delegate:"c" ~scope ~now ~expires:100.0 () in
  check bool_ "everything is wider than res/" true (Result.is_error (by_b "" 10.0));
  check bool_ "a sibling scope is outside res/" true (Result.is_error (by_b "other/" 10.0));
  check bool_ "an expired delegator grants nothing" true (Result.is_error (by_b "res/x" 150.0));
  check bool_ "a narrower scope is granted" true (Result.is_ok (by_b "res/sub/" 10.0));
  check bool_ "c holds the narrower scope" true
    (Delegation.authority_for d ~issuer:"c" ~resource:"res/sub/1" ~now:20.0);
  check bool_ "c lacks the rest of b's scope" false
    (Delegation.authority_for d ~issuer:"c" ~resource:"res/1" ~now:20.0)

let test_delegation_revoke_last_link () =
  let d = Delegation.create ~roots:[ "root" ] in
  ignore
    (granted
       (Delegation.grant d ~can_redelegate:true ~delegator:"root" ~delegate:"b" ~scope:"" ~now:0.0
          ~expires:100.0 ()));
  let g2 = granted (Delegation.grant d ~delegator:"b" ~delegate:"c" ~scope:"" ~now:0.0 ~expires:100.0 ()) in
  check bool_ "revoked" true (Delegation.revoke d ~grant_id:g2.Delegation.id);
  check bool_ "c cut" false (Delegation.authority_for d ~issuer:"c" ~resource:"x" ~now:1.0);
  check bool_ "b keeps its authority" true (Delegation.authority_for d ~issuer:"b" ~resource:"x" ~now:1.0);
  check bool_ "a second revoke finds nothing" false (Delegation.revoke d ~grant_id:g2.Delegation.id)

let test_delegation_expired_link_breaks_chain () =
  (* c's own grant is live, but the link above it expires first. *)
  let d = Delegation.create ~roots:[ "root" ] in
  ignore
    (granted
       (Delegation.grant d ~can_redelegate:true ~delegator:"root" ~delegate:"b" ~scope:"" ~now:0.0
          ~expires:50.0 ()));
  ignore (granted (Delegation.grant d ~delegator:"b" ~delegate:"c" ~scope:"" ~now:10.0 ~expires:100.0 ()));
  check bool_ "c authorised while b's link lives" true
    (Delegation.authority_for d ~issuer:"c" ~resource:"x" ~now:20.0);
  check bool_ "c cut once b's link expires" false
    (Delegation.authority_for d ~issuer:"c" ~resource:"x" ~now:60.0)

let test_delegation_second_chain_survives () =
  let d = Delegation.create ~roots:[ "root" ] in
  let via_b =
    granted
      (Delegation.grant d ~can_redelegate:true ~delegator:"root" ~delegate:"b" ~scope:"" ~now:0.0
         ~expires:100.0 ())
  in
  ignore
    (granted
       (Delegation.grant d ~can_redelegate:true ~delegator:"root" ~delegate:"e" ~scope:"" ~now:0.0
          ~expires:100.0 ()));
  ignore (granted (Delegation.grant d ~delegator:"b" ~delegate:"c" ~scope:"" ~now:0.0 ~expires:100.0 ()));
  ignore (granted (Delegation.grant d ~delegator:"e" ~delegate:"c" ~scope:"" ~now:0.0 ~expires:100.0 ()));
  check bool_ "revoked" true (Delegation.revoke d ~grant_id:via_b.Delegation.id);
  check bool_ "b cut" false (Delegation.authority_for d ~issuer:"b" ~resource:"x" ~now:1.0);
  check bool_ "c still authorised through e" true
    (Delegation.authority_for d ~issuer:"c" ~resource:"x" ~now:1.0)

(* --- negotiation ----------------------------------------------------------------------------------- *)

let test_negotiation_immediate () =
  (* Freely released credential satisfies the target in one round. *)
  let client = { Negotiation.party_name = "c"; credentials = [ Negotiation.unprotected "id-card" ] } in
  let server = { Negotiation.party_name = "s"; credentials = [] } in
  let outcome = Negotiation.negotiate ~client ~server ~target:[ [ "id-card" ] ] in
  check bool_ "success" true outcome.Negotiation.success;
  check int_ "one round" 1 outcome.Negotiation.rounds

let test_negotiation_iterative () =
  (* Client releases its clearance only after seeing the server's
     accreditation, which the server releases only after the client's
     membership card: three escalating exchanges. *)
  let client =
    {
      Negotiation.party_name = "c";
      credentials =
        [
          Negotiation.unprotected "membership";
          Negotiation.protected_by "clearance" [ "accreditation" ];
        ];
    }
  in
  let server =
    {
      Negotiation.party_name = "s";
      credentials = [ Negotiation.protected_by "accreditation" [ "membership" ] ];
    }
  in
  let outcome = Negotiation.negotiate ~client ~server ~target:[ [ "clearance" ] ] in
  check bool_ "success" true outcome.Negotiation.success;
  check bool_ "multiple rounds" true (outcome.Negotiation.rounds >= 2);
  check (Alcotest.list string_) "client disclosed" [ "membership"; "clearance" ]
    outcome.Negotiation.disclosed_by_client;
  check (Alcotest.list string_) "server disclosed" [ "accreditation" ]
    outcome.Negotiation.disclosed_by_server

let test_negotiation_deadlock () =
  (* Mutual suspicion: each waits for the other. *)
  let client =
    { Negotiation.party_name = "c"; credentials = [ Negotiation.protected_by "a" [ "b" ] ] }
  in
  let server =
    { Negotiation.party_name = "s"; credentials = [ Negotiation.protected_by "b" [ "a" ] ] }
  in
  let outcome = Negotiation.negotiate ~client ~server ~target:[ [ "a" ] ] in
  check bool_ "failure" false outcome.Negotiation.success;
  check bool_ "terminates quickly" true (outcome.Negotiation.rounds <= 2)

let test_negotiation_alternatives () =
  (* The target accepts either of two credentials. *)
  let client = { Negotiation.party_name = "c"; credentials = [ Negotiation.unprotected "visa" ] } in
  let server = { Negotiation.party_name = "s"; credentials = [] } in
  let outcome = Negotiation.negotiate ~client ~server ~target:[ [ "passport" ]; [ "visa" ] ] in
  check bool_ "alternative satisfied" true outcome.Negotiation.success;
  check bool_ "unsatisfiable" false
    (Negotiation.negotiate ~client ~server ~target:[]).Negotiation.success

(* --- conflict analysis ------------------------------------------------------------------------------- *)

let permit_rule subject_role resource =
  Rule.permit
    ~target:Target.(any |> subject_is "role" subject_role |> resource_is "resource-id" resource)
    ("permit-" ^ subject_role ^ "-" ^ resource)

let deny_rule subject_role resource =
  Rule.deny
    ~target:Target.(any |> subject_is "role" subject_role |> resource_is "resource-id" resource)
    ("deny-" ^ subject_role ^ "-" ^ resource)

let test_conflict_detection () =
  let pa = Policy.make ~id:"pa" ~issuer:"domain-a" [ permit_rule "doctor" "charts" ] in
  let pb = Policy.make ~id:"pb" ~issuer:"domain-b" [ deny_rule "doctor" "charts" ] in
  let conflicts = Conflict.find_between pa pb in
  check int_ "one conflict" 1 (List.length conflicts);
  let c = List.hd conflicts in
  check bool_ "cross policy" true c.Conflict.cross_policy;
  check bool_ "cross authority" true c.Conflict.cross_authority;
  check bool_ "permit first (document order)" true c.Conflict.permit_first;
  check string_ "permit side" "pa" c.Conflict.permit.Conflict.policy_id;
  check bool_ "witness mentions the role" true
    (let w = c.Conflict.witness in
     let rec contains i = i + 6 <= String.length w && (String.sub w i 6 = "doctor" || contains (i + 1)) in
     contains 0)

let test_conflict_no_false_positive () =
  (* Different roles / different resources cannot both apply. *)
  let pa = Policy.make ~id:"pa" [ permit_rule "doctor" "charts" ] in
  let pb = Policy.make ~id:"pb" [ deny_rule "nurse" "charts" ] in
  check int_ "different roles" 0 (List.length (Conflict.find_between pa pb));
  let pc = Policy.make ~id:"pc" [ deny_rule "doctor" "labs" ] in
  check int_ "different resources" 0 (List.length (Conflict.find_between pa pc));
  (* Same effect never conflicts. *)
  let pd = Policy.make ~id:"pd" [ permit_rule "doctor" "charts" ] in
  check int_ "same effect" 0 (List.length (Conflict.find_between pa pd))

let test_conflict_wildcard_overlaps () =
  (* A deny-all rule conflicts with any permit. *)
  let pa = Policy.make ~id:"pa" [ permit_rule "doctor" "charts" ] in
  let pb = Policy.make ~id:"pb" [ Rule.deny "deny-all" ] in
  check int_ "wildcard overlap" 1 (List.length (Conflict.find_between pa pb))

let test_conflict_in_set () =
  let set =
    Policy.make_set ~id:"s"
      [
        Policy.Inline_policy (Policy.make ~id:"pa" ~issuer:"a" [ permit_rule "doctor" "charts" ]);
        Policy.Inline_set
          (Policy.make_set ~id:"inner"
             [ Policy.Inline_policy (Policy.make ~id:"pb" ~issuer:"b" [ deny_rule "doctor" "charts" ]) ]);
      ]
  in
  check int_ "found through nesting" 1 (List.length (Conflict.find_in_set set))

(* Only string-equal on a string literal binds a position: a prefix
   match leaves resource-id free, so the permit overlaps the deny on
   doc-1 (both apply to a request for doc-1). *)
let test_conflict_prefix_binds_nothing () =
  let prefix =
    Target.make_match ~fn:"string-starts-with" ~value:(Value.String "doc")
      ~category:Context.Resource ~attribute_id:"resource-id"
  in
  let pa =
    Policy.make ~id:"pa" [ Rule.permit ~target:({
      Target.any with
        resources = [ [ prefix ] ]
    }) "permit-doc-prefix" ]
  in
  let pb = Policy.make ~id:"pb" [ Rule.deny ~target:(Target.for_resource "doc-1") "deny-doc-1" ] in
  let request = Context.make ~resource:[ ("resource-id", Value.String "doc-1") ] () in
  check bool_ "one request reaches both rules" true
    ((Policy.evaluate request pa).Decision.decision = Decision.Permit
    && (Policy.evaluate request pb).Decision.decision = Decision.Deny);
  check int_ "prefix overlaps equality" 1 (List.length (Conflict.find_between pa pb))

(* Bindings are keyed by (category, attribute): one clause pinning
   Subject id=alice and Resource id=doc is satisfiable, and overlaps a
   deny on Subject id=alice. *)
let test_conflict_binding_keyed_by_category () =
  let pa =
    Policy.make ~id:"pa"
      [
        Rule.permit
          ~target:
            ({
              Target.any with
                subjects = [ [ match_string Context.Subject "id" "alice"; match_string Context.Resource "id" "doc" ] ]
            })
          "permit-alice-doc";
      ]
  in
  let pb = Policy.make ~id:"pb" [ Rule.deny ~target:Target.(any |> subject_is "id" "alice") "deny-alice" ] in
  let request =
    Context.make ~subject:[ ("id", Value.String "alice") ] ~resource:[ ("id", Value.String "doc") ] ()
  in
  check bool_ "one request reaches both rules" true
    ((Policy.evaluate request pa).Decision.decision = Decision.Permit
    && (Policy.evaluate request pb).Decision.decision = Decision.Deny);
  check int_ "subject id and resource id bind apart" 1 (List.length (Conflict.find_between pa pb))

let test_conflict_resolutions () =
  let pa = Policy.make ~id:"pa" [ permit_rule "doctor" "charts" ] in
  let pb = Policy.make ~id:"pb" [ deny_rule "doctor" "charts" ] in
  let c = List.hd (Conflict.find_between pa pb) in
  check bool_ "deny-overrides" true (Conflict.resolution Combine.Deny_overrides c = Decision.Deny);
  check bool_ "permit-overrides" true (Conflict.resolution Combine.Permit_overrides c = Decision.Permit);
  check bool_ "first-applicable follows order" true
    (Conflict.resolution Combine.First_applicable c = Decision.Permit);
  check bool_ "only-one errors" true
    (match Conflict.resolution Combine.Only_one_applicable c with
    | Decision.Indeterminate _ -> true
    | _ -> false)

(* --- meta policies -------------------------------------------------------------------------------------- *)

let test_chinese_wall () =
  let history = Audit.create () in
  let wall =
    Meta_policy.Chinese_wall
      [
        {
          Meta_policy.class_name = "banks";
          datasets = [ ("bank-a", [ "a-books"; "a-forecast" ]); ("bank-b", [ "b-books" ]) ];
        };
      ]
  in
  let check_access resource =
    Meta_policy.check wall ~history ~subject:"analyst" ~resource
  in
  (* First touch is free. *)
  check bool_ "first access ok" true (check_access "a-books" = Ok ());
  Audit.record history (entry "analyst" "a-books" Decision.Permit);
  (* Same dataset fine; competitor dataset walled off. *)
  check bool_ "same dataset ok" true (check_access "a-forecast" = Ok ());
  check bool_ "competitor blocked" true (Result.is_error (check_access "b-books"));
  (* Unrelated resource unaffected. *)
  check bool_ "outside classes ok" true (check_access "weather" = Ok ());
  (* A different subject is unaffected. *)
  check bool_ "other subject ok" true
    (Meta_policy.check wall ~history ~subject:"other" ~resource:"b-books" = Ok ())

let test_dynamic_resource_sod () =
  let history = Audit.create () in
  let sod =
    Meta_policy.Dynamic_resource_sod
      { name = "no-both"; resources = [ "submit"; "approve" ]; limit = 2 }
  in
  check bool_ "first ok" true (Meta_policy.check sod ~history ~subject:"u" ~resource:"submit" = Ok ());
  Audit.record history (entry "u" "submit" Decision.Permit);
  check bool_ "second blocked" true
    (Result.is_error (Meta_policy.check sod ~history ~subject:"u" ~resource:"approve"));
  check bool_ "same resource again ok" true
    (Meta_policy.check sod ~history ~subject:"u" ~resource:"submit" = Ok ())

let test_meta_denials_leave_no_history () =
  (* Only permitted accesses build a wall or count towards a limit. *)
  let history = Audit.create () in
  Audit.record history (entry "u" "a-books" Decision.Deny);
  Audit.record history (entry "u" "submit" Decision.Deny);
  Audit.record history (entry "u" "review" Decision.Permit);
  let wall =
    Meta_policy.Chinese_wall
      [ { Meta_policy.class_name = "banks"; datasets = [ ("bank-a", [ "a-books" ]); ("bank-b", [ "b-books" ]) ] } ]
  in
  check bool_ "denied dataset builds no wall" true
    (Meta_policy.check wall ~history ~subject:"u" ~resource:"b-books" = Ok ());
  let sod =
    Meta_policy.Dynamic_resource_sod { name = "three"; resources = [ "submit"; "review"; "approve" ]; limit = 3 }
  in
  check bool_ "one permitted, one denied: a second is fine" true
    (Meta_policy.check sod ~history ~subject:"u" ~resource:"approve" = Ok ());
  Audit.record history (entry "u" "submit" Decision.Permit);
  check bool_ "two permitted: a third reaches the limit" true
    (Result.is_error (Meta_policy.check sod ~history ~subject:"u" ~resource:"approve"))

(* --- remaining edges ------------------------------------------------------------ *)

let test_client_reuses_capability () =
  let net, services = fresh () in
  let keys = Dacs_crypto.Rsa.generate (Dacs_crypto.Rng.create 13L) ~bits:512 in
  Net.add_node net "cas";
  let cas =
    Capability_service.create services ~node:"cas" ~issuer:"cas" ~keypair:keys
      ~root:(doctor_policy "r") ()
  in
  Net.add_node net "pep";
  ignore
    (Pep.create services ~node:"pep" ~domain:"d" ~resource:"r"
       (Pep.Push
          {
            trusted_issuer =
              (fun i -> if i = "cas" then Some (Capability_service.public_key cas) else None);
            check_revocation = None;
            local_pdp = None;
          }));
  Net.add_node net "client";
  let client = Client.create services ~node:"client" ~subject:(doctor_subject "alice") in
  let go () =
    Client.request_with_capability client ~capability_service:"cas" ~pep:"pep" ~resource:"r"
      ~action:"read" (fun _ -> ());
    Net.run net
  in
  go ();
  go ();
  check int_ "cached" 1 (Client.capability_requests_made client)

let test_capability_expiry_forces_reissue () =
  let net, services = fresh () in
  let keys = Dacs_crypto.Rsa.generate (Dacs_crypto.Rng.create 14L) ~bits:512 in
  Net.add_node net "cas";
  let cas =
    Capability_service.create services ~node:"cas" ~issuer:"cas" ~keypair:keys
      ~root:(doctor_policy "r") ~validity:5.0 ()
  in
  Net.add_node net "pep";
  ignore
    (Pep.create services ~node:"pep" ~domain:"d" ~resource:"r"
       (Pep.Push
          {
            trusted_issuer =
              (fun i -> if i = "cas" then Some (Capability_service.public_key cas) else None);
            check_revocation = None;
            local_pdp = None;
          }));
  Net.add_node net "client";
  let client = Client.create services ~node:"client" ~subject:(doctor_subject "alice") in
  let outcomes = ref [] in
  let request_at t =
    Dacs_net.Engine.schedule (Net.engine net) ~delay:t (fun () ->
        Client.request_with_capability client ~capability_service:"cas" ~pep:"pep" ~resource:"r"
          ~action:"read" (fun r -> outcomes := r :: !outcomes))
  in
  request_at 0.5;
  request_at 1.0;  (* reuse *)
  request_at 10.0; (* expired: must re-issue and still succeed *)
  Net.run net;
  check int_ "three grants" 3
    (List.length (List.filter (function Ok (Wire.Granted _) -> true | _ -> false) !outcomes));
  check int_ "two issuances" 2 (Client.capability_requests_made client)

let test_lifecycle_draft_states () =
  let net, services = fresh () in
  Net.add_node net "pap";
  let pap = Pap.create services ~node:"pap" ~name:"p" () in
  let lc =
    Lifecycle.create ~pap ~approvers:[] ~now:(fun () -> Net.now net) ()
  in
  let d1 = Lifecycle.submit lc ~author:"a" (doctor_policy "r1") in
  let d2 = Lifecycle.submit lc ~author:"b" (doctor_policy ~id:"p2" "r2") in
  check bool_ "both draft state" true
    (List.for_all (fun d -> Lifecycle.state_of lc ~draft:d = Some Lifecycle.Draft) [ d1; d2 ]);
  check bool_ "unknown draft" true (Lifecycle.state_of lc ~draft:"nope" = None);
  check bool_ "review unknown" true (Result.is_error (Lifecycle.review lc ~draft:"nope" ()))

let () =
  Alcotest.run "dacs_core"
    [
      ( "wire",
        [
          Alcotest.test_case "access request" `Quick test_wire_access_request;
          Alcotest.test_case "authz roundtrip" `Quick test_wire_authz_roundtrip;
          Alcotest.test_case "attribute roundtrip" `Quick test_wire_attribute_roundtrip;
          Alcotest.test_case "policy roundtrip" `Quick test_wire_policy_roundtrip;
          Alcotest.test_case "capability roundtrip" `Quick test_wire_capability_roundtrip;
          Alcotest.test_case "outcomes" `Quick test_wire_outcomes;
        ] );
      ( "audit",
        [
          Alcotest.test_case "basics" `Quick test_audit_basics;
          Alcotest.test_case "merge ordering" `Quick test_audit_merge_ordering;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss/expiry" `Quick test_cache_hit_miss_expiry;
          Alcotest.test_case "eviction" `Quick test_cache_eviction;
          Alcotest.test_case "refresh does not evict live key" `Quick
            test_cache_refresh_not_evicted;
          Alcotest.test_case "stale lookup window" `Quick test_cache_stale_lookup;
          Alcotest.test_case "invalidation" `Quick test_cache_invalidation;
          Alcotest.test_case "key stability" `Quick test_cache_key_stability;
          Alcotest.test_case "stats are the registry's series" `Quick
            test_cache_stats_are_registry_series;
          Alcotest.test_case "stats without a registry" `Quick test_cache_stats_without_registry;
        ] );
      ( "pap",
        [
          Alcotest.test_case "query versions" `Quick test_pap_query_versions;
          Alcotest.test_case "remote update access control" `Quick test_pap_remote_update_access_control;
          Alcotest.test_case "syndication cascade" `Quick test_pap_syndication_cascade;
          Alcotest.test_case "every update is announced" `Quick test_pap_announces_every_update;
          Alcotest.test_case "update transform declines" `Quick test_pap_update_transform_declines;
          Alcotest.test_case "hooks run in registration order" `Quick test_pap_hooks_in_order;
        ] );
      ("pip", [ Alcotest.test_case "lookups" `Quick test_pip_lookup_service ]);
      ( "pdp-service",
        [
          Alcotest.test_case "basic decision" `Quick test_pdp_service_basic;
          Alcotest.test_case "PIP attribute fetch" `Quick test_pdp_service_pip_fetch;
          Alcotest.test_case "policy fetch and TTL" `Quick test_pdp_service_policy_fetch_and_ttl;
          Alcotest.test_case "no policy" `Quick test_pdp_service_no_policy;
        ] );
      ( "capability",
        [
          Alcotest.test_case "issue and verify" `Quick test_capability_issue_and_verify;
          Alcotest.test_case "revocation" `Quick test_capability_revocation;
          Alcotest.test_case "idp" `Quick test_idp;
        ] );
      ( "pep-pull",
        [
          Alcotest.test_case "grant and deny" `Quick test_pep_pull_grant_and_deny;
          Alcotest.test_case "decision cache" `Quick test_pep_pull_cache;
          Alcotest.test_case "failover" `Quick test_pep_pull_failover;
          Alcotest.test_case "a silent primary fails over at its RTO" `Quick
            test_pep_pull_fails_over_at_rto;
          Alcotest.test_case "rebinding the tier moves the PEP's queries" `Quick
            test_pep_pull_follows_tier_rebind;
          Alcotest.test_case "all PDPs down fails closed" `Quick test_pep_pull_all_pdps_down;
          Alcotest.test_case "bad retry policy rejected when set" `Quick test_pep_rejects_bad_retry_policy;
          Alcotest.test_case "encrypt obligation" `Quick test_pep_obligations_encrypt;
          Alcotest.test_case "encrypted grants use fresh nonces" `Quick test_pep_encrypt_fresh_nonces;
          Alcotest.test_case "unknown obligation fails closed" `Quick test_pep_unknown_obligation_fails_closed;
        ] );
      ( "pep-push",
        [
          Alcotest.test_case "happy path with reuse" `Quick test_pep_push_happy_path;
          Alcotest.test_case "no assertion denied" `Quick test_pep_push_without_assertion;
          Alcotest.test_case "undecodable SAML capability denied" `Quick
            (pep_denies_undecodable_capability Dacs_saml.Assertion.to_xml);
          Alcotest.test_case "undecodable attribute certificate denied" `Quick
            (pep_denies_undecodable_capability x509_xml);
          Alcotest.test_case "client rejects an undecodable SAML capability" `Quick
            (client_rejects_undecodable_capability Dacs_saml.Assertion.to_xml);
          Alcotest.test_case "client rejects an undecodable attribute certificate" `Quick
            (client_rejects_undecodable_capability x509_xml);
          Alcotest.test_case "capability scope" `Quick test_pep_push_capability_scope;
          Alcotest.test_case "revocation" `Quick test_pep_push_revocation;
          Alcotest.test_case "local PDP final say" `Quick test_pep_push_local_final_say;
          Alcotest.test_case "agent mode" `Quick test_pep_agent_mode;
        ] );
      ( "edges",
        [
          Alcotest.test_case "capability reuse" `Quick test_client_reuses_capability;
          Alcotest.test_case "capability expiry re-issues" `Quick test_capability_expiry_forces_reissue;
          Alcotest.test_case "lifecycle draft states" `Quick test_lifecycle_draft_states;
        ] );
      ( "delegation",
        [
          Alcotest.test_case "chains" `Quick test_delegation_chains;
          Alcotest.test_case "revocation cascades" `Quick test_delegation_revocation_cascades;
          Alcotest.test_case "a re-delegated scope only narrows" `Quick test_delegation_scope_narrows;
          Alcotest.test_case "revoking the last link" `Quick test_delegation_revoke_last_link;
          Alcotest.test_case "an expired link breaks the chain" `Quick test_delegation_expired_link_breaks_chain;
          Alcotest.test_case "a second chain survives a revocation" `Quick test_delegation_second_chain_survives;
        ] );
      ( "negotiation",
        [
          Alcotest.test_case "immediate" `Quick test_negotiation_immediate;
          Alcotest.test_case "iterative" `Quick test_negotiation_iterative;
          Alcotest.test_case "deadlock" `Quick test_negotiation_deadlock;
          Alcotest.test_case "alternatives" `Quick test_negotiation_alternatives;
        ] );
      ( "conflict",
        [
          Alcotest.test_case "detection" `Quick test_conflict_detection;
          Alcotest.test_case "no false positives" `Quick test_conflict_no_false_positive;
          Alcotest.test_case "wildcard overlap" `Quick test_conflict_wildcard_overlaps;
          Alcotest.test_case "nested sets" `Quick test_conflict_in_set;
          Alcotest.test_case "resolutions" `Quick test_conflict_resolutions;
          Alcotest.test_case "a prefix match binds nothing" `Quick test_conflict_prefix_binds_nothing;
          Alcotest.test_case "bindings keyed by category" `Quick
            test_conflict_binding_keyed_by_category;
        ] );
      ( "meta-policy",
        [
          Alcotest.test_case "Chinese wall" `Quick test_chinese_wall;
          Alcotest.test_case "dynamic resource SoD" `Quick test_dynamic_resource_sod;
          Alcotest.test_case "denials leave no history" `Quick test_meta_denials_leave_no_history;
        ] );
    ]
