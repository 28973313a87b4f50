(* Integration tests: full domains and Virtual Organisations.  Each of the
   paper's figures is exercised end-to-end and its message sequence is
   asserted against the network trace. *)

module Xml = Dacs_xml.Xml
module Value = Dacs_policy.Value
module Decision = Dacs_policy.Decision
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Expr = Dacs_policy.Expr
module Target = Dacs_policy.Target
module Combine = Dacs_policy.Combine
module Net = Dacs_net.Net
module Engine = Dacs_net.Engine
module Service = Dacs_ws.Service
open Dacs_core

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let fresh () =
  let net = Net.create () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  (net, services)

let doctor_read_policy ?(id = "policy") ?(issuer = "") resource =
  Policy.Inline_policy
    (Policy.make ~id ~issuer ~rule_combining:Combine.First_applicable
       [
         Rule.permit
           ~target:
             Target.(
               any |> subject_is "role" "doctor" |> resource_is "resource-id" resource
               |> action_is "action-id" "read")
           ("permit-doctor-read-" ^ resource);
         Rule.deny ("default-deny-" ^ id);
       ])

let doctor_subject user = [ ("subject-id", Value.String user); ("role", Value.String "doctor") ]

(* --- single domain ----------------------------------------------------- *)

let test_domain_end_to_end () =
  let net, services = fresh () in
  let domain = Domain.create services ~name:"hospital" () in
  Domain.set_local_policy domain (doctor_read_policy "charts");
  let pep = Domain.expose_resource domain ~resource:"charts" ~content:"chart-data" () in
  Domain.register_user domain ~user:"alice" (doctor_subject "alice");
  let client = Client.create services ~node:(Net.add_node net "c"; "c") ~subject:(doctor_subject "alice") in
  let got = ref None in
  Client.request client ~pep:(Pep.node pep) ~action:"read" (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Granted { content; _ })) -> check string_ "content" "chart-data" content
  | _ -> Alcotest.fail "expected grant");
  (* The domain audit holds the decision. *)
  check int_ "audited" 1 (Audit.size (Domain.audit domain));
  check bool_ "pep registered" true (List.exists (fun p -> Pep.resource p = "charts") (Domain.peps domain))

let test_domain_pdp_pulls_attributes_from_pip () =
  (* The client presents only its identity; the role comes from the
     domain PIP (registered via register_user). *)
  let net, services = fresh () in
  let domain = Domain.create services ~name:"hospital" () in
  Domain.set_local_policy domain (doctor_read_policy "charts");
  let pep = Domain.expose_resource domain ~resource:"charts" () in
  Domain.register_user domain ~user:"alice" (doctor_subject "alice");
  Net.add_node net "c";
  let client =
    Client.create services ~node:"c" ~subject:[ ("subject-id", Value.String "alice") ]
  in
  let got = ref None in
  Client.request client ~pep:(Pep.node pep) ~action:"read" (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Granted _)) -> ()
  | _ -> Alcotest.fail "expected grant via PIP attributes");
  check bool_ "pip consulted" true
    ((Pdp_service.stats (Domain.pdp domain)).Pdp_service.pip_fetches > 0)

let test_domain_policy_change_invalidates () =
  let net, services = fresh () in
  let domain = Domain.create services ~name:"hospital" () in
  Domain.set_local_policy domain (doctor_read_policy "charts");
  let cache = Decision_cache.create ~ttl:1000.0 () in
  let pep = Domain.expose_resource domain ~resource:"charts" ~cache () in
  Domain.register_user domain ~user:"alice" (doctor_subject "alice");
  Net.add_node net "c";
  let client = Client.create services ~node:"c" ~subject:(doctor_subject "alice") in
  let request k =
    Client.request client ~pep:(Pep.node pep) ~action:"read" k;
    Net.run net
  in
  let got = ref None in
  request (fun r -> got := Some r);
  (match !got with
  | Some (Ok (Wire.Granted _)) -> ()
  | _ -> Alcotest.fail "expected initial grant");
  (* Replace the policy with deny-all; set_local_policy published it and
     the domain PAP's accept purged the PEP cache, so the change takes
     effect at once. *)
  Domain.set_local_policy domain (Policy.Inline_policy (Policy.make ~id:"lockdown" [ Rule.deny "deny" ]));
  request (fun r -> got := Some r);
  match !got with
  | Some (Ok (Wire.Denied _)) -> ()
  | _ -> Alcotest.fail "expected deny right after the policy change"

(* --- figure 3: pull sequence ---------------------------------------------- *)

let test_fig3_pull_message_sequence () =
  let net, services = fresh () in
  let domain = Domain.create services ~name:"d" () in
  Domain.set_local_policy domain (doctor_read_policy "ws");
  let pep = Domain.expose_resource domain ~resource:"ws" () in
  Net.add_node net "client";
  let client = Client.create services ~node:"client" ~subject:(doctor_subject "alice") in
  Net.set_tracing net true;
  let got = ref None in
  Client.request client ~pep:(Pep.node pep) ~action:"read" (fun r -> got := Some r);
  Net.run net;
  check bool_ "granted" true (match !got with Some (Ok (Wire.Granted _)) -> true | _ -> false);
  (* Fig. 3: (I) access request, (II) authz query, (III) authz response,
     (IV) access response.  The PDP additionally fetched its policy from
     the PAP on first use. *)
  let cats = List.map (fun e -> e.Net.t_category) (Net.trace net) in
  let expected =
    [
      "access"; "authz-query"; "policy-query"; "policy-query-reply"; "authz-query-reply";
      "access-reply";
    ]
  in
  check (Alcotest.list string_) "fig.3 sequence" expected cats

(* --- figure 2: push sequence ------------------------------------------------ *)

let test_fig2_push_message_sequence () =
  let net, services = fresh () in
  let keys = Dacs_crypto.Rsa.generate (Dacs_crypto.Rng.create 21L) ~bits:512 in
  Net.add_node net "cas";
  let cas =
    Capability_service.create services ~node:"cas" ~issuer:"cas" ~keypair:keys
      ~root:(doctor_read_policy "ws") ()
  in
  Net.add_node net "pep";
  ignore
    (Pep.create services ~node:"pep" ~domain:"d" ~resource:"ws"
       (Pep.Push
          {
            trusted_issuer =
              (fun i -> if i = "cas" then Some (Capability_service.public_key cas) else None);
            check_revocation = None;
            local_pdp = None;
          }));
  Net.add_node net "client";
  let client = Client.create services ~node:"client" ~subject:(doctor_subject "alice") in
  Net.set_tracing net true;
  let got = ref None in
  Client.request_with_capability client ~capability_service:"cas" ~pep:"pep" ~resource:"ws"
    ~action:"read" (fun r -> got := Some r);
  Net.run net;
  check bool_ "granted" true (match !got with Some (Ok (Wire.Granted _)) -> true | _ -> false);
  (* Fig. 2: (I) capability request, (II) capability response,
     (III) service call with assertion, (IV) access response. *)
  let cats = List.map (fun e -> e.Net.t_category) (Net.trace net) in
  check (Alcotest.list string_) "fig.2 sequence"
    [ "capability-request"; "capability-request-reply"; "access"; "access-reply" ]
    cats;
  (* On reuse, only the service call remains (2 messages instead of 4). *)
  let before = List.length (Net.trace net) in
  Client.request_with_capability client ~capability_service:"cas" ~pep:"pep" ~resource:"ws"
    ~action:"read" (fun r -> got := Some r);
  Net.run net;
  check (Alcotest.list string_) "reuse sequence" [ "access"; "access-reply" ]
    (List.filteri (fun i _ -> i >= before) (List.map (fun e -> e.Net.t_category) (Net.trace net)))

(* --- figure 1: a virtual organisation ------------------------------------------ *)

let make_vo () =
  let net, services = fresh () in
  let d_a = Domain.create services ~name:"org-a" () in
  let d_b = Domain.create services ~name:"org-b" () in
  let d_c = Domain.create services ~name:"org-c" () in
  let vo = Vo.form services ~name:"vo" [ d_a; d_b; d_c ] in
  (net, services, vo, d_a, d_b, d_c)

let test_vo_formation () =
  let _net, _services, vo, d_a, _d_b, _d_c = make_vo () in
  check int_ "three domains" 3 (List.length (Vo.domains vo));
  check (Alcotest.list string_) "domain names" [ "org-a"; "org-b"; "org-c" ]
    (List.map Domain.name (Vo.domains vo));
  (* Trust fabric knows every member IdP and the VO capability service. *)
  check bool_ "idp key" true (Vo.issuer_key vo "idp.org-a" <> None);
  check bool_ "cas key" true (Vo.issuer_key vo "cas.vo" <> None);
  check bool_ "unknown issuer" true (Vo.issuer_key vo "idp.evil" = None);
  (* Member PAPs are subscribed to the VO PAP. *)
  check int_ "subscribers" 3 (List.length (Pap.subscribers (Vo.vo_pap vo)));
  ignore d_a

let test_vo_policy_syndication () =
  let net, _services, vo, d_a, d_b, d_c = make_vo () in
  Vo.publish_policy vo (doctor_read_policy ~id:"vo-policy" ~issuer:"vo" "shared-ws");
  Net.run net;
  (* Every member PAP received the policy. *)
  List.iter
    (fun d ->
      check bool_ (Domain.name d ^ " received") true (Pap.current (Domain.pap d) <> None))
    [ d_a; d_b; d_c ]

let test_vo_cross_domain_access () =
  (* A user from org-b accesses a resource exposed by org-a under the
     VO-wide policy. *)
  let net, _services, vo, d_a, d_b, _ = make_vo () in
  Vo.publish_policy vo (doctor_read_policy ~id:"vo-policy" ~issuer:"vo" "shared-ws");
  Net.run net;
  let pep = Domain.expose_resource d_a ~resource:"shared-ws" ~content:"vo-data" () in
  let client = Vo.client_for vo ~domain:d_b ~user:"bob" (doctor_subject "bob") in
  let got = ref None in
  Client.request client ~pep:(Pep.node pep) ~action:"read" (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Granted { content; _ })) -> check string_ "content" "vo-data" content
  | _ -> Alcotest.fail "expected cross-domain grant");
  (* Non-doctors from other domains are denied. *)
  let mallory = Vo.client_for vo ~domain:d_b ~user:"mallory" [ ("subject-id", Value.String "mallory") ] in
  Client.request mallory ~pep:(Pep.node pep) ~action:"read" (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok (Wire.Denied _)) -> ()
  | _ -> Alcotest.fail "expected deny"

let test_vo_domain_autonomy () =
  (* The VO grants access, but the resource domain's own policy forbids
     it: deny-overrides combination preserves local autonomy. *)
  let net, _services, vo, d_a, d_b, _ = make_vo () in
  Vo.publish_policy vo (doctor_read_policy ~id:"vo-policy" ~issuer:"vo" "shared-ws");
  Net.run net;
  (* org-a locally denies bob by name. *)
  Domain.set_local_policy d_a
    (Policy.Inline_policy
       (Policy.make ~id:"local-restrictions" ~issuer:"org-a" ~rule_combining:Combine.First_applicable
          [
            Rule.deny
              ~target:Target.(any |> subject_is "subject-id" "bob")
              "blacklist-bob";
          ]));
  Net.run net;
  let pep = Domain.expose_resource d_a ~resource:"shared-ws" () in
  let bob = Vo.client_for vo ~domain:d_b ~user:"bob" (doctor_subject "bob") in
  let got = ref None in
  Client.request bob ~pep:(Pep.node pep) ~action:"read" (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Denied _)) -> ()
  | _ -> Alcotest.fail "local deny must override the VO grant");
  (* Another doctor is still fine. *)
  let carol = Vo.client_for vo ~domain:d_b ~user:"carol" (doctor_subject "carol") in
  Client.request carol ~pep:(Pep.node pep) ~action:"read" (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok (Wire.Granted _)) -> ()
  | _ -> Alcotest.fail "expected grant for carol"

(* Revocation across a VO (§3.2, Fig. 5): a VO-wide deny-all purges a
   member domain's PEP caches as soon as the member PAP accepts it, as a
   local publish would, however long their TTL. *)
let vo_lockdown = Policy.Inline_policy (Policy.make ~id:"vo-lockdown" [ Rule.deny "deny-all" ])

let cached_member_pep () =
  let net, _services, vo, d_a, _, _ = make_vo () in
  Domain.set_local_policy d_a (doctor_read_policy "shared-ws");
  let cache = Decision_cache.create ~ttl:300.0 () in
  let pep = Domain.expose_resource d_a ~resource:"shared-ws" ~cache () in
  let alice = Vo.client_for vo ~domain:d_a ~user:"alice" (doctor_subject "alice") in
  let granted ~until =
    let got = ref None in
    Client.request alice ~pep:(Pep.node pep) ~action:"read" ~timeout:5.0 (fun r -> got := Some r);
    Net.run ~until net;
    match !got with
    | Some (Ok (Wire.Granted _)) -> true
    | Some (Ok (Wire.Denied _)) -> false
    | _ -> Alcotest.fail "expected an answer"
  in
  (net, vo, d_a, granted)

let test_vo_revocation_purges_member_caches () =
  let net, vo, d_a, granted = cached_member_pep () in
  check bool_ "initial grant" true (granted ~until:1.0);
  Vo.publish_policy vo vo_lockdown;
  Net.run ~until:2.0 net;
  check int_ "the member PAP accepted it" 2 (Pap.version (Domain.pap d_a));
  check bool_ "denied at once, inside the TTL" false (granted ~until:3.0)

let test_vo_anti_entropy_pull_purges_member_caches () =
  let net, vo, d_a, granted = cached_member_pep () in
  let member = Domain.pap d_a and vo_pap = Vo.vo_pap vo in
  Pap.enable_anti_entropy member ~parent:(Pap.node vo_pap) ~period:5.0;
  check bool_ "initial grant" true (granted ~until:1.0);
  (* The push is lost to a partition; the member keeps its policy. *)
  Net.partition net [ Pap.node vo_pap ] [ Pap.node member ];
  Vo.publish_policy vo vo_lockdown;
  check bool_ "still granted while the push is lost" true (granted ~until:3.0);
  check int_ "not accepted yet" 1 (Pap.version member);
  (* The next poll after the heal pulls the lockdown and purges. *)
  Net.unpartition net [ Pap.node vo_pap ] [ Pap.node member ];
  Net.run ~until:12.0 net;
  check int_ "pulled by anti-entropy" 2 (Pap.version member);
  check bool_ "denied at once, inside the TTL" false (granted ~until:13.0)

(* With the cache hierarchy attached, a member that misses the VO push
   pulls the policy itself within one anti-entropy period: purging its
   caches without the policy would only re-grant from the live PDP. *)
let test_vo_cache_hierarchy_heals_lost_policy () =
  let net, vo, d_a, granted = cached_member_pep () in
  let member = Domain.pap d_a and vo_pap = Vo.vo_pap vo in
  Vo.cache_hierarchy vo ~ttl:60.0 ();
  check bool_ "initial grant" true (granted ~until:1.0);
  Net.partition net [ Pap.node vo_pap ] [ Pap.node member ];
  Vo.publish_policy vo vo_lockdown;
  check bool_ "still granted while the push is lost" true (granted ~until:3.0);
  Net.unpartition net [ Pap.node vo_pap ] [ Pap.node member ];
  Net.run ~until:61.0 net;
  check int_ "the member PAP pulled the lockdown" 2 (Pap.version member);
  check bool_ "denied after the heal" false (granted ~until:62.0)

(* A policy the VO pushed before the cache hierarchy was attached is not
   pulled again: the member's anti-entropy starts from the version the
   VO PAP last pushed it, so its polls find nothing new. *)
let test_vo_anti_entropy_starts_from_adopted_push () =
  let net, services = fresh () in
  let d_a = Domain.create services ~name:"org-a" () in
  let vo = Vo.form services ~name:"vo" [ d_a ] in
  let member = Domain.pap d_a in
  Vo.publish_policy vo (doctor_read_policy ~id:"vo-policy" ~issuer:"vo" "shared-ws");
  Net.run net;
  check int_ "the push was adopted" 1 (Pap.version member);
  Vo.cache_hierarchy vo ~ttl:60.0 ();
  Net.run ~until:(Net.now net +. 11.0) net;
  check int_ "still at the pushed version after two polls" 1 (Pap.version member);
  check int_ "accepted once" 1 (Pap.updates_accepted member)

let test_vo_push_model_with_vo_cas () =
  (* Push model inside the VO: capability from the VO capability service,
     honoured by a push-mode PEP in a member domain. *)
  let net, services, vo, d_a, d_b, _ = make_vo () in
  Vo.publish_policy vo (doctor_read_policy ~id:"vo-policy" ~issuer:"vo" "shared-ws");
  Net.run net;
  let pep_node = "org-a.pep-push.shared-ws" in
  Net.add_node net pep_node;
  ignore
    (Pep.create services ~node:pep_node ~domain:"org-a" ~resource:"shared-ws"
       ~audit:(Domain.audit d_a)
       (Pep.Push
          {
            trusted_issuer = Vo.issuer_key vo;
            check_revocation = None;
            local_pdp = None;
          }));
  let client = Vo.client_for vo ~domain:d_b ~user:"dave" (doctor_subject "dave") in
  let got = ref None in
  Client.request_with_capability client
    ~capability_service:"vo.cas"
    ~pep:pep_node ~resource:"shared-ws" ~action:"read" (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok (Wire.Granted _)) -> ()
  | _ -> Alcotest.fail "expected push-model grant in the VO"

let test_vo_merged_audit () =
  let net, _services, vo, d_a, d_b, _ = make_vo () in
  Vo.publish_policy vo (doctor_read_policy ~id:"vo-policy" ~issuer:"vo" "shared-ws");
  Net.run net;
  let pep_a = Domain.expose_resource d_a ~resource:"shared-ws" () in
  let pep_b = Domain.expose_resource d_b ~resource:"shared-ws" () in
  let alice = Vo.client_for vo ~domain:d_a ~user:"alice" (doctor_subject "alice") in
  let done_count = ref 0 in
  Client.request alice ~pep:(Pep.node pep_a) ~action:"read" (fun _ -> incr done_count);
  Client.request alice ~pep:(Pep.node pep_b) ~action:"read" (fun _ -> incr done_count);
  Net.run net;
  check int_ "both replied" 2 !done_count;
  let merged = Vo.merged_audit vo in
  check int_ "two entries across domains" 2 (Audit.size merged);
  check bool_ "both domains present" true
    (List.sort_uniq compare (List.map (fun e -> e.Audit.domain) (Audit.entries merged))
    = [ "org-a"; "org-b" ])

(* --- dependability: replication and failover under faults ------------------------- *)

let test_replicated_pdps_survive_crash () =
  let net, services = fresh () in
  let domain = Domain.create services ~name:"d" () in
  Domain.set_local_policy domain (doctor_read_policy "ws");
  let pdp_node = Pdp_service.node (Domain.pdp domain) in
  (* A second PDP replica fed by the same PAP. *)
  Net.add_node net "d.pdp2";
  ignore
    (Pdp_service.create services ~node:"d.pdp2" ~name:"d-pdp2" ~pap:(Pap.node (Domain.pap domain)) ());
  Net.add_node net "d.pep.ws";
  let pep =
    Pep.create services ~node:"d.pep.ws" ~domain:"d" ~resource:"ws"
      (Pep.Sharded
         {
           tier = Pdp_tier.ordered services ~node:"d.pep.ws" ~pdps:[ pdp_node; "d.pdp2" ] ~call_timeout:0.3;
           cache = None;
         })
  in
  Net.add_node net "c";
  let client = Client.create services ~node:"c" ~subject:(doctor_subject "alice") in
  let succeeded = ref 0 and failed = ref 0 in
  let request () =
    Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:5.0 (fun r ->
        match r with
        | Ok (Wire.Granted _) -> incr succeeded
        | _ -> incr failed)
  in
  request ();
  Net.run net;
  check int_ "baseline ok" 1 !succeeded;
  (* Crash the primary: requests keep succeeding via the replica. *)
  Net.crash net pdp_node;
  request ();
  Net.run net;
  check int_ "survived primary crash" 2 !succeeded;
  check int_ "no failures" 0 !failed;
  check bool_ "failover recorded" true ((Pep.stats pep).Pep.failovers > 0);
  (* Recover the primary, crash the replica: still fine. *)
  Net.recover net pdp_node;
  Net.crash net "d.pdp2";
  request ();
  Net.run net;
  check int_ "back on primary" 3 !succeeded

let test_partition_heals () =
  let net, services = fresh () in
  let domain = Domain.create services ~name:"d" () in
  Domain.set_local_policy domain (doctor_read_policy "ws");
  let pep = Domain.expose_resource domain ~resource:"ws" () in
  Net.add_node net "c";
  let client = Client.create services ~node:"c" ~subject:(doctor_subject "alice") in
  (* Partition the PEP from the PDP: requests fail closed. *)
  Net.partition net [ Pep.node pep ] [ Pdp_service.node (Domain.pdp domain) ];
  let got = ref None in
  Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:5.0 (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Denied _)) -> ()
  | _ -> Alcotest.fail "expected fail-closed deny during the partition");
  Net.unpartition net [ Pep.node pep ] [ Pdp_service.node (Domain.pdp domain) ];
  Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:5.0 (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok (Wire.Granted _)) -> ()
  | _ -> Alcotest.fail "expected grant after healing"

let test_lossy_network_with_cache () =
  (* Under heavy loss, cached decisions keep the success rate up even
     though PDP calls time out. *)
  let net, services = fresh () in
  let domain = Domain.create services ~name:"d" () in
  Domain.set_local_policy domain (doctor_read_policy "ws");
  let cache = Decision_cache.create ~ttl:1000.0 () in
  let pep = Domain.expose_resource domain ~resource:"ws" ~cache () in
  Net.add_node net "c";
  let client = Client.create services ~node:"c" ~subject:(doctor_subject "alice") in
  (* Warm the cache on a healthy network. *)
  let granted = ref 0 in
  Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:5.0 (fun r ->
      match r with Ok (Wire.Granted _) -> incr granted | _ -> ());
  Net.run net;
  check int_ "warmed" 1 !granted;
  (* Now drop 80% of messages; the client-PEP link may still fail, so we
     count only delivered requests — cache keeps PEP-side cost zero. *)
  Net.set_drop_rate net 0.8;
  for _ = 1 to 20 do
    Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:2.0 (fun _ -> ())
  done;
  Net.run net;
  let s = Pep.stats pep in
  check bool_ "cache served the survivors" true (s.Pep.cache_hits > 0);
  check int_ "no further PDP calls" 1 s.Pep.pdp_calls

(* --- staleness: the cache/revocation trade ------------------------------------------ *)

let test_cache_staleness_window () =
  let net, services = fresh () in
  let domain = Domain.create services ~name:"d" () in
  Domain.set_local_policy domain (doctor_read_policy "ws");
  let cache = Decision_cache.create ~ttl:50.0 () in
  (* The PEP is built outside the domain, so the domain's purge on a
     publish does not reach its cache. *)
  let pep_node = "d.pep.ws" in
  Net.add_node net pep_node;
  let pep =
    Pep.create services ~node:pep_node ~domain:"d" ~resource:"ws" ~audit:(Domain.audit domain)
      (Pep.Sharded
         {
           tier =
             Pdp_tier.ordered services ~node:pep_node ~pdps:[ Pdp_service.node (Domain.pdp domain) ]
               ~call_timeout:1.0;
           cache = Some cache;
         })
  in
  Net.add_node net "c";
  let client = Client.create services ~node:"c" ~subject:(doctor_subject "alice") in
  let outcome = ref None in
  let request () =
    Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:5.0 (fun r -> outcome := Some r);
    Net.run net
  in
  request ();
  check bool_ "initial grant" true (match !outcome with Some (Ok (Wire.Granted _)) -> true | _ -> false);
  (* Revoke by replacing the policy *at the PAP only* — simulating an
     administrator who cannot reach every PEP cache. *)
  Pap.publish (Domain.pap domain) (Policy.Inline_policy (Policy.make ~id:"lockdown" [ Rule.deny "d" ]));
  (* Within the TTL the stale Permit is still served: a false positive. *)
  request ();
  check bool_ "stale permit inside TTL" true
    (match !outcome with Some (Ok (Wire.Granted _)) -> true | _ -> false);
  (* After the TTL the PEP asks the PDP again and learns of the deny. *)
  Dacs_net.Engine.schedule (Net.engine net) ~delay:60.0 (fun () ->
      Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:5.0 (fun r -> outcome := Some r));
  Net.run net;
  check bool_ "deny after TTL" true
    (match !outcome with Some (Ok (Wire.Denied _)) -> true | _ -> false)


(* --- RBAC-backed domain ------------------------------------------------------ *)

let test_domain_set_rbac () =
  let net, services = fresh () in
  let domain = Domain.create services ~name:"clinic" () in
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let m = Dacs_rbac.Rbac.empty in
  let m = List.fold_left Dacs_rbac.Rbac.add_role m [ "nurse"; "doctor" ] in
  let m = ok (Dacs_rbac.Rbac.add_inheritance m ~senior:"doctor" ~junior:"nurse") in
  let m = ok (Dacs_rbac.Rbac.grant_permission m "nurse" { Dacs_rbac.Rbac.action = "read"; resource = "vitals" }) in
  let m = ok (Dacs_rbac.Rbac.assign_user m "dora" "doctor") in
  let m = ok (Dacs_rbac.Rbac.assign_user m "ned" "nurse") in
  (* The model becomes the domain's local policy, and every assigned
     user's id and authorised roles are registered at its IdP and PIP. *)
  List.iter
    (fun user -> Domain.register_user domain ~user (Dacs_rbac.Compile.subject_for_user m user))
    (Dacs_rbac.Rbac.users m);
  Domain.set_local_policy domain (Policy.Inline_policy (Dacs_rbac.Compile.to_policy ~id:"clinic-rbac" m));
  let pep = Domain.expose_resource domain ~resource:"vitals" () in
  Net.add_node net "c";
  (* The client presents only its identity; roles come from the PIP. *)
  let request user k =
    let client = Client.create services ~node:"c" ~subject:[ ("subject-id", Value.String user) ] in
    Client.request client ~pep:(Pep.node pep) ~action:"read" k;
    Net.run net
  in
  let got = ref None in
  request "dora" (fun r -> got := Some r);
  (match !got with
  | Some (Ok (Wire.Granted _)) -> ()
  | _ -> Alcotest.fail "doctor (inheriting nurse) should read vitals");
  request "ned" (fun r -> got := Some r);
  (match !got with
  | Some (Ok (Wire.Granted _)) -> ()
  | _ -> Alcotest.fail "nurse should read vitals");
  request "stranger" (fun r -> got := Some r);
  match !got with
  | Some (Ok (Wire.Denied _)) -> ()
  | _ -> Alcotest.fail "unknown user must be denied"

(* --- scale: a larger federation under mixed load ------------------------------- *)

let test_vo_at_scale () =
  (* 12 domains, 60 users, 240 mixed requests with caches, syndication and
     cross-domain traffic: everything stays consistent and audited. *)
  let net, services = fresh () in
  let n_domains = 12 and users_per_domain = 5 in
  let domains =
    List.init n_domains (fun i -> Domain.create services ~name:(Printf.sprintf "org%02d" i) ())
  in
  let vo = Vo.form services ~name:"big-vo" domains in
  Vo.publish_policy vo
    (Policy.Inline_policy
       (Policy.make ~id:"vo-policy" ~issuer:"big-vo" ~rule_combining:Combine.First_applicable
          [
            Rule.permit
              ~target:Target.(any |> action_is "action-id" "read")
              ~condition:(Expr.one_of (Expr.subject_attr "role") [ "member" ])
              "members-read";
            Rule.deny "default-deny";
          ]));
  Net.run net;
  let peps =
    List.map
      (fun d ->
        Domain.expose_resource d ~resource:"shared"
          ~cache:(Decision_cache.create ~ttl:300.0 ())
          ())
      domains
  in
  let clients =
    List.concat
      (List.mapi
         (fun di d ->
           List.init users_per_domain (fun ui ->
               let user = Printf.sprintf "u%02d-%d" di ui in
               let role = if ui = users_per_domain - 1 then "guest" else "member" in
               Vo.client_for vo ~domain:d ~user
                 [ ("subject-id", Value.String user); ("role", Value.String role) ]))
         domains)
  in
  let granted = ref 0 and denied = ref 0 and errors = ref 0 in
  let rng = Dacs_crypto.Rng.create 123L in
  let total = 240 in
  for i = 1 to total do
    let client = Dacs_crypto.Rng.pick rng clients in
    let pep = Dacs_crypto.Rng.pick rng peps in
    Engine.schedule (Net.engine net) ~delay:(float_of_int i *. 0.1) (fun () ->
        Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:10.0 (function
          | Ok (Wire.Granted _) -> incr granted
          | Ok (Wire.Denied _) -> incr denied
          | Error _ -> incr errors))
  done;
  Net.run net;
  check int_ "all requests answered" total (!granted + !denied + !errors);
  check int_ "no transport errors" 0 !errors;
  check bool_ "grants happened" true (!granted > 0);
  check bool_ "denies happened (guests)" true (!denied > 0);
  (* Audit consistency: one entry per answered request, consolidated. *)
  check int_ "audit entries match" total (Audit.size (Vo.merged_audit vo));
  (* Caches actually absorbed load. *)
  let cache_hits =
    List.fold_left (fun acc pep -> acc + (Pep.stats pep).Pep.cache_hits) 0 peps
  in
  check bool_ "caches used" true (cache_hits > 0)

let () =
  Alcotest.run "dacs_integration"
    [
      ( "domain",
        [
          Alcotest.test_case "end to end" `Quick test_domain_end_to_end;
          Alcotest.test_case "PIP attribute pull" `Quick test_domain_pdp_pulls_attributes_from_pip;
          Alcotest.test_case "policy change takes effect" `Quick test_domain_policy_change_invalidates;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig.3 pull sequence" `Quick test_fig3_pull_message_sequence;
          Alcotest.test_case "fig.2 push sequence" `Quick test_fig2_push_message_sequence;
        ] );
      ( "vo",
        [
          Alcotest.test_case "formation" `Quick test_vo_formation;
          Alcotest.test_case "policy syndication" `Quick test_vo_policy_syndication;
          Alcotest.test_case "cross-domain access" `Quick test_vo_cross_domain_access;
          Alcotest.test_case "domain autonomy" `Quick test_vo_domain_autonomy;
          Alcotest.test_case "push model via VO CAS" `Quick test_vo_push_model_with_vo_cas;
          Alcotest.test_case "merged audit" `Quick test_vo_merged_audit;
          Alcotest.test_case "a VO revocation purges member caches" `Quick
            test_vo_revocation_purges_member_caches;
          Alcotest.test_case "an anti-entropy pull purges member caches" `Quick
            test_vo_anti_entropy_pull_purges_member_caches;
          Alcotest.test_case "the cache hierarchy heals a lost policy push" `Quick
            test_vo_cache_hierarchy_heals_lost_policy;
          Alcotest.test_case "anti-entropy starts from the version already pushed" `Quick
            test_vo_anti_entropy_starts_from_adopted_push;
        ] );
      ( "rbac-domain",
        [ Alcotest.test_case "RBAC-backed domain" `Quick test_domain_set_rbac ] );
      ( "scale",
        [ Alcotest.test_case "12-domain federation under load" `Slow test_vo_at_scale ] );
      ( "dependability",
        [
          Alcotest.test_case "replicated PDPs survive crash" `Quick test_replicated_pdps_survive_crash;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
          Alcotest.test_case "lossy network with cache" `Quick test_lossy_network_with_cache;
          Alcotest.test_case "cache staleness window" `Quick test_cache_staleness_window;
        ] );
    ]
