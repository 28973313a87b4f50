(* Tests for the §3.2 extensions: component discovery with lease-based
   liveness, proactive PEP rebinding, and authenticated (signed) decision
   responses. *)

module Xml = Dacs_xml.Xml
module Value = Dacs_policy.Value
module Decision = Dacs_policy.Decision
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Target = Dacs_policy.Target
module Combine = Dacs_policy.Combine
module Net = Dacs_net.Net
module Engine = Dacs_net.Engine
module Rpc = Dacs_net.Rpc
module Service = Dacs_ws.Service
module Soap = Dacs_ws.Soap
module Rsa = Dacs_crypto.Rsa
module Cert = Dacs_crypto.Cert
module Rng = Dacs_crypto.Rng
open Dacs_core

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let fresh () =
  let net = Net.create () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  (net, services)

(* The SOAP envelope a hostile or untyped peer writes around its raw
   frames, as an honest node's Service does. *)
let soap buf write = Soap.write buf write

let doctor_subject user = [ ("subject-id", Value.String user); ("role", Value.String "doctor") ]

let doctor_read_policy resource =
  Policy.Inline_policy
    (Policy.make ~id:"p" ~rule_combining:Combine.First_applicable
       [
         Rule.permit
           ~target:
             Target.(
               any |> subject_is "role" "doctor" |> resource_is "resource-id" resource
               |> action_is "action-id" "read")
           "permit";
         Rule.deny "deny";
       ])

(* --- discovery registry ------------------------------------------------ *)

(* The registry's listing of [kind], as a remote party reads it through
   the discover service. *)
let listed services ~kind =
  let net = Service.net services in
  if not (List.mem "seeker" (Net.nodes net)) then Net.add_node net "seeker";
  let got = ref None in
  Service.call services ~src:"seeker" ~dst:"registry" Wire.Services.discover
    (fun buf -> Wire.write_discover buf ~kind)
    (fun r -> got := Some r);
  Net.run ~until:(Net.now net +. 0.05) net;
  match !got with Some (Ok (Ok eps)) -> eps | _ -> Alcotest.fail "no discover reply"

(* Register calls the registry served. *)
let registrations services =
  Dacs_telemetry.Metrics.counter_value
    (Dacs_telemetry.Metrics.counter (Service.metrics services) ~labels:[ ("node", "registry") ]
       "discovery_registrations_total")

(* [src] asks the registry to list [node] under "pdp". *)
let register services ~src ~node k =
  Service.call services ~src ~dst:"registry" Wire.Services.register
    (fun buf -> Wire.write_register buf ~kind:"pdp" ~node)
    k

let test_registry_register_and_lookup () =
  let net, services = fresh () in
  Net.add_node net "registry";
  Net.add_node net "pdp1";
  Net.add_node net "pdp2";
  ignore (Discovery.create services ~node:"registry" ~lease:10.0 ());
  register services ~src:"pdp1" ~node:"pdp1" ignore;
  register services ~src:"pdp2" ~node:"pdp2" ignore;
  Net.run net;
  check (Alcotest.list string_) "both listed, registration order" [ "pdp1"; "pdp2" ]
    (listed services ~kind:"pdp");
  check (Alcotest.list string_) "other kinds empty" [] (listed services ~kind:"pap");
  check int_ "registrations counted" 2 (registrations services)

let test_registry_lease_expiry () =
  let net, services = fresh () in
  Net.add_node net "registry";
  Net.add_node net "pdp1";
  ignore (Discovery.create services ~node:"registry" ~lease:10.0 ());
  register services ~src:"pdp1" ~node:"pdp1" ignore;
  Net.run net;
  check int_ "listed" 1 (List.length (listed services ~kind:"pdp"));
  (* Jump past the lease without renewal: gone. *)
  Engine.schedule (Net.engine net) ~delay:11.0 ignore;
  Net.run net;
  check int_ "expired" 0 (List.length (listed services ~kind:"pdp"))

let test_registry_rejects_proxy_advertisement () =
  let net, services = fresh () in
  Net.add_node net "registry";
  Net.add_node net "mallory";
  ignore (Discovery.create services ~node:"registry" ~lease:10.0 ());
  let got = ref None in
  register services ~src:"mallory" ~node:"somebody-else" (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Error (Service.Fault _)) -> ()
  | _ -> Alcotest.fail "expected a fault for third-party advertisement");
  check int_ "nothing registered" 0 (List.length (listed services ~kind:"pdp"))

let test_discover_service () =
  let net, services = fresh () in
  Net.add_node net "registry";
  Net.add_node net "pdp1";
  Net.add_node net "pep";
  ignore (Discovery.create services ~node:"registry" ~lease:10.0 ());
  register services ~src:"pdp1" ~node:"pdp1" ignore;
  Net.run net;
  let got = ref None in
  Service.call services ~src:"pep" ~dst:"registry" Wire.Services.discover
    (fun buf -> Wire.write_discover buf ~kind:"pdp")
    (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok (Ok eps)) -> check (Alcotest.list string_) "endpoints" [ "pdp1" ] eps
  | Some (Ok (Error e)) -> Alcotest.fail e
  | _ -> Alcotest.fail "no reply"

let test_advertise_keeps_entry_alive () =
  let net, services = fresh () in
  Net.add_node net "registry";
  Net.add_node net "pdp1";
  let reg = Discovery.create services ~node:"registry" ~lease:10.0 () in
  Discovery.advertise reg ~services ~node:"pdp1" ~kind:"pdp" ();
  (* Far beyond the lease, the renewals keep the entry live. *)
  Net.run ~until:60.0 net;
  check int_ "still listed" 1 (List.length (listed services ~kind:"pdp"));
  (* Crash the advertiser: its renewals are dropped and the lease lapses. *)
  Net.crash net "pdp1";
  Net.run ~until:85.0 net;
  check int_ "lapsed after crash" 0 (List.length (listed services ~kind:"pdp"));
  (* Recovery resumes the heartbeat loop. *)
  Net.recover net "pdp1";
  Net.run ~until:100.0 net;
  check int_ "re-listed after recovery" 1 (List.length (listed services ~kind:"pdp"))

(* A pull PEP on "pep" over an ordered tier of [pdps]; the tier is what
   discovery rebinds. *)
let pull_tier services ~pdps =
  let tier = Pdp_tier.ordered services ~node:"pep" ~pdps ~call_timeout:0.3 in
  ignore (Pep.create services ~node:"pep" ~domain:"d" ~resource:"r" (Pep.Sharded { tier; cache = None }));
  tier

let test_auto_rebind_end_to_end () =
  (* Two PDP replicas advertise; the PEP starts bound to a bogus endpoint
     and is rebound by discovery; when the first replica crashes, the PEP
     is rebound to the survivor without keeping the dead one. *)
  let net, services = fresh () in
  List.iter (Net.add_node net) [ "registry"; "pdp1"; "pdp2"; "pep"; "client"; "bogus" ];
  let reg = Discovery.create services ~node:"registry" ~lease:4.0 () in
  let policy = doctor_read_policy "r" in
  ignore (Pdp_service.create services ~node:"pdp1" ~name:"pdp1" ~root:policy ());
  ignore (Pdp_service.create services ~node:"pdp2" ~name:"pdp2" ~root:policy ());
  Discovery.advertise reg ~services ~node:"pdp1" ~kind:"pdp" ();
  Discovery.advertise reg ~services ~node:"pdp2" ~kind:"pdp" ();
  let tier = pull_tier services ~pdps:[ "bogus" ] in
  Discovery.auto_rebind reg ~node:"pep" ~tier ~kind:"pdp" ~period:2.0 ();
  let client = Client.create services ~node:"client" ~subject:(doctor_subject "alice") in
  let outcomes = ref [] in
  let request_at t =
    Engine.schedule (Net.engine net) ~delay:t (fun () ->
        Client.request client ~pep:"pep" ~action:"read" ~timeout:5.0 (fun r ->
            outcomes := (t, r) :: !outcomes))
  in
  request_at 5.0;
  (* By t=5 the PEP has been rebound away from "bogus". *)
  Engine.schedule (Net.engine net) ~delay:8.0 (fun () -> Net.crash net "pdp1");
  request_at 20.0;
  (* By t=20 the dead replica's lease has lapsed and rebinding dropped it. *)
  Net.run ~until:30.0 net;
  Engine.schedule (Net.engine net) ~delay:0.1 ignore;
  let granted t =
    match List.assoc_opt t !outcomes with
    | Some (Ok (Wire.Granted _)) -> true
    | _ -> false
  in
  check bool_ "rebound from bogus endpoint" true (granted 5.0);
  check bool_ "served after replica crash" true (granted 20.0);
  check (Alcotest.list string_) "dead replica dropped from the list" [ "pdp2" ] (Pdp_tier.shards tier)

let register_as services ~node ~kind k =
  Service.call services ~src:node ~dst:"registry" Wire.Services.register
    (fun buf -> Wire.write_register buf ~kind ~node)
    k

let discover services ~kind =
  let got = ref None in
  Service.call services ~src:"pep" ~dst:"registry" Wire.Services.discover
    (fun buf -> Wire.write_discover buf ~kind)
    (fun r -> got := Some r);
  got

(* The clock only moves with events: schedule one at [t] so a lookup there
   sees time [t]. *)
let run_to net t =
  Engine.schedule (Net.engine net) ~delay:(t -. Net.now net) ignore;
  Net.run ~until:t net

let test_registry_renewal_keeps_order () =
  (* Renewals arrive in the opposite order; the listing keeps the order of
     first registration, and each renewal restarts its lease. *)
  let net, services = fresh () in
  List.iter (Net.add_node net) [ "registry"; "pdp1"; "pdp2" ];
  ignore (Discovery.create services ~node:"registry" ~lease:10.0 ());
  register services ~src:"pdp1" ~node:"pdp1" ignore;
  register services ~src:"pdp2" ~node:"pdp2" ignore;
  Engine.schedule (Net.engine net) ~delay:8.0 (fun () ->
      register services ~src:"pdp2" ~node:"pdp2" ignore;
      register services ~src:"pdp1" ~node:"pdp1" ignore);
  run_to net 12.0;
  check (Alcotest.list string_) "renewed, first-registration order" [ "pdp1"; "pdp2" ]
    (listed services ~kind:"pdp");
  check int_ "every renewal counted" 4 (registrations services);
  run_to net 19.0;
  check (Alcotest.list string_) "one lease after the renewal, gone" [] (listed services ~kind:"pdp")

let test_registry_default_lease () =
  let net, services = fresh () in
  List.iter (Net.add_node net) [ "registry"; "pdp1" ];
  ignore (Discovery.create services ~node:"registry" ());
  register services ~src:"pdp1" ~node:"pdp1" ignore;
  run_to net 9.5;
  check (Alcotest.list string_) "listed before ten seconds" [ "pdp1" ] (listed services ~kind:"pdp");
  run_to net 10.5;
  check (Alcotest.list string_) "gone after ten seconds" [] (listed services ~kind:"pdp")

let test_registry_node_under_two_kinds () =
  let net, services = fresh () in
  List.iter (Net.add_node net) [ "registry"; "pdp1"; "pap1" ];
  ignore (Discovery.create services ~node:"registry" ~lease:10.0 ());
  register_as services ~node:"pdp1" ~kind:"pdp" ignore;
  register_as services ~node:"pap1" ~kind:"pap" ignore;
  register_as services ~node:"pdp1" ~kind:"pap" ignore;
  Net.run net;
  check (Alcotest.list string_) "pdp kind" [ "pdp1" ] (listed services ~kind:"pdp");
  check (Alcotest.list string_) "pap kind" [ "pap1"; "pdp1" ] (listed services ~kind:"pap")

let test_discover_unlisted_kind () =
  let net, services = fresh () in
  List.iter (Net.add_node net) [ "registry"; "pdp1"; "pep" ];
  ignore (Discovery.create services ~node:"registry" ~lease:10.0 ());
  register services ~src:"pdp1" ~node:"pdp1" ignore;
  Net.run net;
  let got = discover services ~kind:"pap" in
  Net.run net;
  match !got with
  | Some (Ok (Ok eps)) -> check (Alcotest.list string_) "no endpoints" [] eps
  | Some (Ok (Error e)) -> Alcotest.fail e
  | _ -> Alcotest.fail "no reply"

let test_discover_calls_counted () =
  let net, services = fresh () in
  List.iter (Net.add_node net) [ "registry"; "pep" ];
  ignore (Discovery.create services ~node:"registry" ~lease:10.0 ());
  ignore (discover services ~kind:"pdp");
  ignore (discover services ~kind:"pap");
  Net.run net;
  let lookups =
    Dacs_telemetry.Metrics.counter (Service.metrics services) ~labels:[ ("node", "registry") ]
      "discovery_lookups_total"
  in
  check int_ "two discover calls" 2 (Dacs_telemetry.Metrics.counter_value lookups)

let test_auto_rebind_keeps_list_when_registry_down () =
  let net, services = fresh () in
  List.iter (Net.add_node net) [ "registry"; "pdp1"; "pep"; "bogus" ];
  let reg = Discovery.create services ~node:"registry" ~lease:4.0 () in
  Discovery.advertise reg ~services ~node:"pdp1" ~kind:"pdp" ();
  let tier = pull_tier services ~pdps:[ "bogus" ] in
  Discovery.auto_rebind reg ~node:"pep" ~tier ~kind:"pdp" ~period:2.0 ();
  Net.run ~until:5.0 net;
  check (Alcotest.list string_) "rebound" [ "pdp1" ] (Pdp_tier.shards tier);
  Net.crash net "registry";
  Net.run ~until:30.0 net;
  check (Alcotest.list string_) "last known list kept" [ "pdp1" ] (Pdp_tier.shards tier)

let test_auto_rebind_ignores_empty_listing () =
  let net, services = fresh () in
  List.iter (Net.add_node net) [ "registry"; "pdp0"; "pdp1"; "pep" ];
  let reg = Discovery.create services ~node:"registry" ~lease:4.0 () in
  let tier = pull_tier services ~pdps:[ "pdp0" ] in
  Discovery.auto_rebind reg ~node:"pep" ~tier ~kind:"pdp" ~period:2.0 ();
  Net.run ~until:10.0 net;
  check (Alcotest.list string_) "static list kept" [ "pdp0" ] (Pdp_tier.shards tier);
  Discovery.advertise reg ~services ~node:"pdp1" ~kind:"pdp" ();
  Net.run ~until:15.0 net;
  check (Alcotest.list string_) "rebound once something is listed" [ "pdp1" ] (Pdp_tier.shards tier)

(* --- signed decisions ------------------------------------------------------ *)

let signed_setup () =
  let net, services = fresh () in
  let rng = Rng.create 31L in
  let ca = Rsa.generate rng ~bits:512 in
  let ca_cert = Cert.self_signed ca ~subject:"cn=dacs-ca" ~serial:1 ~not_before:0.0 ~not_after:1e9 in
  let pdp_keys = Rsa.generate rng ~bits:512 in
  let pdp_cert =
    Cert.issue ~ca_key:ca.Rsa.private_ ~ca_cert ~subject:"cn=pdp" ~public_key:pdp_keys.Rsa.public
      ~serial:2 ~not_before:0.0 ~not_after:1e9
  in
  let trust = Cert.Trust_store.add Cert.Trust_store.empty ca_cert in
  (net, services, trust, pdp_keys, pdp_cert, ca)

(* A body as its writer appends it, and the signed-answer reader's
   verdict on it. *)
let written write =
  let buf = Buffer.create 512 in
  write buf;
  Buffer.contents buf

let read_answer ~trust body =
  Xml.Cursor.parse body (fun c ->
      match (Wire.Services.authz_query_checked ~trust (Net.create ())).reply c with
      | Ok v -> v
      | Error e -> Xml.Cursor.fail c e)

let test_wire_signed_response_roundtrip () =
  let _net, _services, trust, pdp_keys, pdp_cert, _ = signed_setup () in
  let result = Decision.with_obligations Decision.permit [ Dacs_policy.Obligation.audit ] in
  let body = written (fun buf -> Wire.write_signed_authz_response ~key:pdp_keys.Rsa.private_ ~cert:pdp_cert buf result) in
  (match read_answer ~trust body with
  | Ok (r, _epoch) ->
    check bool_ "permit" true (Decision.is_permit r);
    check int_ "obligations" 1 (List.length r.Decision.obligations)
  | Error e -> Alcotest.fail e);
  (* The signer is cn=pdp: a store trusting only its certificate accepts
     the answer. *)
  check bool_ "signer" true
    (Result.is_ok (read_answer ~trust:(Cert.Trust_store.add Cert.Trust_store.empty pdp_cert) body));
  (* Tampering with the inner decision breaks the signature. *)
  let response r = written (fun buf -> Wire.write_authz_response buf r) in
  let signed = response result in
  let at = String.length "<SignedAuthzResponse>" in
  check string_ "the response is signed as written" signed (String.sub body at (String.length signed));
  let tampered =
    String.sub body 0 at ^ response Decision.deny
    ^ String.sub body (at + String.length signed) (String.length body - at - String.length signed)
  in
  check bool_ "tamper rejected" true (Result.is_error (read_answer ~trust tampered));
  (* Unsigned response rejected outright. *)
  check bool_ "unsigned rejected" true (Result.is_error (read_answer ~trust (response result)))

let test_wire_signed_response_untrusted_signer () =
  let _net, _services, trust, _, _, _ = signed_setup () in
  let rogue = Rsa.generate (Rng.create 77L) ~bits:512 in
  let rogue_cert =
    Cert.self_signed rogue ~subject:"cn=rogue-pdp" ~serial:9 ~not_before:0.0 ~not_after:1e9
  in
  let body =
    written (fun buf -> Wire.write_signed_authz_response ~key:rogue.Rsa.private_ ~cert:rogue_cert buf Decision.permit)
  in
  match read_answer ~trust body with
  | Error e -> check string_ "names the signer" "decision signer cn=rogue-pdp is not trusted" e
  | Ok _ -> Alcotest.fail "rogue signer must be rejected"

(* Both tier shapes decode through the same trust check: a PEP over an
   ordered tier and one over a rendezvous tier reject unsigned answers
   alike, also after the tier is rebound. *)
let test_pep_requires_signed_decisions ~sharded () =
  let net, services, trust, pdp_keys, pdp_cert, _ = signed_setup () in
  List.iter (Net.add_node net) [ "signing-pdp"; "plain-pdp"; "pep"; "client" ];
  let policy = doctor_read_policy "r" in
  ignore
    (Pdp_service.create services ~node:"signing-pdp" ~name:"s" ~root:policy
       ~signer:(pdp_keys.Rsa.private_, pdp_cert) ());
  ignore (Pdp_service.create services ~node:"plain-pdp" ~name:"p" ~root:policy ());
  let tier =
    if sharded then Pdp_tier.create services ~node:"pep" ~shards:[ "signing-pdp" ] ()
    else Pdp_tier.ordered services ~node:"pep" ~pdps:[ "signing-pdp" ] ~call_timeout:0.5
  in
  ignore (Pep.create services ~node:"pep" ~domain:"d" ~resource:"r" (Pep.Sharded { tier; cache = None }));
  Pdp_tier.require_signed_decisions tier trust;
  let client = Client.create services ~node:"client" ~subject:(doctor_subject "alice") in
  let got = ref None in
  Client.request client ~pep:"pep" ~action:"read" (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Granted _)) -> ()
  | _ -> Alcotest.fail "signed decision should be accepted");
  (* Rebind to an unsigning PDP: its answers are no longer acceptable. *)
  Pdp_tier.set_shards tier [ "plain-pdp" ];
  Client.request client ~pep:"pep" ~action:"read" (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok (Wire.Denied reason)) ->
    check bool_ "explains" true (String.length reason > 0)
  | _ -> Alcotest.fail "unsigned decision must be rejected when signatures are required"

(* A trust store is a setting of the tier it is set on: of two PEPs
   asking the same unsigning PDP, only the one whose tier requires
   signatures refuses the answer. *)
let test_trust_store_binds_its_tier () =
  let net, services, trust, _, _, _ = signed_setup () in
  List.iter (Net.add_node net) [ "plain-pdp"; "strict-pep"; "lax-pep"; "client" ];
  ignore (Pdp_service.create services ~node:"plain-pdp" ~name:"p" ~root:(doctor_read_policy "r") ());
  let pull_pep node =
    let tier = Pdp_tier.ordered services ~node ~pdps:[ "plain-pdp" ] ~call_timeout:0.5 in
    ignore (Pep.create services ~node ~domain:"d" ~resource:"r" (Pep.Sharded { tier; cache = None }));
    tier
  in
  Pdp_tier.require_signed_decisions (pull_pep "strict-pep") trust;
  ignore (pull_pep "lax-pep");
  let client = Client.create services ~node:"client" ~subject:(doctor_subject "alice") in
  let ask pep =
    let got = ref None in
    Client.request client ~pep ~action:"read" (fun r -> got := Some r);
    Net.run net;
    !got
  in
  (match ask "strict-pep" with
  | Some (Ok (Wire.Denied _)) -> ()
  | _ -> Alcotest.fail "the tier that requires signatures must refuse an unsigned answer");
  match ask "lax-pep" with
  | Some (Ok (Wire.Granted _)) -> ()
  | _ -> Alcotest.fail "a tier without a trust store must accept the unsigned answer"

(* A third node cannot get a PEP to enforce a genuinely signed Permit
   meant for someone else.  [mallory] asks the PDP about a doctor and
   keeps the signed answer; then, while a nurse's query is in flight,
   [attack] runs with that answer and the doctor's context.  The bus
   numbers calls from 0, so the PEP's query is the third call:
   mallory's own (0), the nurse's access request (1), then the query
   (2).  The nurse must get the PDP's own answer. *)
let nurse_denied_despite ~attack () =
  let net, services, trust, pdp_keys, pdp_cert, _ = signed_setup () in
  List.iter (Net.add_node net) [ "signing-pdp"; "pep"; "nurse"; "mallory" ];
  ignore
    (Pdp_service.create services ~node:"signing-pdp" ~name:"s" ~root:(doctor_read_policy "r")
       ~signer:(pdp_keys.Rsa.private_, pdp_cert) ());
  let tier = Pdp_tier.ordered services ~node:"pep" ~pdps:[ "signing-pdp" ] ~call_timeout:0.5 in
  ignore (Pep.create services ~node:"pep" ~domain:"d" ~resource:"r" (Pep.Sharded { tier; cache = None }));
  Pdp_tier.require_signed_decisions tier trust;
  let doctor =
    Dacs_policy.Context.make ~subject:(doctor_subject "dan")
      ~resource:[ ("resource-id", Value.String "r") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  let signed = ref "" in
  Rpc.call_frame (Service.rpc services) ~src:"mallory" ~dst:"signing-pdp" ~service:"authz-query" ~envelope:soap
    (fun buf -> Wire.write_authz_query buf doctor)
    (function
      | Ok s -> (
        match Soap.read s.Rpc.src s.Rpc.off s.Rpc.len (fun c -> snd (Xml.Cursor.with_bytes c Xml.Cursor.subtree)) with
        | Ok (_, body) -> signed := body
        | Error _ -> ())
      | Error _ -> ());
  Net.run net;
  (match read_answer ~trust !signed with
  | Ok (r, _) -> check bool_ "mallory holds a genuinely signed Permit" true (Decision.is_permit r)
  | Error e -> Alcotest.fail e);
  Net.set_latency net "pep" "signing-pdp" 0.1;
  let nurse =
    Client.create services ~node:"nurse" ~subject:[ ("subject-id", Value.String "nina"); ("role", Value.String "nurse") ]
  in
  let got = ref None in
  let start = Net.now net in
  Client.request nurse ~pep:"pep" ~action:"read" (fun r -> got := Some r);
  Engine.schedule_at (Net.engine net) ~at:(start +. 0.05) (fun () -> attack net ~signed:!signed ~doctor);
  Net.run net;
  match !got with
  | Some (Ok (Wire.Denied reason)) -> check string_ "the PDP's own answer" "denied by policy" reason
  | Some (Ok (Wire.Granted _)) -> Alcotest.fail "a Permit obtained by a third node was enforced"
  | _ -> Alcotest.fail "the nurse's request failed"

(* The replay: mallory sends the signed Permit to the PEP as the reply
   to the nurse's query. *)
let test_replayed_permit_from_third_node =
  nurse_denied_despite ~attack:(fun net ~signed ~doctor:_ ->
      let replay = Buffer.create 512 in
      Dacs_ws.Soap.write replay (fun buf -> Buffer.add_string buf signed);
      Net.send net ~src:"mallory" ~dst:"pep" ~category:"authz-query"
        (Dacs_net.Rpc.encode_reply 2 (Buffer.contents replay)))

(* The relay: mallory sends the PDP the doctor's query under the id of
   the nurse's query.  The PDP's reply, a genuine Permit from the node
   the PEP called, goes to mallory, not to the PEP, so it completes
   nothing there. *)
let test_relayed_request_id =
  nurse_denied_despite ~attack:(fun net ~signed:_ ~doctor ->
      let query = Buffer.create 512 in
      Dacs_ws.Soap.write query (fun buf -> Wire.write_authz_query buf doctor);
      Net.send net ~src:"mallory" ~dst:"signing-pdp" ~category:"authz-query"
        (Dacs_net.Rpc.encode_request 2 "authz-query" (Buffer.contents query)))

let test_signed_decisions_without_requirement () =
  (* A PEP without the requirement still accepts plain responses —
     and also still accepts signed ones?  No: a signed response is a
     different element; the plain parser rejects it, so deployments must
     be consistent.  This documents that behaviour. *)
  let net, services, _trust, pdp_keys, pdp_cert, _ = signed_setup () in
  List.iter (Net.add_node net) [ "signing-pdp"; "pep"; "client" ];
  ignore
    (Pdp_service.create services ~node:"signing-pdp" ~name:"s" ~root:(doctor_read_policy "r")
       ~signer:(pdp_keys.Rsa.private_, pdp_cert) ());
  ignore
    (Pep.create services ~node:"pep" ~domain:"d" ~resource:"r"
       (Pep.Sharded
          { tier = Pdp_tier.ordered services ~node:"pep" ~pdps:[ "signing-pdp" ] ~call_timeout:0.5; cache = None }));
  let client = Client.create services ~node:"client" ~subject:(doctor_subject "alice") in
  let got = ref None in
  Client.request client ~pep:"pep" ~action:"read" (fun r -> got := Some r);
  Net.run net;
  match !got with
  | Some (Ok (Wire.Denied _)) -> ()
  | _ -> Alcotest.fail "mismatched signing configuration should fail closed"


(* --- networked trust negotiation --------------------------------------------- *)

let negotiation_setup ~server_credentials ~requirement =
  let net, services = fresh () in
  List.iter (Net.add_node net) [ "traust"; "stranger"; "pep" ];
  let keys = Rsa.generate (Rng.create 41L) ~bits:512 in
  let server =
    Negotiation_service.create services ~node:"traust" ~issuer:"traust" ~keypair:keys
      ~credentials:server_credentials
      ~requirement_for:(fun ~resource:_ ~action:_ -> requirement)
      ()
  in
  (net, services, server)

let test_negotiation_service_immediate_grant () =
  let net, services, server =
    negotiation_setup ~server_credentials:[] ~requirement:[ [ "member-card" ] ]
  in
  let got = ref None in
  Negotiation_service.negotiate server ~services ~client_node:"stranger"
    ~credentials:[ Negotiation.unprotected "member-card" ]
    ~subject:[ ("subject-id", Value.String "zoe") ]
    ~resource:"r" ~action:"read" (fun o -> got := Some o);
  Net.run net;
  match !got with
  | Some { Negotiation_service.granted = Some a; rounds; messages } ->
    check int_ "one round" 1 rounds;
    check int_ "two messages" 2 messages;
    check bool_ "assertion verifies" true
      (Dacs_saml.Assertion.verify (Negotiation_service.public_key server) a);
    check bool_ "permits the pair" true (Dacs_saml.Assertion.permits a ~resource:"r" ~action:"read");
    check string_ "subject carried" "zoe" a.Dacs_saml.Assertion.subject;
    check int_ "session cleaned up" 0 (Negotiation_service.sessions server)
  | _ -> Alcotest.fail "expected a grant"

let test_negotiation_service_iterative () =
  (* Client releases clearance only after the server's accreditation,
     which the server releases only after the membership card. *)
  let client_creds =
    [
      Negotiation.unprotected "membership";
      Negotiation.protected_by "clearance" [ "accreditation" ];
    ]
  in
  let server_creds = [ Negotiation.protected_by "accreditation" [ "membership" ] ] in
  let net, services, server =
    negotiation_setup ~server_credentials:server_creds ~requirement:[ [ "clearance" ] ]
  in
  let got = ref None in
  Negotiation_service.negotiate server ~services ~client_node:"stranger"
    ~credentials:client_creds
    ~subject:[ ("subject-id", Value.String "zoe") ]
    ~resource:"r" ~action:"read" (fun o -> got := Some o);
  Net.run net;
  match !got with
  | Some { Negotiation_service.granted = Some _; rounds; messages } ->
    check int_ "two rounds" 2 rounds;
    check int_ "four messages" 4 messages
  | _ -> Alcotest.fail "expected an iterative grant"

let test_negotiation_service_failure () =
  (* The client cannot produce the required credential: negotiation
     terminates without a grant and without looping. *)
  let net, services, server =
    negotiation_setup ~server_credentials:[] ~requirement:[ [ "golden-ticket" ] ]
  in
  let got = ref None in
  Negotiation_service.negotiate server ~services ~client_node:"stranger"
    ~credentials:[ Negotiation.unprotected "irrelevant" ]
    ~subject:[] ~resource:"r" ~action:"read" (fun o -> got := Some o);
  Net.run net;
  match !got with
  | Some { Negotiation_service.granted = None; rounds; _ } ->
    check bool_ "terminates fast" true (rounds <= 2)
  | _ -> Alcotest.fail "expected failure"

let test_negotiation_undecodable_grant () =
  (* A server that says "granted" but hands back a capability whose
     SignatureValue is not base64: the client gets no capability, and the
     simulation carries on to the next negotiation. *)
  let net, services, server =
    negotiation_setup ~server_credentials:[] ~requirement:[ [ "member-card" ] ]
  in
  let negotiate () =
    let got = ref None in
    Negotiation_service.negotiate server ~services ~client_node:"stranger"
      ~credentials:[ Negotiation.unprotected "member-card" ]
      ~subject:[ ("subject-id", Value.String "zoe") ]
      ~resource:"r" ~action:"read" (fun o -> got := Some o);
    Net.run net;
    !got
  in
  Rpc.serve_frame (Service.rpc services) ~node:"traust" ~service:"negotiate" ~envelope:soap
    (fun ~caller:_ _ reply ->
      reply (fun buf ->
          Buffer.add_string buf
            "<NegotiateResponse Status=\"granted\"><Assertion ID=\"a\" Issuer=\"traust\" Subject=\"zoe\" \
             IssueInstant=\"0\" NotBefore=\"0\" NotOnOrAfter=\"100\"><SignatureValue>!!!!</SignatureValue>\
             </Assertion></NegotiateResponse>"));
  (match negotiate () with
  | Some { Negotiation_service.granted = None; rounds = 1; _ } -> ()
  | _ -> Alcotest.fail "an undecodable capability is no grant");
  match negotiate () with
  | Some { Negotiation_service.granted = None; _ } -> ()
  | _ -> Alcotest.fail "the second negotiation must run to an answer too"

let test_negotiation_capability_works_at_pep () =
  (* The negotiated capability is honoured by a push-mode PEP that trusts
     the negotiation server as an issuer — trust established from zero. *)
  let client_creds = [ Negotiation.unprotected "project-badge" ] in
  let net, services, server =
    negotiation_setup ~server_credentials:[] ~requirement:[ [ "project-badge" ] ]
  in
  ignore
    (Pep.create services ~node:"pep" ~domain:"d" ~resource:"dataset" ~content:"payload"
       (Pep.Push
          {
            trusted_issuer =
              (fun i -> if i = "traust" then Some (Negotiation_service.public_key server) else None);
            check_revocation = None;
            local_pdp = None;
          }));
  let outcome = ref None in
  Negotiation_service.negotiate server ~services ~client_node:"stranger"
    ~credentials:client_creds
    ~subject:[ ("subject-id", Value.String "zoe") ]
    ~resource:"dataset" ~action:"read" (fun o ->
      match o.Negotiation_service.granted with
      | None -> Alcotest.fail "negotiation should grant"
      | Some assertion ->
        (* Present the assertion at the PEP exactly as a capability. *)
        Service.call services ~src:"stranger" ~dst:"pep"
          ~headers:[ Dacs_saml.Assertion.to_xml assertion ]
          Wire.Services.access
          (fun buf -> Wire.write_access_request buf ~subject:[ ("subject-id", Value.String "zoe") ] ~action:"read")
          (fun r -> outcome := Some r));
  Net.run net;
  match !outcome with
  | Some (Ok (Ok (Wire.Granted { content; _ }))) -> check string_ "content" "payload" content
  | Some (Ok _) -> Alcotest.fail "expected grant at the PEP"
  | _ -> Alcotest.fail "no PEP reply"


(* --- capability wire formats (CAS vs VOMS, §2.2) ------------------------------- *)

let cas_setup () =
  let net, services = fresh () in
  List.iter (Net.add_node net) [ "cas"; "pep"; "client" ];
  let keys = Rsa.generate (Rng.create 51L) ~bits:512 in
  let cas =
    Capability_service.create services ~node:"cas" ~issuer:"cas" ~keypair:keys
      ~root:(doctor_read_policy "r") ()
  in
  ignore
    (Pep.create services ~node:"pep" ~domain:"d" ~resource:"r" ~content:"data"
       (Pep.Push
          {
            trusted_issuer =
              (fun i -> if i = "cas" then Some (Capability_service.public_key cas) else None);
            check_revocation = None;
            local_pdp = None;
          }));
  let client = Client.create services ~node:"client" ~subject:(doctor_subject "alice") in
  (net, services, cas, client)

(* A capability asked for over the capability-request service, as a
   client asks for one. *)
let request_capability services =
  let got = ref None in
  Service.call services ~src:"client" ~dst:"cas" Wire.Services.capability_request
    (fun buf -> Wire.write_capability_request buf ~subject:(doctor_subject "alice") ~pairs:[ ("r", "read") ])
    (fun r -> got := Some r);
  Net.run (Service.net services);
  match !got with Some (Ok (Ok (a, _))) -> a | _ -> Alcotest.fail "no capability issued"

let test_attribute_cert_roundtrip () =
  let _net, services, cas, _client = cas_setup () in
  let a = request_capability services in
  match Dacs_saml.Attribute_cert.of_xml (Xml.of_string (Dacs_saml.Attribute_cert.to_string a)) with
  | Error e -> Alcotest.fail e
  | Ok a' ->
    check string_ "id preserved" a.Dacs_saml.Assertion.id a'.Dacs_saml.Assertion.id;
    check string_ "holder" "alice" a'.Dacs_saml.Assertion.subject;
    (* The signature survives re-encoding: both forms carry the issuer's
       signature over the same logical payload. *)
    check bool_ "signature still verifies" true
      (Dacs_saml.Assertion.verify (Capability_service.public_key cas) a');
    check bool_ "decision preserved" true
      (Dacs_saml.Assertion.permits a' ~resource:"r" ~action:"read");
    check bool_ "attributes preserved" true
      (List.mem_assoc "role" (Dacs_saml.Assertion.attributes a'))

let test_attribute_cert_end_to_end () =
  (* A VOMS-style issuer: the X.509 encoding of the CAS's capability is
     honoured by the same push PEP that accepts SAML assertions. *)
  let net, services, _cas, client = cas_setup () in
  let a = request_capability services in
  Net.add_node net "voms";
  Rpc.serve_frame (Service.rpc services) ~node:"voms" ~service:"capability-request"
    ~envelope:(fun buf write -> Soap.write buf write)
    (fun ~caller:_ _ reply ->
      reply (fun buf -> Buffer.add_string buf (Dacs_saml.Attribute_cert.to_string a)));
  let got = ref None in
  Client.request_with_capability client ~capability_service:"voms" ~pep:"pep" ~resource:"r"
    ~action:"read" (fun r -> got := Some r);
  Net.run net;
  (match !got with
  | Some (Ok (Wire.Granted { content; _ })) -> check string_ "content" "data" content
  | _ -> Alcotest.fail "expected grant with X.509 capability");
  (* Reuse works for the cached X.509 wire form too. *)
  Client.request_with_capability client ~capability_service:"voms" ~pep:"pep" ~resource:"r"
    ~action:"read" (fun r -> got := Some r);
  Net.run net;
  check int_ "capability reused" 1 (Client.capability_requests_made client);
  match !got with
  | Some (Ok (Wire.Granted _)) -> ()
  | _ -> Alcotest.fail "expected reuse grant"

let test_capability_format_sizes_differ () =
  let _net, services, _cas, _client = cas_setup () in
  let a = request_capability services in
  let saml = Dacs_saml.Assertion.to_string a in
  let x509 = Dacs_saml.Attribute_cert.to_string a in
  check bool_ "formats differ" true (saml <> x509);
  check bool_ "both non-trivial" true (String.length saml > 100 && String.length x509 > 100)

(* --- content-based access (§3.1) ------------------------------------------------- *)

let test_content_filter_obligation () =
  let net, services = fresh () in
  List.iter (Net.add_node net) [ "pdp"; "pep-clean"; "pep-tainted"; "client" ];
  let policy =
    Policy.Inline_policy
      (Policy.make ~id:"p" ~rule_combining:Combine.First_applicable
         ~obligations:
           [
             (* Content-based access control (§3.1): the PEP inspects the
                resource before provisioning it and refuses it when it
                holds the forbidden marker. *)
             {
               Dacs_policy.Obligation.id = "urn:dacs:obligation:content-filter";
               fulfill_on = Permit;
               parameters = [ ("forbidden", Value.String "CLASSIFIED") ];
             };
           ]
         [ Rule.permit "allow" ])
  in
  ignore (Pdp_service.create services ~node:"pdp" ~name:"pdp" ~root:policy ());
  let pull node =
    Pep.Sharded { tier = Pdp_tier.ordered services ~node ~pdps:[ "pdp" ] ~call_timeout:0.5; cache = None }
  in
  ignore (Pep.create services ~node:"pep-clean" ~domain:"d" ~resource:"r" ~content:"routine report" (pull "pep-clean"));
  ignore
    (Pep.create services ~node:"pep-tainted" ~domain:"d" ~resource:"r"
       ~content:"routine report with CLASSIFIED appendix" (pull "pep-tainted"));
  let client = Client.create services ~node:"client" ~subject:(doctor_subject "alice") in
  let clean = ref None and tainted = ref None in
  Client.request client ~pep:"pep-clean" ~action:"read" (fun r -> clean := Some r);
  Client.request client ~pep:"pep-tainted" ~action:"read" (fun r -> tainted := Some r);
  Net.run net;
  (match !clean with
  | Some (Ok (Wire.Granted _)) -> ()
  | _ -> Alcotest.fail "clean content should pass the filter");
  match !tainted with
  | Some (Ok (Wire.Denied reason)) -> check bool_ "explains" true (String.length reason > 0)
  | _ -> Alcotest.fail "tainted content must be withheld"


(* --- policy lifecycle (§3.2 management) ------------------------------------------ *)

let lifecycle_setup () =
  let net, services = fresh () in
  Net.add_node net "pap";
  let pap =
    Pap.create services ~node:"pap" ~name:"pap"
      ~root:(doctor_read_policy "existing") ()
  in
  let rng = Rng.create 61L in
  let approver_a = Rsa.generate rng ~bits:512 in
  let approver_b = Rsa.generate rng ~bits:512 in
  let lc =
    Lifecycle.create ~pap
      ~approvers:[ ("alice", approver_a.Rsa.public); ("bob", approver_b.Rsa.public) ]
      ~required_approvals:2
      ~now:(fun () -> Net.now net)
      ()
  in
  (net, pap, lc, approver_a, approver_b)

let sign_draft lc draft (kp : Rsa.keypair) =
  match Lifecycle.signing_payload lc ~draft with
  | Some payload -> Rsa.sign kp.Rsa.private_ payload
  | None -> Alcotest.fail "missing draft payload"

let good_draft = doctor_read_policy "new-resource"

let test_lifecycle_happy_path () =
  let _net, pap, lc, a, b = lifecycle_setup () in
  let draft = Lifecycle.submit lc ~author:"carol" good_draft in
  check bool_ "starts as draft" true (Lifecycle.state_of lc ~draft = Some Lifecycle.Draft);
  (* Review with passing expectations. *)
  let ctx =
    Dacs_policy.Context.make ~subject:(doctor_subject "u")
      ~resource:[ ("resource-id", Value.String "new-resource") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  (match Lifecycle.review lc ~draft ~expectations:[ (ctx, Decision.Permit) ] () with
  | Ok report ->
    check int_ "no problems" 0 (List.length report.Lifecycle.problems);
    check int_ "no test failures" 0 (List.length report.Lifecycle.test_failures)
  | Error e -> Alcotest.fail e);
  check bool_ "reviewed" true (Lifecycle.state_of lc ~draft = Some Lifecycle.Reviewed);
  (* Cannot issue before approvals. *)
  check bool_ "issue blocked" true (Result.is_error (Lifecycle.issue lc ~draft));
  (* Two approvals required. *)
  check bool_ "first approval" true (Lifecycle.approve lc ~draft ~approver:"alice" ~signature:(sign_draft lc draft a) = Ok 1);
  check bool_ "still not approved" true (Lifecycle.state_of lc ~draft = Some Lifecycle.Reviewed);
  check bool_ "second approval" true (Lifecycle.approve lc ~draft ~approver:"bob" ~signature:(sign_draft lc draft b) = Ok 2);
  check bool_ "approved" true (Lifecycle.state_of lc ~draft = Some Lifecycle.Approved);
  (* Issue publishes to the PAP. *)
  let before = Pap.version pap in
  (match Lifecycle.issue lc ~draft with
  | Ok v -> check int_ "version bumped" (before + 1) v
  | Error e -> Alcotest.fail e);
  check bool_ "issued" true (Lifecycle.state_of lc ~draft = Some Lifecycle.Issued);
  check bool_ "history recorded" true (List.length (Lifecycle.history lc ~draft) >= 5)

let test_lifecycle_review_rejects () =
  let _net, _pap, lc, _, _ = lifecycle_setup () in
  (* Invalid draft: duplicate rule ids. *)
  let bad =
    Policy.Inline_policy (Policy.make ~id:"bad" [ Rule.permit "r"; Rule.deny "r" ])
  in
  let draft = Lifecycle.submit lc ~author:"carol" bad in
  (match Lifecycle.review lc ~draft () with
  | Ok report -> check bool_ "problems reported" true (report.Lifecycle.problems <> [])
  | Error e -> Alcotest.fail e);
  (match Lifecycle.state_of lc ~draft with
  | Some (Lifecycle.Rejected _) -> ()
  | _ -> Alcotest.fail "expected rejection");
  (* Rejected drafts cannot be approved or issued. *)
  check bool_ "approve blocked" true
    (Result.is_error (Lifecycle.approve lc ~draft ~approver:"alice" ~signature:"x"));
  check bool_ "issue blocked" true (Result.is_error (Lifecycle.issue lc ~draft))

let test_lifecycle_expectation_failure_rejects () =
  let _net, _pap, lc, _, _ = lifecycle_setup () in
  let draft = Lifecycle.submit lc ~author:"carol" good_draft in
  (* Expect a Deny that the draft does not deliver. *)
  let ctx =
    Dacs_policy.Context.make ~subject:(doctor_subject "u")
      ~resource:[ ("resource-id", Value.String "new-resource") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  (match Lifecycle.review lc ~draft ~expectations:[ (ctx, Decision.Deny) ] () with
  | Ok report -> check int_ "one failure" 1 (List.length report.Lifecycle.test_failures)
  | Error e -> Alcotest.fail e);
  match Lifecycle.state_of lc ~draft with
  | Some (Lifecycle.Rejected _) -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_lifecycle_approval_security () =
  let _net, _pap, lc, a, _ = lifecycle_setup () in
  let draft = Lifecycle.submit lc ~author:"carol" good_draft in
  ignore (Lifecycle.review lc ~draft ());
  (* Unknown approver. *)
  check bool_ "unknown approver" true
    (Result.is_error (Lifecycle.approve lc ~draft ~approver:"mallory" ~signature:"x"));
  (* Wrong key: bob's slot signed with alice's key is rejected. *)
  check bool_ "wrong key rejected" true
    (Result.is_error
       (Lifecycle.approve lc ~draft ~approver:"bob" ~signature:(sign_draft lc draft a)));
  (* Valid approval, then double approval rejected. *)
  check bool_ "valid" true
    (Lifecycle.approve lc ~draft ~approver:"alice" ~signature:(sign_draft lc draft a) = Ok 1);
  check bool_ "double approval rejected" true
    (Result.is_error
       (Lifecycle.approve lc ~draft ~approver:"alice" ~signature:(sign_draft lc draft a)))

let test_lifecycle_conflict_reporting () =
  let _net, _pap, lc, _, _ = lifecycle_setup () in
  (* A draft that denies what the current policy permits. *)
  let conflicting =
    Policy.Inline_policy
      (Policy.make ~id:"lockdown" ~issuer:"other"
         [
           Rule.deny
             ~target:
               Target.(
                 any |> subject_is "role" "doctor" |> resource_is "resource-id" "existing"
                 |> action_is "action-id" "read")
             "deny-doctors";
         ])
  in
  let draft = Lifecycle.submit lc ~author:"carol" conflicting in
  match Lifecycle.review lc ~draft () with
  | Ok report ->
    check bool_ "conflict with current policy reported" true
      (report.Lifecycle.conflicts_with_current <> []);
    (* Conflicts are advisory: the draft still passes review. *)
    check bool_ "still reviewed" true (Lifecycle.state_of lc ~draft = Some Lifecycle.Reviewed)
  | Error e -> Alcotest.fail e


(* --- anti-entropy for syndication --------------------------------------------- *)

(* A parent PAP and a child that admits updates from it alone. *)
let pap_pair () =
  let net, services = fresh () in
  List.iter (Net.add_node net) [ "parent"; "child" ];
  let parent = Pap.create services ~node:"parent" ~name:"parent" () in
  let child =
    Pap.create services ~node:"child" ~name:"child"
      ~admin_policy:
        (Policy.Inline_policy
           (Policy.make ~id:"adm" ~rule_combining:Combine.First_applicable
              [
                Rule.permit
                  ~condition:
                    (Dacs_policy.Expr.one_of (Dacs_policy.Expr.subject_attr "subject-id")
                       [ "parent" ])
                  "parent-may";
                Rule.deny "others";
              ]))
      ()
  in
  Pap.subscribe_local parent ~child:"child";
  (net, services, parent, child)

let test_pap_anti_entropy_heals_lost_push () =
  let net, _, parent, child = pap_pair () in
  Pap.enable_anti_entropy child ~parent:"parent" ~period:5.0;
  let announced = ref [] in
  Pap.on_update child (fun region -> announced := region :: !announced);
  (* Partition so the push is lost, publish, then heal. *)
  Net.partition net [ "parent" ] [ "child" ];
  Pap.publish parent (doctor_read_policy "r");
  Net.run ~until:2.0 net;
  check bool_ "push lost" true (Pap.current child = None);
  Net.unpartition net [ "parent" ] [ "child" ];
  (* Within one anti-entropy period the child converges. *)
  Net.run ~until:12.0 net;
  check bool_ "healed by anti-entropy" true (Pap.current child <> None);
  check bool_ "the pull announces its region" true
    (match !announced with [ r ] -> Dacs_policy.Delta.is_unbounded r | _ -> false);
  (* And later updates still flow normally (by push). *)
  Pap.publish parent
    (Policy.Inline_policy (Policy.make ~id:"p2" [ Rule.deny "d" ]));
  Net.run ~until:13.0 net;
  check bool_ "subsequent push applied" true
    (match Pap.current child with
    | Some c -> Policy.child_id c = "p2"
    | None -> false)

let test_pap_push_is_not_polled_again () =
  (* The push delivers version 1 at t = 1 s; the polls at 5 s and 10 s
     must report it as known instead of fetching and accepting it again
     (a second accept would recompile, record a region and push the same
     policy on to the child's own subscribers). *)
  let net, _, parent, child = pap_pair () in
  Pap.enable_anti_entropy child ~parent:"parent" ~period:5.0;
  Engine.schedule_at (Net.engine net) ~at:1.0 (fun () ->
      Pap.publish parent (doctor_read_policy "r"));
  Net.run ~until:12.0 net;
  check bool_ "the push arrived" true (Pap.current child <> None);
  check int_ "accepted once" 1 (Pap.updates_accepted child);
  check int_ "child version" 1 (Pap.version child)

let test_pap_has_no_subscribe_service () =
  (* Syndication is wired by the PAP's owner ([subscribe_local]); no node
     can add itself to the push list over the network. *)
  let net, services, parent, _ = pap_pair () in
  Net.add_node net "mallory";
  let pushes = ref 0 in
  Service.serve_cast services ~node:"mallory" Wire.Services.policy_update
    (fun ~caller:_ _ -> incr pushes);
  let answer = ref None in
  Rpc.call_frame (Service.rpc services) ~src:"mallory" ~dst:"parent" ~service:"subscribe" ~envelope:soap
    (fun buf -> Xml.print buf (Xml.element "Subscribe"))
    (fun r -> answer := Some (Result.map Rpc.slice_to_string r));
  Net.run net;
  check bool_ "no subscribe service" true (!answer = Some (Error (Rpc.No_such_service "subscribe")));
  Pap.publish parent (doctor_read_policy "r");
  Net.run net;
  check int_ "mallory receives no push" 0 !pushes;
  check bool_ "only the wired child is subscribed" true (Pap.subscribers parent = [ "child" ])

(* --- consolidated report --------------------------------------------------------- *)

let test_report () =
  let net, services = fresh () in
  let d_a = Domain.create services ~name:"org-a" () in
  let d_b = Domain.create services ~name:"org-b" () in
  let vo = Vo.form services ~name:"vo" [ d_a; d_b ] in
  Vo.publish_policy vo (doctor_read_policy "shared");
  Net.run net;
  let pep = Domain.expose_resource d_a ~resource:"shared" () in
  let alice = Vo.client_for vo ~domain:d_b ~user:"alice" (doctor_subject "alice") in
  Client.request alice ~pep:(Pep.node pep) ~action:"read" (fun _ -> ());
  Net.run net;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let report = Report.vo vo in
  check bool_ "names the VO" true (contains report "virtual organisation vo");
  check bool_ "covers both domains" true (contains report "domain org-a" && contains report "domain org-b");
  check bool_ "shows the PEP" true (contains report (Pep.node pep));
  check bool_ "audit consolidated" true (contains report "consolidated audit (1 entries)");
  check bool_ "permits counted" true (contains report "1 permits")

let () =
  Alcotest.run "dacs_extensions"
    [
      ( "discovery",
        [
          Alcotest.test_case "register and lookup" `Quick test_registry_register_and_lookup;
          Alcotest.test_case "lease expiry" `Quick test_registry_lease_expiry;
          Alcotest.test_case "self-advertisement only" `Quick test_registry_rejects_proxy_advertisement;
          Alcotest.test_case "discover service" `Quick test_discover_service;
          Alcotest.test_case "advertise heartbeat" `Quick test_advertise_keeps_entry_alive;
          Alcotest.test_case "auto rebind end-to-end" `Quick test_auto_rebind_end_to_end;
          Alcotest.test_case "renewal keeps the registration order" `Quick test_registry_renewal_keeps_order;
          Alcotest.test_case "default lease" `Quick test_registry_default_lease;
          Alcotest.test_case "one node under two kinds" `Quick test_registry_node_under_two_kinds;
          Alcotest.test_case "discover an unlisted kind" `Quick test_discover_unlisted_kind;
          Alcotest.test_case "discover calls counted" `Quick test_discover_calls_counted;
          Alcotest.test_case "auto rebind keeps the list while the registry is down" `Quick
            test_auto_rebind_keeps_list_when_registry_down;
          Alcotest.test_case "auto rebind ignores an empty listing" `Quick test_auto_rebind_ignores_empty_listing;
        ] );
      ( "negotiation-service",
        [
          Alcotest.test_case "immediate grant" `Quick test_negotiation_service_immediate_grant;
          Alcotest.test_case "iterative" `Quick test_negotiation_service_iterative;
          Alcotest.test_case "failure terminates" `Quick test_negotiation_service_failure;
          Alcotest.test_case "undecodable capability is no grant" `Quick
            test_negotiation_undecodable_grant;
          Alcotest.test_case "capability honoured at PEP" `Quick test_negotiation_capability_works_at_pep;
        ] );
      ( "capability-formats",
        [
          Alcotest.test_case "attribute cert roundtrip" `Quick test_attribute_cert_roundtrip;
          Alcotest.test_case "X.509 capability end-to-end" `Quick test_attribute_cert_end_to_end;
          Alcotest.test_case "encodings differ" `Quick test_capability_format_sizes_differ;
        ] );
      ( "content-filter",
        [ Alcotest.test_case "obligation enforced" `Quick test_content_filter_obligation ] );
      ( "lifecycle",
        [
          Alcotest.test_case "happy path" `Quick test_lifecycle_happy_path;
          Alcotest.test_case "review rejects invalid drafts" `Quick test_lifecycle_review_rejects;
          Alcotest.test_case "failed expectations reject" `Quick test_lifecycle_expectation_failure_rejects;
          Alcotest.test_case "approval security" `Quick test_lifecycle_approval_security;
          Alcotest.test_case "conflicts reported" `Quick test_lifecycle_conflict_reporting;
        ] );
      ( "anti-entropy",
        [
          Alcotest.test_case "heals a lost push" `Quick test_pap_anti_entropy_heals_lost_push;
          Alcotest.test_case "a pushed policy is not polled and accepted again" `Quick
            test_pap_push_is_not_polled_again;
          Alcotest.test_case "no subscribe service" `Quick test_pap_has_no_subscribe_service;
        ] );
      ( "report",
        [ Alcotest.test_case "consolidated view" `Quick test_report ] );
      ( "signed-decisions",
        [
          Alcotest.test_case "roundtrip and tamper" `Quick test_wire_signed_response_roundtrip;
          Alcotest.test_case "untrusted signer" `Quick test_wire_signed_response_untrusted_signer;
          Alcotest.test_case "PEP requires signatures" `Quick
            (test_pep_requires_signed_decisions ~sharded:false);
          Alcotest.test_case "sharded PEP requires signatures" `Quick
            (test_pep_requires_signed_decisions ~sharded:true);
          Alcotest.test_case "a trust store binds only the tier it is set on" `Quick
            test_trust_store_binds_its_tier;
          Alcotest.test_case "mismatched configuration fails closed" `Quick
            test_signed_decisions_without_requirement;
          Alcotest.test_case "a Permit replayed by a third node is not enforced" `Quick
            test_replayed_permit_from_third_node;
          Alcotest.test_case "a Permit relayed under another node's call id is not enforced" `Quick
            test_relayed_request_id;
        ] );
    ]
