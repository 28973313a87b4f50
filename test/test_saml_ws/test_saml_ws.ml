(* Tests for dacs_saml (assertions) and dacs_ws (SOAP, WS-Security,
   services over the simulated network). *)

module Xml = Dacs_xml.Xml
module Value = Dacs_policy.Value
module Decision = Dacs_policy.Decision
open Dacs_crypto
open Dacs_saml
open Dacs_ws

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let idp_kp = lazy (Rsa.generate (Rng.create 100L) ~bits:512)
let other_kp = lazy (Rsa.generate (Rng.create 101L) ~bits:512)

let sample_assertion () =
  Assertion.make ~id:"a1" ~issuer:"idp.domain-a" ~subject:"alice" ~issued_at:100.0 ~validity:50.0
    [
      Assertion.Attribute_statement [ ("role", Value.String "doctor"); ("clearance", Value.Int 3) ];
      Assertion.Authz_decision_statement
        { resource = "charts"; action = "read"; decision = Decision.Permit };
    ]

(* --- assertions ----------------------------------------------------------- *)

let test_assertion_sign_verify () =
  let a = Assertion.sign (Lazy.force idp_kp).Rsa.private_ (sample_assertion ()) in
  check bool_ "verifies" true (Assertion.verify (Lazy.force idp_kp).Rsa.public a);
  check bool_ "wrong key" false (Assertion.verify (Lazy.force other_kp).Rsa.public a);
  check bool_ "unsigned fails" false (Assertion.verify (Lazy.force idp_kp).Rsa.public (sample_assertion ()));
  (* Tampering with content invalidates the signature. *)
  let tampered = { a with Assertion.subject = "mallory" } in
  check bool_ "tamper detected" false (Assertion.verify (Lazy.force idp_kp).Rsa.public tampered)

let test_assertion_validity_window () =
  let a = sample_assertion () in
  check bool_ "inside" true (Assertion.valid_at a 120.0);
  check bool_ "start inclusive" true (Assertion.valid_at a 100.0);
  check bool_ "end exclusive" false (Assertion.valid_at a 150.0);
  check bool_ "before" false (Assertion.valid_at a 99.0)

let test_assertion_validate () =
  let a = Assertion.sign (Lazy.force idp_kp).Rsa.private_ (sample_assertion ()) in
  let trusted_key = function
    | "idp.domain-a" -> Some (Lazy.force idp_kp).Rsa.public
    | _ -> None
  in
  check bool_ "accepted" true (Assertion.validate ~trusted_key ~now:120.0 a = Ok ());
  check bool_ "expired" true (Assertion.validate ~trusted_key ~now:200.0 a = Error Assertion.Expired);
  check bool_ "not yet valid" true
    (Assertion.validate ~trusted_key ~now:50.0 a = Error Assertion.Not_yet_valid);
  check bool_ "unknown issuer" true
    (Assertion.validate ~trusted_key:(fun _ -> None) ~now:120.0 a
    = Error (Assertion.Unknown_issuer "idp.domain-a"));
  check bool_ "unsigned" true
    (Assertion.validate ~trusted_key ~now:120.0 (sample_assertion ()) = Error Assertion.Not_signed);
  let forged =
    Assertion.sign (Lazy.force other_kp).Rsa.private_ (sample_assertion ())
  in
  check bool_ "bad signature" true
    (Assertion.validate ~trusted_key ~now:120.0 forged = Error Assertion.Bad_signature)

let test_assertion_content () =
  let a = sample_assertion () in
  check int_ "attributes" 2 (List.length (Assertion.attributes a));
  check int_ "decisions" 1 (List.length (Assertion.decisions a));
  check bool_ "permits" true (Assertion.permits a ~resource:"charts" ~action:"read");
  check bool_ "no permit for write" false (Assertion.permits a ~resource:"charts" ~action:"write")

let test_assertion_xml_roundtrip () =
  let a = Assertion.sign (Lazy.force idp_kp).Rsa.private_ (sample_assertion ()) in
  match Assertion.of_string (Assertion.to_string a) with
  | Error e -> Alcotest.fail e
  | Ok a' ->
    check string_ "id" a.Assertion.id a'.Assertion.id;
    check string_ "issuer" a.Assertion.issuer a'.Assertion.issuer;
    check int_ "statements" 2 (List.length a'.Assertion.statements);
    (* Signature survives the round-trip and still verifies. *)
    check bool_ "still verifies" true (Assertion.verify (Lazy.force idp_kp).Rsa.public a');
    check bool_ "permits preserved" true (Assertion.permits a' ~resource:"charts" ~action:"read")

let test_assertion_xml_errors () =
  check bool_ "not xml" true (Result.is_error (Assertion.of_string "junk"));
  check bool_ "wrong element" true (Result.is_error (Assertion.of_string "<Wat/>"));
  check bool_ "missing fields" true (Result.is_error (Assertion.of_string "<Assertion ID=\"a\"/>"));
  (* A SignatureValue that is not base64 is an Error, never an exception:
     both capability encodings decode peer bytes from headers. *)
  let bad_signature = "<SignatureValue>!!!!</SignatureValue>" in
  let with_bad_signature s =
    let close = String.rindex s '<' in
    String.sub s 0 close ^ bad_signature ^ String.sub s close (String.length s - close)
  in
  check bool_ "SAML signature not base64" true
    (Result.is_error (Assertion.of_string (with_bad_signature (Assertion.to_string (sample_assertion ())))));
  check bool_ "attribute certificate signature not base64" true
    (Result.is_error
       (Attribute_cert.of_string (with_bad_signature (Attribute_cert.to_string (sample_assertion ())))))

(* --- soap ---------------------------------------------------------------------- *)

let test_soap_roundtrip () =
  let body = Xml.element "Query" ~attrs:[ ("kind", "decision") ] ~children:[ Xml.text "payload" ] in
  let headers = [ Xml.element "Routing" ~attrs:[ ("to", "pdp") ] ] in
  let s = Soap.to_string { Soap.headers; body } in
  match Soap.parse s with
  | Error e -> Alcotest.fail e
  | Ok env ->
    check int_ "headers" 1 (List.length env.Soap.headers);
    check string_ "body tag" "Query" (Xml.tag env.Soap.body);
    check string_ "body text" "payload" (Xml.text_content env.Soap.body)

let test_soap_no_header_section () =
  let s = Soap.to_string { Soap.headers = []; body = Xml.element "X" } in
  (* No empty <Header> element is emitted. *)
  check bool_ "no header element" false
    (Xml.find_child (Xml.of_string s) "Header" <> None);
  match Soap.parse s with
  | Ok env -> check int_ "parses with zero headers" 0 (List.length env.Soap.headers)
  | Error e -> Alcotest.fail e

let test_soap_errors () =
  check bool_ "not xml" true (Result.is_error (Soap.parse "junk"));
  check bool_ "no envelope" true (Result.is_error (Soap.parse "<X/>"));
  check bool_ "no body" true (Result.is_error (Soap.parse "<soap:Envelope/>"));
  check bool_ "empty body" true (Result.is_error (Soap.parse "<soap:Envelope><soap:Body/></soap:Envelope>"));
  check bool_ "two body elements" true
    (Result.is_error (Soap.parse "<soap:Envelope><soap:Body><A/><B/></soap:Body></soap:Envelope>"))

let test_soap_fault () =
  let f = { Soap.code = "soap:Sender"; reason = "bad request" } in
  match Soap.fault_of_body (Soap.fault_body f) with
  | Some f' ->
    check string_ "code" "soap:Sender" f'.Soap.code;
    check string_ "reason" "bad request" f'.Soap.reason;
    check bool_ "non-fault" true (Soap.fault_of_body (Xml.element "X") = None)
  | None -> Alcotest.fail "expected a fault"

(* --- ws-security -------------------------------------------------------------------- *)

let ca_kp = lazy (Rsa.generate (Rng.create 102L) ~bits:512)
let svc_kp = lazy (Rsa.generate (Rng.create 103L) ~bits:512)

let ca_cert () =
  Cert.self_signed (Lazy.force ca_kp) ~subject:"cn=dacs-ca" ~serial:1 ~not_before:0.0 ~not_after:1e9

let svc_cert ca =
  Cert.issue ~ca_key:(Lazy.force ca_kp).Rsa.private_ ~ca_cert:ca ~subject:"cn=pdp.domain-a"
    ~public_key:(Lazy.force svc_kp).Rsa.public ~serial:2 ~not_before:0.0 ~not_after:1e9

let test_security_sign_verify () =
  let ca = ca_cert () in
  let cert = svc_cert ca in
  let trust = Cert.Trust_store.add Cert.Trust_store.empty ca in
  let env = { Soap.headers = []; body = Xml.element "Decision" ~children:[ Xml.text "Permit" ] } in
  let signed = Security.sign ~key:(Lazy.force svc_kp).Rsa.private_ ~cert env in
  (match Security.verify ~trust ~now:100.0 signed with
  | Ok signer -> check string_ "signer" "cn=pdp.domain-a" signer.Cert.subject
  | Error _ -> Alcotest.fail "a freshly signed envelope must verify");
  (* Tampered body fails. *)
  let tampered = { signed with Soap.body = Xml.element "Decision" ~children:[ Xml.text "Deny" ] } in
  check bool_ "tamper detected" true
    (Security.verify ~trust ~now:100.0 tampered = Error Security.Invalid_signature);
  check bool_ "unsigned rejected" true
    (Security.verify ~trust ~now:100.0 env = Error Security.Not_signed)

let test_security_untrusted_signer () =
  let ca = ca_cert () in
  let trust = Cert.Trust_store.add Cert.Trust_store.empty ca in
  (* Self-signed cert not in the store. *)
  let rogue_kp = Rsa.generate (Rng.create 104L) ~bits:512 in
  let rogue = Cert.self_signed rogue_kp ~subject:"cn=rogue" ~serial:9 ~not_before:0.0 ~not_after:1e9 in
  let env = { Soap.headers = []; body = Xml.element "X" } in
  let signed = Security.sign ~key:rogue_kp.Rsa.private_ ~cert:rogue env in
  match Security.verify ~trust ~now:100.0 signed with
  | Error (Security.Untrusted_signer s) -> check string_ "named" "cn=rogue" s
  | _ -> Alcotest.fail "expected Untrusted_signer"

let test_security_expired_cert () =
  let ca = ca_cert () in
  let trust = Cert.Trust_store.add Cert.Trust_store.empty ca in
  let short_lived =
    Cert.issue ~ca_key:(Lazy.force ca_kp).Rsa.private_ ~ca_cert:ca ~subject:"cn=brief"
      ~public_key:(Lazy.force svc_kp).Rsa.public ~serial:3 ~not_before:0.0 ~not_after:10.0
  in
  let env = { Soap.headers = []; body = Xml.element "X" } in
  let signed = Security.sign ~key:(Lazy.force svc_kp).Rsa.private_ ~cert:short_lived env in
  check bool_ "valid before expiry" true (Result.is_ok (Security.verify ~trust ~now:5.0 signed));
  check bool_ "rejected after expiry" true (Result.is_error (Security.verify ~trust ~now:20.0 signed))

let test_security_size_overhead () =
  (* Signed envelopes are measurably bigger — the §3.2 claim. *)
  let ca = ca_cert () in
  let cert = svc_cert ca in
  let env = { Soap.headers = []; body = Xml.element "Q" ~children:[ Xml.text "tiny" ] } in
  let plain_size = String.length (Soap.to_string env) in
  let signed = Security.sign ~key:(Lazy.force svc_kp).Rsa.private_ ~cert env in
  let signed_size = String.length (Soap.to_string signed) in
  check bool_ "signed larger" true (signed_size > plain_size + 200)

let test_encrypt_decrypt_body () =
  let rng = Rng.create 105L in
  let key = Stream_cipher.derive_key "session" in
  let env = { Soap.headers = []; body = Xml.element "Secret" ~children:[ Xml.text "classified" ] } in
  let enc = Security.encrypt_body rng ~key env in
  check bool_ "encrypted" true (Security.is_encrypted enc);
  check bool_ "plain not" false (Security.is_encrypted env);
  (* Ciphertext does not contain the plaintext. *)
  let enc_str = Soap.to_string enc in
  check bool_ "content hidden" false
    (let rec contains i =
       i + 10 <= String.length enc_str && (String.sub enc_str i 10 = "classified" || contains (i + 1))
     in
     contains 0);
  (match Security.decrypt_body ~key enc with
  | Ok dec -> check string_ "roundtrip" "classified" (Xml.text_content dec.Soap.body)
  | Error _ -> Alcotest.fail "the right key must decrypt");
  check bool_ "wrong key fails" true (Result.is_error (Security.decrypt_body ~key:(Stream_cipher.derive_key "other") enc));
  check bool_ "not encrypted error" true
    (Security.decrypt_body ~key env = Error Security.Not_encrypted)

let test_sign_then_encrypt () =
  let rng = Rng.create 106L in
  let ca = ca_cert () in
  let cert = svc_cert ca in
  let trust = Cert.Trust_store.add Cert.Trust_store.empty ca in
  let key = Stream_cipher.derive_key "chan" in
  let env = { Soap.headers = []; body = Xml.element "Payload" ~children:[ Xml.text "x" ] } in
  let protected_env =
    Security.encrypt_body rng ~key (Security.sign ~key:(Lazy.force svc_kp).Rsa.private_ ~cert env)
  in
  (* Decrypt, then the signature still verifies over the restored body. *)
  match Security.decrypt_body ~key protected_env with
  | Error _ -> Alcotest.fail "the right key must decrypt"
  | Ok restored -> check bool_ "signature intact" true (Result.is_ok (Security.verify ~trust ~now:1.0 restored))

(* --- services -------------------------------------------------------------------------- *)

let make_services () =
  let net = Dacs_net.Net.create () in
  Dacs_net.Net.add_node net "client";
  Dacs_net.Net.add_node net "server";
  let svc = Service.create (Dacs_net.Rpc.create net) in
  (net, svc)

(* Test bodies as whole trees: read by [tree], written by [print]. *)
let tree c = Xml.Cursor.read c Xml.Cursor.subtree
let print node buf = Xml.print buf node
let echo = Service.request_reply "echo" ~request:tree ~reply:tree
let s_tree = Service.request_reply "s" ~request:tree ~reply:tree

let test_service_roundtrip () =
  let net, svc = make_services () in
  Service.serve svc ~node:"server" echo (fun ~caller:_ ~headers:_ body reply ->
      reply (print (Xml.element "EchoResponse" ~children:[ Xml.text (Xml.text_content body) ])));
  let result = ref None in
  Service.call svc ~src:"client" ~dst:"server" echo
    (print (Xml.element "Echo" ~children:[ Xml.text "hello" ]))
    (fun r -> result := Some r);
  Dacs_net.Net.run net;
  match !result with
  | Some (Ok (Ok body)) ->
    check string_ "tag" "EchoResponse" (Xml.tag body);
    check string_ "content" "hello" (Xml.text_content body)
  | Some (Ok (Error e)) -> Alcotest.fail e
  | Some (Error e) -> Alcotest.fail (Service.error_to_string e)
  | None -> Alcotest.fail "no reply"

let test_service_headers_delivered () =
  let net, svc = make_services () in
  let seen = ref [] in
  Service.serve svc ~node:"server" s_tree (fun ~caller ~headers body reply ->
      seen := (caller, List.map Xml.tag headers) :: !seen;
      reply (print body));
  let result = ref None in
  Service.call svc ~src:"client" ~dst:"server"
    ~headers:[ Xml.element "Security"; Xml.element "Routing" ]
    s_tree
    (print (Xml.element "Q"))
    (fun r -> result := Some r);
  Dacs_net.Net.run net;
  check bool_ "replied" true (match !result with Some (Ok (Ok _)) -> true | _ -> false);
  match !seen with
  | [ (caller, tags) ] ->
    check string_ "caller" "client" caller;
    check (Alcotest.list string_) "headers" [ "Security"; "Routing" ] tags
  | _ -> Alcotest.fail "handler not invoked exactly once"

let test_service_fault_propagation () =
  let net, svc = make_services () in
  Service.serve svc ~node:"server" s_tree (fun ~caller:_ ~headers:_ _ reply ->
      reply (Service.receiver_fault "not authorised"));
  let result = ref None in
  Service.call svc ~src:"client" ~dst:"server" s_tree (print (Xml.element "Q")) (fun r ->
      result := Some r);
  Dacs_net.Net.run net;
  match !result with
  | Some (Error (Service.Fault f)) ->
    check string_ "code" "soap:Receiver" f.Soap.code;
    check string_ "reason" "not authorised" f.Soap.reason
  | _ -> Alcotest.fail "expected a fault"

let test_service_transport_error () =
  let net, svc = make_services () in
  Service.serve svc ~node:"server" s_tree (fun ~caller:_ ~headers:_ body reply ->
      reply (print body));
  Dacs_net.Net.crash net "server";
  let result = ref None in
  Service.call svc ~src:"client" ~dst:"server" ~timeout:0.5 s_tree (print (Xml.element "Q"))
    (fun r -> result := Some r);
  Dacs_net.Net.run net;
  match !result with
  | Some (Error (Service.Transport Dacs_net.Rpc.Timeout)) -> ()
  | _ -> Alcotest.fail "expected a transport timeout"

let test_service_malformed_request_faults () =
  (* Neither a raw RPC payload that is not a SOAP envelope nor a
     well-formed envelope whose body the service's reader rejects
     reaches the handler: both earn a soap:Sender fault, the second
     carrying the reader's error. *)
  let net, svc = make_services () in
  let invoked = ref false in
  let read_q c =
    Result.bind (tree c) (fun body ->
        if Xml.tag body = "Q" then Ok body else Error (Printf.sprintf "expected <Q>, got <%s>" (Xml.tag body)))
  in
  let strict = Service.request_reply "s" ~request:read_q ~reply:tree in
  Service.serve svc ~node:"server" strict (fun ~caller:_ ~headers:_ _ reply ->
      invoked := true;
      reply (print (Xml.element "R")));
  let result = ref None in
  Dacs_net.Rpc.call_frame (Service.rpc svc) ~src:"client" ~dst:"server" ~service:"s"
    (fun buf -> Buffer.add_string buf "not soap")
    (fun r -> result := Some r);
  Dacs_net.Net.run net;
  check bool_ "handler skipped" false !invoked;
  (match !result with
  | Some (Ok reply) -> (
    match Soap.parse (Dacs_net.Rpc.slice_to_string reply) with
    | Ok env -> check bool_ "fault body" true (Soap.fault_of_body env.Soap.body <> None)
    | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "expected a reply");
  let rejected = ref None in
  Service.call svc ~src:"client" ~dst:"server" strict (print (Xml.element "P")) (fun r ->
      rejected := Some r);
  Dacs_net.Net.run net;
  check bool_ "handler skipped for a rejected body" false !invoked;
  match !rejected with
  | Some (Error (Service.Fault f)) ->
    check string_ "sender fault" "soap:Sender" f.Soap.code;
    check string_ "the reader's error" "expected <Q>, got <P>" f.Soap.reason
  | _ -> Alcotest.fail "expected a sender fault"

(* --- wsdl / ws-policy ------------------------------------------------------------ *)

let sample_description =
  {
    Wsdl.service = "patient-records";
    endpoint = "hospital.pep.records";
    operations =
      [ { Wsdl.op_name = "access"; input = "AccessRequest"; output = "AccessGranted" } ];
    assertions =
      [
        Wsdl.Requires_subject_attribute "role";
        Wsdl.Requires_capability_from "health-cas";
        Wsdl.Requires_signed_messages;
        Wsdl.Responses_encrypted;
      ];
  }

let test_wsdl_roundtrip () =
  match Wsdl.of_xml (Wsdl.to_xml sample_description) with
  | Error e -> Alcotest.fail e
  | Ok d ->
    check string_ "service" "patient-records" d.Wsdl.service;
    check string_ "endpoint" "hospital.pep.records" d.Wsdl.endpoint;
    check int_ "operations" 1 (List.length d.Wsdl.operations);
    check int_ "assertions" 4 (List.length d.Wsdl.assertions)

let test_wsdl_unmet () =
  let unmet = Wsdl.unmet sample_description in
  check int_ "fully equipped caller" 0
    (List.length
       (unmet ~subject_attributes:[ "role"; "org" ] ~capabilities_from:[ "health-cas" ]
          ~will_sign:true));
  let missing =
    unmet ~subject_attributes:[] ~capabilities_from:[] ~will_sign:false
  in
  (* Responses_encrypted is informational, so 3 of 4 are unmet. *)
  check int_ "bare caller misses three" 3 (List.length missing);
  check bool_ "names the attribute" true
    (List.mem (Wsdl.Requires_subject_attribute "role") missing)

let test_wsdl_registry () =
  let net, svc = make_services () in
  Dacs_net.Net.add_node net "registry";
  Dacs_net.Net.add_node net "hospital.pep.records";
  let reg = Wsdl.create_registry svc ~node:"registry" in
  (* Publishing someone else's endpoint is refused. *)
  let refused = ref None in
  let publish src k =
    Service.call svc ~src ~dst:"registry" Wsdl.publish
      (fun buf -> Wsdl.write_service_description buf sample_description)
      k
  in
  publish "client" (fun r -> refused := Some r);
  Dacs_net.Net.run net;
  (match !refused with
  | Some (Error (Service.Fault _)) -> ()
  | _ -> Alcotest.fail "expected third-party publish to be refused");
  (* The owner publishes successfully. *)
  publish "hospital.pep.records" ignore;
  Dacs_net.Net.run net;
  check bool_ "stored" true (Wsdl.lookup reg ~service:"patient-records" <> None);
  (* A client fetches and pre-checks its own readiness. *)
  let fetched = ref None in
  Wsdl.fetch svc ~registry:"registry" ~caller:"client" ~service:"patient-records" (fun r ->
      fetched := Some r);
  Dacs_net.Net.run net;
  (match !fetched with
  | Some (Ok d) ->
    check int_ "client pre-check finds gaps" 2
      (List.length
         (Wsdl.unmet d ~subject_attributes:[ "role" ] ~capabilities_from:[] ~will_sign:false))
  | _ -> Alcotest.fail "expected a description");
  (* Unknown services fault. *)
  let missing = ref None in
  Wsdl.fetch svc ~registry:"registry" ~caller:"client" ~service:"nope" (fun r -> missing := Some r);
  Dacs_net.Net.run net;
  match !missing with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "expected an error for an unknown service"

let () =
  Alcotest.run "dacs_saml_ws"
    [
      ( "assertion",
        [
          Alcotest.test_case "sign/verify" `Quick test_assertion_sign_verify;
          Alcotest.test_case "validity window" `Quick test_assertion_validity_window;
          Alcotest.test_case "validate" `Quick test_assertion_validate;
          Alcotest.test_case "content access" `Quick test_assertion_content;
          Alcotest.test_case "XML roundtrip" `Quick test_assertion_xml_roundtrip;
          Alcotest.test_case "XML errors" `Quick test_assertion_xml_errors;
        ] );
      ( "soap",
        [
          Alcotest.test_case "roundtrip" `Quick test_soap_roundtrip;
          Alcotest.test_case "no header section" `Quick test_soap_no_header_section;
          Alcotest.test_case "errors" `Quick test_soap_errors;
          Alcotest.test_case "faults" `Quick test_soap_fault;
        ] );
      ( "security",
        [
          Alcotest.test_case "sign/verify" `Quick test_security_sign_verify;
          Alcotest.test_case "untrusted signer" `Quick test_security_untrusted_signer;
          Alcotest.test_case "expired certificate" `Quick test_security_expired_cert;
          Alcotest.test_case "size overhead" `Quick test_security_size_overhead;
          Alcotest.test_case "encrypt/decrypt body" `Quick test_encrypt_decrypt_body;
          Alcotest.test_case "sign then encrypt" `Quick test_sign_then_encrypt;
        ] );
      ( "wsdl",
        [
          Alcotest.test_case "roundtrip" `Quick test_wsdl_roundtrip;
          Alcotest.test_case "unmet requirements" `Quick test_wsdl_unmet;
          Alcotest.test_case "registry" `Quick test_wsdl_registry;
        ] );
      ( "service",
        [
          Alcotest.test_case "roundtrip" `Quick test_service_roundtrip;
          Alcotest.test_case "headers delivered" `Quick test_service_headers_delivered;
          Alcotest.test_case "fault propagation" `Quick test_service_fault_propagation;
          Alcotest.test_case "transport error" `Quick test_service_transport_error;
          Alcotest.test_case "malformed request faults" `Quick test_service_malformed_request_faults;
        ] );
    ]
