module Service = Dacs_ws.Service
module Context = Dacs_policy.Context
module Value = Dacs_policy.Value
module Compiled = Dacs_policy.Compiled
module Decision = Dacs_policy.Decision
module Assertion = Dacs_saml.Assertion
module Metrics = Dacs_telemetry.Metrics

type format =
  | Saml
  | X509_attribute_cert

type t = {
  format : format;
  services : Dacs_ws.Service.t;
  node : Dacs_net.Net.node_id;
  issuer : string;
  keypair : Dacs_crypto.Rsa.keypair;
  mutable policy : Compiled.t option;
  validity : float;
  revoked : (string, unit) Hashtbl.t;
  (* Stats live in the bus-wide registry like every other component's;
     the issued counter doubles as the assertion id sequence. *)
  c_issued : Metrics.counter;
  c_revocation_checks : Metrics.counter;
}

let node t = t.node
let issuer t = t.issuer
let public_key t = t.keypair.Dacs_crypto.Rsa.public

let set_policy t root =
  t.policy <-
    Some
      (match t.policy with
      | Some previous -> Compiled.recompile previous root
      | None -> Compiled.compile root)

let now t = Dacs_net.Net.now (Service.net t.services)

let decide t ~subject ~resource ~action =
  match t.policy with
  | None -> Decision.Indeterminate "capability service has no policy"
  | Some policy ->
    let ctx =
      Context.make ~subject
        ~resource:[ ("resource-id", Value.String resource) ]
        ~action:[ ("action-id", Value.String action) ]
        ~environment:[ ("time", Value.Time (now t)) ]
        ()
    in
    (Compiled.evaluate ctx policy).Decision.decision

let issue t ~subject ~pairs =
  Metrics.inc t.c_issued;
  let subject_name =
    match List.assoc_opt "subject-id" subject with
    | Some v -> Value.to_string v
    | None -> "anonymous"
  in
  let statements =
    Assertion.Attribute_statement subject
    :: List.map
         (fun (resource, action) ->
           Assertion.Authz_decision_statement
             { resource; action; decision = decide t ~subject ~resource ~action })
         pairs
  in
  let unsigned =
    Assertion.make
      ~id:(Printf.sprintf "cap-%s-%d" t.issuer (Metrics.counter_value t.c_issued))
      ~issuer:t.issuer ~subject:subject_name ~issued_at:(now t) ~validity:t.validity statements
  in
  Assertion.sign t.keypair.Dacs_crypto.Rsa.private_ unsigned

let revoke t ~assertion_id = Hashtbl.replace t.revoked assertion_id ()

let is_revoked t ~assertion_id = Hashtbl.mem t.revoked assertion_id

let issued_count t = Metrics.counter_value t.c_issued
let revocation_checks_served t = Metrics.counter_value t.c_revocation_checks

let create services ~node ~issuer ~keypair ?root ?(validity = 300.0) ?(format = Saml) () =
  let t =
    {
      format;
      services;
      node;
      issuer;
      keypair;
      policy = Option.map Compiled.compile root;
      validity;
      revoked = Hashtbl.create 16;
      c_issued =
        Metrics.counter (Service.metrics services) ~labels:[ ("node", node) ]
          ~help:"Capability assertions issued" "cas_issued_total";
      c_revocation_checks =
        Metrics.counter (Service.metrics services) ~labels:[ ("node", node) ]
          ~help:"Revocation-status queries served" "cas_revocation_checks_total";
    }
  in
  Service.serve services ~node Wire.Services.capability_request
    (fun ~caller:_ ~headers:_ (subject, pairs) reply ->
      let assertion = issue t ~subject ~pairs in
      let to_xml =
        match t.format with Saml -> Assertion.to_xml | X509_attribute_cert -> Dacs_saml.Attribute_cert.to_xml
      in
      reply (fun buf -> Dacs_xml.Xml.print buf (to_xml assertion)));
  Service.serve services ~node Wire.Services.revocation_check
    (fun ~caller:_ ~headers:_ assertion_id reply ->
      Metrics.inc t.c_revocation_checks;
      reply (fun buf -> Wire.write_revocation_status buf ~revoked:(is_revoked t ~assertion_id)));
  t
