module Service = Dacs_ws.Service
module Value = Dacs_policy.Value
module Assertion = Dacs_saml.Assertion

type t = {
  services : Service.t;
  node : Dacs_net.Net.node_id;
  subject : (string * Value.t) list;
  (* (resource, action) -> parsed capability and its original wire form
     (the PEP must see the same encoding the issuer produced). *)
  capabilities : (string * string, Assertion.t * Dacs_xml.Xml.t) Hashtbl.t;
  mutable capability_requests : int;
}

let create services ~node ~subject =
  { services; node; subject; capabilities = Hashtbl.create 8; capability_requests = 0 }

let now t = Dacs_net.Net.now (Service.net t.services)

let parse_outcome body =
  match Wire.parse_access_outcome body with
  | Ok outcome -> Ok outcome
  | Error e -> Error (Service.Malformed e)

let request t ~pep ~action ?timeout ?(retry = Dacs_net.Rpc.no_retry) k =
  Service.call t.services ~src:t.node ~dst:pep ~service:"access" ?timeout ~resilient:retry
    (Wire.access_request ~subject:t.subject ~action)
    (fun response ->
      match response with
      | Ok body -> k (parse_outcome body)
      | Error e -> k (Error e))

let valid_capability t ~resource ~action =
  match Hashtbl.find_opt t.capabilities (resource, action) with
  | Some (a, wire) when Assertion.valid_at a (now t) -> Some wire
  | Some _ ->
    Hashtbl.remove t.capabilities (resource, action);
    None
  | None -> None

let drop_capabilities t = Hashtbl.reset t.capabilities

let capability_requests_made t = t.capability_requests

let call_with_capability t ~pep ~action wire k =
  Service.call t.services ~src:t.node ~dst:pep ~service:"access" ~resilient:Dacs_net.Rpc.no_retry
    ~headers:[ wire ]
    (Wire.access_request ~subject:t.subject ~action)
    (fun response ->
      match response with
      | Ok body -> k (parse_outcome body)
      | Error e -> k (Error e))

let parse_capability body =
  if Dacs_xml.Xml.local_name (Dacs_xml.Xml.tag body) = Dacs_saml.Attribute_cert.element_name then
    Dacs_saml.Attribute_cert.of_xml body
  else Assertion.of_xml body

let request_with_capability t ~capability_service ~pep ~resource ~action k =
  match valid_capability t ~resource ~action with
  | Some wire -> call_with_capability t ~pep ~action wire k
  | None ->
    t.capability_requests <- t.capability_requests + 1;
    Service.call t.services ~src:t.node ~dst:capability_service ~service:"capability-request"
      ~resilient:Dacs_net.Rpc.no_retry
      (Wire.capability_request ~subject:t.subject ~pairs:[ (resource, action) ])
      (fun response ->
        match response with
        | Error e -> k (Error e)
        | Ok body -> (
          match parse_capability body with
          | Error e -> k (Error (Service.Malformed e))
          | Ok assertion ->
            Hashtbl.replace t.capabilities (resource, action) (assertion, body);
            call_with_capability t ~pep ~action body k))
