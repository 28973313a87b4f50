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

(* One access call; an outcome the client cannot read is a malformed
   answer. *)
let access t ~pep ~action ?timeout ~resilient ?headers k =
  Service.call_frame t.services ~src:t.node ~dst:pep ~service:"access" ?timeout ~resilient ?headers
    ~read:Wire.read_access_outcome
    (fun buf -> Wire.write_access_request buf ~subject:t.subject ~action)
    (function
      | Ok (Ok outcome) -> k (Ok outcome)
      | Ok (Error e) -> k (Error (Service.Malformed e))
      | Error e -> k (Error e))

let request t ~pep ~action ?timeout ?(retry = Dacs_net.Rpc.no_retry) k =
  access t ~pep ~action ?timeout ~resilient:retry k

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
  access t ~pep ~action ~resilient:Dacs_net.Rpc.no_retry ~headers:[ wire ] k

(* The capability and the wire form it arrived in. *)
let read_capability c =
  let body = Dacs_xml.Xml.Cursor.subtree c in
  let capability =
    if Dacs_xml.Xml.local_name (Dacs_xml.Xml.tag body) = Dacs_saml.Attribute_cert.element_name then
      Dacs_saml.Attribute_cert.of_xml body
    else Assertion.of_xml body
  in
  Result.map (fun assertion -> (assertion, body)) capability

let request_with_capability t ~capability_service ~pep ~resource ~action k =
  match valid_capability t ~resource ~action with
  | Some wire -> call_with_capability t ~pep ~action wire k
  | None ->
    t.capability_requests <- t.capability_requests + 1;
    Service.call_frame t.services ~src:t.node ~dst:capability_service ~service:"capability-request"
      ~resilient:Dacs_net.Rpc.no_retry ~read:read_capability
      (fun buf -> Wire.write_capability_request buf ~subject:t.subject ~pairs:[ (resource, action) ])
      (function
        | Error e -> k (Error e)
        | Ok (Error e) -> k (Error (Service.Malformed e))
        | Ok (Ok ((_, body) as capability)) ->
          Hashtbl.replace t.capabilities (resource, action) capability;
          call_with_capability t ~pep ~action body k)
