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

(* One access call through the breaker; an outcome the client cannot
   read is a malformed answer. *)
let access t ~pep ~action ?timeout ?headers k =
  Service.call t.services ~src:t.node ~dst:pep ?timeout ~breaker:true ?headers Wire.Services.access
    (fun buf -> Wire.write_access_request buf ~subject:t.subject ~action)
    (function
      | Ok (Ok outcome) -> k (Ok outcome)
      | Ok (Error e) -> k (Error (Service.Malformed e))
      | Error e -> k (Error e))

(* The client owns the re-send: each failed attempt takes the bus's one
   retry step, as the PDP tier's frames do. *)
let request t ~pep ~action ?timeout ?(retry = Dacs_net.Rpc.no_retry) k =
  Dacs_net.Rpc.validate_retry retry;
  let rec attempt failures =
    access t ~pep ~action ?timeout (fun r ->
        match Service.transport_error r with
        | Some err
          when Dacs_net.Rpc.retry_after (Service.rpc t.services) ~src:t.node ~dst:pep retry ~failures err
                 (fun () -> attempt (failures + 1)) ->
          ()
        | Some _ | None -> k r)
  in
  attempt 1

let valid_capability t ~resource ~action =
  match Hashtbl.find_opt t.capabilities (resource, action) with
  | Some (a, wire) when Assertion.valid_at a (now t) -> Some wire
  | Some _ ->
    Hashtbl.remove t.capabilities (resource, action);
    None
  | None -> None

let capability_requests_made t = t.capability_requests

let request_with_capability t ~capability_service ~pep ~resource ~action k =
  match valid_capability t ~resource ~action with
  | Some wire -> access t ~pep ~action ~headers:[ wire ] k
  | None ->
    t.capability_requests <- t.capability_requests + 1;
    Service.call t.services ~src:t.node ~dst:capability_service ~breaker:true Wire.Services.capability_request
      (fun buf -> Wire.write_capability_request buf ~subject:t.subject ~pairs:[ (resource, action) ])
      (function
        | Error e -> k (Error e)
        | Ok (Error e) -> k (Error (Service.Malformed e))
        | Ok (Ok ((_, body) as capability)) ->
          Hashtbl.replace t.capabilities (resource, action) capability;
          access t ~pep ~action ~headers:[ body ] k)
