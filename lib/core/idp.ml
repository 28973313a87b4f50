module Service = Dacs_ws.Service
module Assertion = Dacs_saml.Assertion

type t = {
  services : Service.t;
  node : Dacs_net.Net.node_id;
  issuer : string;
  keypair : Dacs_crypto.Rsa.keypair;
  validity : float;
  users : (string, (string * Dacs_policy.Value.t) list) Hashtbl.t;
  mutable issued : int;
}

let node t = t.node
let issuer t = t.issuer
let public_key t = t.keypair.Dacs_crypto.Rsa.public

let register_user t ~user attrs = Hashtbl.replace t.users user attrs

let issue t ~user =
  match Hashtbl.find_opt t.users user with
  | None -> None
  | Some attrs ->
    t.issued <- t.issued + 1;
    let unsigned =
      Assertion.make
        ~id:(Printf.sprintf "idp-%s-%d" t.issuer t.issued)
        ~issuer:t.issuer ~subject:user
        ~issued_at:(Dacs_net.Net.now (Service.net t.services))
        ~validity:t.validity
        [ Assertion.Attribute_statement attrs ]
    in
    Some (Assertion.sign t.keypair.Dacs_crypto.Rsa.private_ unsigned)

let issued_count t = t.issued

let create services ~node ~issuer ~keypair ?(validity = 300.0) () =
  let t = { services; node; issuer; keypair; validity; users = Hashtbl.create 64; issued = 0 } in
  Service.serve services ~node ~service:"attribute-assertion"
    (fun ~caller:_ ~headers:_ body reply ->
      match Dacs_xml.Xml.attr body "Subject" with
      | None ->
        reply
          (Dacs_ws.Soap.fault_body
             { Dacs_ws.Soap.code = "soap:Sender"; reason = "request names no subject" })
      | Some user -> (
        match issue t ~user with
        | Some assertion -> reply (Assertion.to_xml assertion)
        | None ->
          reply
            (Dacs_ws.Soap.fault_body
               { Dacs_ws.Soap.code = "soap:Receiver"; reason = "unknown subject" })));
  t
