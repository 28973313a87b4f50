module Service = Dacs_ws.Service
module Assertion = Dacs_saml.Assertion

type t = {
  services : Service.t;
  node : Dacs_net.Net.node_id;
  issuer : string;
  keypair : Dacs_crypto.Rsa.keypair;
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
        ~validity:300.0
        [ Assertion.Attribute_statement attrs ]
    in
    Some (Assertion.sign t.keypair.Dacs_crypto.Rsa.private_ unsigned)

let issued_count t = t.issued

let create services ~node ~issuer ~keypair () =
  let t = { services; node; issuer; keypair; users = Hashtbl.create 64; issued = 0 } in
  Service.serve services ~node Wire.Services.attribute_assertion
    (fun ~caller:_ ~headers:_ user reply ->
      match issue t ~user with
      | Some assertion -> reply (fun buf -> Dacs_xml.Xml.print buf (Assertion.to_xml assertion))
      | None -> reply (Service.receiver_fault "unknown subject"));
  t
