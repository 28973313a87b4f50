module Xml = Dacs_xml.Xml

type t = {
  serial : int;
  subject : string;
  issuer : string;
  public_key : Rsa.public_key;
  not_before : float;
  not_after : float;
  signature : string;
}

let tbs_xml c =
  Xml.element "TBSCertificate"
    ~attrs:
      [
        ("Serial", string_of_int c.serial);
        ("Subject", c.subject);
        ("Issuer", c.issuer);
        ("NotBefore", Printf.sprintf "%.6f" c.not_before);
        ("NotAfter", Printf.sprintf "%.6f" c.not_after);
      ]
    ~children:[ Rsa.public_to_xml c.public_key ]

let tbs_string c = Xml.canonical_string (tbs_xml c)

let to_xml c =
  Xml.element "Certificate"
    ~children:
      [
        tbs_xml c;
        Xml.element "SignatureValue" ~children:[ Xml.text (Encoding.base64_encode c.signature) ];
      ]

let of_xml node =
  match (Xml.find_child node "TBSCertificate", Xml.find_child node "SignatureValue") with
  | Some tbs, Some sigval -> (
    let attr name = Xml.attr tbs name in
    match
      ( attr "Serial",
        attr "Subject",
        attr "Issuer",
        attr "NotBefore",
        attr "NotAfter",
        Xml.find_child tbs "RSAPublicKey" )
    with
    | Some serial, Some subject, Some issuer, Some nb, Some na, Some key_xml -> (
      match
        ( int_of_string_opt serial,
          float_of_string_opt nb,
          float_of_string_opt na,
          Rsa.public_of_xml key_xml )
      with
      | Some serial, Some not_before, Some not_after, Some public_key -> (
        try
          Some
            {
              serial;
              subject;
              issuer;
              public_key;
              not_before;
              not_after;
              signature = Encoding.base64_decode (Xml.text_content sigval);
            }
        with Invalid_argument _ -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

let fingerprint c = Sha256.hex_digest (Xml.canonical_string (to_xml c))

let sign_tbs key c = { c with signature = Rsa.sign key (tbs_string c) }

let self_signed (kp : Rsa.keypair) ~subject ~serial ~not_before ~not_after =
  let c =
    {
      serial;
      subject;
      issuer = subject;
      public_key = kp.public;
      not_before;
      not_after;
      signature = "";
    }
  in
  sign_tbs kp.private_ c

let issue ~ca_key ~ca_cert ~subject ~public_key ~serial ~not_before ~not_after =
  let c =
    {
      serial;
      subject;
      issuer = ca_cert.subject;
      public_key;
      not_before;
      not_after;
      signature = "";
    }
  in
  sign_tbs ca_key c

let verify_signature c ~issuer_key = Rsa.verify issuer_key (tbs_string c) ~signature:c.signature

let valid_at c now = c.not_before <= now && now <= c.not_after

module Trust_store = struct
  type cert = t

  module Fingerprints = Set.Make (String)

  type nonrec t = { fingerprints : Fingerprints.t; certs : cert list }

  let empty = { fingerprints = Fingerprints.empty; certs = [] }

  let add store cert =
    let fp = fingerprint cert in
    if Fingerprints.mem fp store.fingerprints then store
    else { fingerprints = Fingerprints.add fp store.fingerprints; certs = cert :: store.certs }

  let mem store cert = Fingerprints.mem (fingerprint cert) store.fingerprints

  let roots store = store.certs

  type failure =
    | Empty_chain
    | Expired of string
    | Bad_signature of string
    | Untrusted_root of string
    | Broken_chain of string * string

  let verify_chain store ~now chain =
    match chain with
    | [] -> Error Empty_chain
    | _ ->
      let rec walk = function
        | [] -> Ok ()
        | [ root ] ->
          if not (valid_at root now) then Error (Expired root.subject)
          else if root.issuer <> root.subject then Error (Broken_chain (root.issuer, root.subject))
          else if not (verify_signature root ~issuer_key:root.public_key) then
            Error (Bad_signature root.subject)
          else if not (mem store root) then Error (Untrusted_root root.subject)
          else Ok ()
        | cert :: (parent :: _ as rest) ->
          if not (valid_at cert now) then Error (Expired cert.subject)
          else if cert.issuer <> parent.subject then Error (Broken_chain (cert.issuer, parent.subject))
          else if not (verify_signature cert ~issuer_key:parent.public_key) then
            Error (Bad_signature cert.subject)
          else walk rest
      in
      walk chain

  (* One-level chain: a certificate not in the store itself must be
     signed by a stored root of its issuer's name. *)
  let trusts store ~now cert =
    if mem store cert then valid_at cert now
    else
      match List.find_opt (fun root -> root.subject = cert.issuer) store.certs with
      | None -> false
      | Some root -> verify_chain store ~now [ cert; root ] = Ok ()
end
