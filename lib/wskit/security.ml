module Xml = Dacs_xml.Xml
module Cert = Dacs_crypto.Cert
module Rsa = Dacs_crypto.Rsa

type error =
  | Not_signed
  | Invalid_signature
  | Untrusted_signer of string
  | Not_encrypted
  | Decrypt_failed
  | Malformed of string

let security_header = "wsse:Security"

let body_payload (e : Soap.envelope) = Xml.canonical_string e.Soap.body

let sign ~key ~cert (e : Soap.envelope) =
  let signature = Rsa.sign key (body_payload e) in
  let header =
    Xml.element security_header
      ~children:
        [
          Xml.element "BinarySecurityToken" ~children:[ Cert.to_xml cert ];
          Xml.element "SignatureValue"
            ~children:[ Xml.text (Dacs_crypto.Encoding.base64_encode signature) ];
        ]
  in
  (* Replace any existing security header. *)
  let others =
    List.filter (fun h -> Xml.local_name (Xml.tag h) <> "Security") e.Soap.headers
  in
  { e with Soap.headers = others @ [ header ] }

let find_security (e : Soap.envelope) =
  List.find_opt (fun h -> Xml.local_name (Xml.tag h) = "Security") e.Soap.headers

let trusted_signer ~trust ~now cert =
  if Cert.Trust_store.mem trust cert then Cert.valid_at cert now
  else begin
    (* One-level chain: the certificate's issuer must be a trusted root. *)
    let root =
      List.find_opt (fun r -> r.Cert.subject = cert.Cert.issuer) (Cert.Trust_store.roots trust)
    in
    match root with
    | None -> false
    | Some root -> Cert.Trust_store.verify_chain trust ~now [ cert; root ] = Ok ()
  end

let verify ~trust ~now (e : Soap.envelope) =
  match find_security e with
  | None -> Error Not_signed
  | Some h -> (
    match (Xml.find_child h "BinarySecurityToken", Xml.find_child h "SignatureValue") with
    | Some token, Some sig_node -> (
      match Option.bind (Xml.find_child token "Certificate") Cert.of_xml with
      | None -> Error (Malformed "security token does not contain a certificate")
      | Some cert -> (
        let signature =
          try Some (Dacs_crypto.Encoding.base64_decode (Xml.text_content sig_node))
          with Invalid_argument _ -> None
        in
        match signature with
        | None -> Error (Malformed "signature is not valid base64")
        | Some signature ->
          if not (trusted_signer ~trust ~now cert) then Error (Untrusted_signer cert.Cert.subject)
          else if Rsa.verify cert.Cert.public_key (body_payload e) ~signature then Ok cert
          else Error Invalid_signature))
    | _ -> Error (Malformed "security header lacks token or signature"))

let encrypt_body rng ~key (e : Soap.envelope) =
  let plain = Xml.to_string e.Soap.body in
  let cipher = Dacs_crypto.Stream_cipher.encrypt rng ~key plain in
  {
    e with
    Soap.body =
      Xml.element "EncryptedData"
        ~children:[ Xml.text (Dacs_crypto.Encoding.base64_encode cipher) ];
  }

let is_encrypted (e : Soap.envelope) = Xml.local_name (Xml.tag e.Soap.body) = "EncryptedData"

let decrypt_body ~key (e : Soap.envelope) =
  if not (is_encrypted e) then Error Not_encrypted
  else begin
    let cipher =
      try Some (Dacs_crypto.Encoding.base64_decode (Xml.text_content e.Soap.body))
      with Invalid_argument _ -> None
    in
    match Option.bind cipher (fun c -> Dacs_crypto.Stream_cipher.decrypt ~key c) with
    | None -> Error Decrypt_failed
    | Some plain -> (
      match Xml.of_string_opt plain with
      | Some body -> Ok { e with Soap.body = body }
      | None -> Error Decrypt_failed)
  end
