(** WS-Security-style message protection: envelope signatures and body
    encryption.

    Signing embeds the sender's certificate (a binary security token) and
    an RSA signature over the canonical body; encryption replaces the body
    element with an [EncryptedData] wrapper.  Both mirror what
    XML-DSig/XML-Enc do to SOAP messages — including the size overhead the
    paper calls out when comparing secured and plain Web-Service calls. *)

type error =
  | Not_signed
  | Invalid_signature
  | Untrusted_signer of string
  | Not_encrypted
  | Decrypt_failed
  | Malformed of string

(** {1 Signatures} *)

val sign :
  key:Dacs_crypto.Rsa.private_key ->
  cert:Dacs_crypto.Cert.t ->
  Soap.envelope ->
  Soap.envelope
(** Add a [Security] header carrying the certificate and a signature over
    the canonical body. *)

val verify :
  trust:Dacs_crypto.Cert.Trust_store.t ->
  now:float ->
  Soap.envelope ->
  (Dacs_crypto.Cert.t, error) result
(** Check the signature and that the embedded certificate chains to the
    trust store (direct trust or one-level issuer). Returns the signer. *)

(** {1 Body encryption} *)

val encrypt_body : Dacs_crypto.Rng.t -> key:string -> Soap.envelope -> Soap.envelope
(** Replace the body element with [EncryptedData] (base64 ciphertext).
    Sign-then-encrypt composes: encrypt after signing. *)

val decrypt_body : key:string -> Soap.envelope -> (Soap.envelope, error) result

val is_encrypted : Soap.envelope -> bool
