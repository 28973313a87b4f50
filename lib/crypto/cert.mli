(** X.509-style certificates, chains and trust stores.

    A certificate binds a subject name to an RSA public key, signed by an
    issuer.  This underpins the paper's trust relationships: PEPs hold
    trusted public-key certificates of capability/decision services
    (Fig. 2/3) and validate what those services sign. *)

type t = {
  serial : int;
  subject : string;  (** e.g. ["cn=pdp,o=domain-a"] *)
  issuer : string;
  public_key : Rsa.public_key;
  not_before : float;
  not_after : float;
  signature : string;  (** issuer signature over the canonical TBS form *)
}

val to_xml : t -> Dacs_xml.Xml.t
val of_xml : Dacs_xml.Xml.t -> t option

val self_signed :
  Rsa.keypair -> subject:string -> serial:int -> not_before:float -> not_after:float -> t
(** A root (CA) certificate: issuer = subject, signed by its own key. *)

val issue :
  ca_key:Rsa.private_key ->
  ca_cert:t ->
  subject:string ->
  public_key:Rsa.public_key ->
  serial:int ->
  not_before:float ->
  not_after:float ->
  t
(** A certificate for [subject]'s key, signed by the CA. *)

val verify_signature : t -> issuer_key:Rsa.public_key -> bool

(** {1 Trust stores} *)

module Trust_store : sig
  type cert = t
  type t

  val empty : t
  val add : t -> cert -> t
  (** Add a trusted root. *)

  val mem : t -> cert -> bool
  val roots : t -> cert list

  type failure =
    | Empty_chain
    | Expired of string  (** subject of the expired certificate *)
    | Bad_signature of string
    | Untrusted_root of string
    | Broken_chain of string * string  (** issuer/subject mismatch *)

  val verify_chain : t -> now:float -> cert list -> (unit, failure) result
  (** [verify_chain store ~now chain] checks a leaf-to-root chain: each
      certificate is within validity, signed by the next one's key, and the
      final certificate is a self-signed member of the store. *)

  val trusts : t -> now:float -> cert -> bool
  (** The one trust rule for a signer's certificate: it is in the store
      and valid at [now], or it chains one level to a stored root
      ({!verify_chain} of it and the root named as its issuer). *)
end
