(** SAML-style security assertions.

    Signed statements an authority makes about a subject: attribute
    statements (the IdP's job) and authorisation-decision statements (the
    capability service's job in the push model, Fig. 2).  Validity windows
    and issuer signatures give the PEP everything it needs to accept a
    capability without calling back. *)

type statement =
  | Attribute_statement of (string * Dacs_policy.Value.t) list
  | Authz_decision_statement of {
      resource : string;
      action : string;
      decision : Dacs_policy.Decision.t;
    }

type t = {
  id : string;
  issuer : string;
  subject : string;
  issued_at : float;
  not_before : float;
  not_on_or_after : float;
  statements : statement list;
  signature : string option;  (** over the canonical unsigned form *)
}

val make :
  id:string ->
  issuer:string ->
  subject:string ->
  issued_at:float ->
  ?validity:float ->
  statement list ->
  t
(** [validity] defaults to 300 s from [issued_at]. *)

(** {1 Signing} *)

val sign : Dacs_crypto.Rsa.private_key -> t -> t
val verify : Dacs_crypto.Rsa.public_key -> t -> bool
(** [false] when unsigned, tampered with, or signed by a different key. *)

val valid_at : t -> float -> bool

type failure =
  | Not_signed
  | Bad_signature
  | Expired
  | Not_yet_valid
  | Unknown_issuer of string

val failure_to_string : failure -> string

val validate :
  trusted_key:(string -> Dacs_crypto.Rsa.public_key option) ->
  now:float ->
  t ->
  (unit, failure) result
(** Full acceptance check: issuer known, signature valid, window open. *)

(** {1 Content access} *)

val attributes : t -> (string * Dacs_policy.Value.t) list
(** All attribute pairs across attribute statements. *)

val decisions : t -> (string * string * Dacs_policy.Decision.t) list
(** (resource, action, decision) triples. *)

val permits : t -> resource:string -> action:string -> bool
(** True when some decision statement permits the pair. *)

(** {1 XML} *)

val to_xml : t -> Dacs_xml.Xml.t
val of_xml : Dacs_xml.Xml.t -> (t, string) result
val to_string : t -> string

val signature_of_xml : Dacs_xml.Xml.t -> (string option, string) result
(** The decoded [SignatureValue] child of a capability element, which
    {!Attribute_cert} reads too; [Error] when it is not base64, so a
    hostile header is rejected rather than raised. *)
