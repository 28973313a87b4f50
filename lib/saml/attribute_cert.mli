(** X.509 attribute-certificate encoding of capabilities (VOMS style).

    The paper contrasts CAS and VOMS: "Both solutions differ with respect
    to the format of the capabilities that are issued" — CAS encodes them
    as SAML assertions, VOMS as extended X.509 attribute certificates.
    This module is the second wire format for the same logical capability:
    {!to_string}/{!of_xml} convert between an {!Assertion.t} and an
    [X509AttributeCertificate] document (holder, issuer, serial, validity,
    attributes, authorisation decisions, signature).  The signature is the
    issuer's signature over the capability's canonical logical payload, so
    a capability re-encoded between formats keeps verifying.  (Exactly
    for the shape the capability services issue: one leading attribute
    statement followed by decision statements — the codec normalises to
    that order.) *)

val of_xml : Dacs_xml.Xml.t -> (Assertion.t, string) result

val to_string : Assertion.t -> string

val element_name : string
(** ["X509AttributeCertificate"], the root element this codec produces. *)
