(** Capability service: the trusted authority of the push model (Fig. 2).

    Clients pre-authenticate here and obtain signed SAML-style assertions
    carrying authorisation-decision statements; PEPs later verify those
    assertions locally.  Mirrors CAS/VOMS: the service pre-screens
    against its own policies, while resource providers keep the final
    say.  Also answers revocation checks. *)

type t

val create :
  Dacs_ws.Service.t ->
  node:Dacs_net.Net.node_id ->
  issuer:string ->
  keypair:Dacs_crypto.Rsa.keypair ->
  ?root:Dacs_policy.Policy.child ->
  ?validity:float ->
  unit ->
  t
(** Registers ["capability-request"] and ["revocation-check"].
    [validity] (default 300 s) bounds issued assertions, which travel
    as SAML assertions (CAS style; {!Dacs_saml.Attribute_cert} is the
    VOMS-style encoding a PEP also reads). *)

val issuer : t -> string
val public_key : t -> Dacs_crypto.Rsa.public_key

val set_policy : t -> Dacs_policy.Policy.child -> unit
(** Adopt a policy: it is compiled ({!Dacs_policy.Compiled.recompile}
    against the previous one, reusing unchanged leaves), and every
    issued decision statement is evaluated by the compiled form. *)

val revoke : t -> assertion_id:string -> unit
val is_revoked : t -> assertion_id:string -> bool

val issued_count : t -> int
(** Reads the registry's [cas_issued_total{node}] counter (which also
    numbers the assertion ids). *)

val revocation_checks_served : t -> int
(** Reads the registry's [cas_revocation_checks_total{node}] counter. *)
