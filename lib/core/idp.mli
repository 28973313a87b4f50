(** Identity Provider: issues signed attribute assertions for its domain's
    users (§3.1 — subject credentials come from IdPs in separate
    administrative domains). *)

type t

val create :
  Dacs_ws.Service.t ->
  node:Dacs_net.Net.node_id ->
  issuer:string ->
  keypair:Dacs_crypto.Rsa.keypair ->
  unit ->
  t
(** Registers ["attribute-assertion"]: a
    {!Wire.write_attribute_assertion_request} body → signed assertion
    with the registered attributes, valid for 300 s.  Unknown subjects earn a
    [soap:Receiver] fault. *)

val node : t -> Dacs_net.Net.node_id
val issuer : t -> string
val public_key : t -> Dacs_crypto.Rsa.public_key

val register_user : t -> user:string -> (string * Dacs_policy.Value.t) list -> unit

val issued_count : t -> int
