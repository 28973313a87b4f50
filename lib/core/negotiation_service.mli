(** Networked trust negotiation (the paper's Traust reference, §3.1).

    A negotiation server guards resources whose access requirements are
    stated over client credential names.  Strangers negotiate over the
    ["negotiate"] service: each round the client discloses the credentials
    its release policies unlock, the server answers with its own unlocked
    credentials, and when the resource requirement is met the server
    issues a signed capability assertion — bridging trust negotiation
    into the push model (Fig. 2). *)

type t

val create :
  Dacs_ws.Service.t ->
  node:Dacs_net.Net.node_id ->
  issuer:string ->
  keypair:Dacs_crypto.Rsa.keypair ->
  credentials:Negotiation.credential list ->
  requirement_for:(resource:string -> action:string -> Negotiation.requirement) ->
  unit ->
  t
(** [credentials] are the server's own disclosable credentials;
    [requirement_for] gives each (resource, action)'s access requirement
    over client credential names.  A granted capability is valid for
    300 s. *)

val public_key : t -> Dacs_crypto.Rsa.public_key
val sessions : t -> int
(** Active (not yet granted/failed) negotiations. *)

type outcome = {
  granted : Dacs_saml.Assertion.t option;
  rounds : int;
  messages : int;  (** network messages exchanged (requests + replies) *)
}

val negotiate :
  t ->
  services:Dacs_ws.Service.t ->
  client_node:Dacs_net.Net.node_id ->
  credentials:Negotiation.credential list ->
  subject:(string * Dacs_policy.Value.t) list ->
  resource:string ->
  action:string ->
  (outcome -> unit) ->
  unit
(** Client-side driver: runs rounds against the server until granted,
    refused, no progress, or 20 rounds. *)
