(** Service descriptions with attached security-policy assertions.

    The paper (§3.1): the Web-Services profile of XACML "defines policy
    assertions that can be used for specifying authorisation and privacy
    requirements ... specified at the Web Service side using the WS-Policy
    framework."  A description advertises a service's operations and what
    a caller must bring: subject attributes, a capability from a given
    issuer, message signing, or response encryption.  Clients can fetch
    descriptions from a description registry and pre-check their own
    request before paying for a round trip that a PEP would refuse. *)

type operation = {
  op_name : string;
  input : string;  (** request element name *)
  output : string;  (** response element name *)
}

type assertion =
  | Requires_subject_attribute of string  (** e.g. ["role"] *)
  | Requires_capability_from of string  (** capability-service issuer name *)
  | Requires_signed_messages
  | Responses_encrypted

type t = {
  service : string;
  endpoint : Dacs_net.Net.node_id;
  operations : operation list;
  assertions : assertion list;
}

val to_xml : t -> Dacs_xml.Xml.t
val of_xml : Dacs_xml.Xml.t -> (t, string) result

val unmet :
  t ->
  subject_attributes:string list ->
  capabilities_from:string list ->
  will_sign:bool ->
  assertion list
(** Which of the description's requirements the caller cannot satisfy
    ([Responses_encrypted] is informational and never unmet). *)

(** {1 Frames}

    The bodies of the registry's two services, each with one writer and
    one total reader (see {!Service.reader}).  A description keeps its
    tree codec ({!to_xml}, {!of_xml}) inside its frame. *)

val write_service_description : Buffer.t -> t -> unit
val read_service_description : t Service.reader
val write_description_query : Buffer.t -> service:string -> unit
val read_description_query : string Service.reader
val write_publish_ack : Buffer.t -> unit
val read_publish_ack : unit Service.reader

(** {1 Description registry} *)

type registry

val create_registry : Service.t -> node:Dacs_net.Net.node_id -> registry
(** Serves ["wsdl-publish"] (a {!write_service_description} body,
    self-descriptions only, like discovery) and ["wsdl-query"] (a
    {!write_description_query} body; an unknown service earns a
    [soap:Receiver] fault). *)

val lookup : registry -> service:string -> t option

val fetch :
  Service.t ->
  registry:Dacs_net.Net.node_id ->
  caller:Dacs_net.Net.node_id ->
  service:string ->
  ((t, string) result -> unit) ->
  unit
(** Client-side query over the network. *)
