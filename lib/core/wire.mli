(** Wire vocabulary of the authorisation protocol.

    The XML bodies exchanged between components: access requests,
    authorisation decision queries/responses, attribute queries, shared
    cache traffic, policy fetches/updates, offline log sync, capability
    requests and revocation checks, discovery, identity-assertion
    requests and trust-negotiation rounds.  One module so every
    component agrees on syntax — the interoperability requirement of
    §3.2.  (Service descriptions sit below this library, so their frames
    live in {!Dacs_ws.Wsdl}.)

    Every frame has one direct writer ([write_*], appending the body
    element to the frame being sent) and one pull-cursor reader, reading
    the body element in place from its ['<'], held by the declaration of
    the service that receives it ({!Services}).  Readers are total: a
    malformed or misshapen element is an [Error], never an exception.
    They take attributes in the writer's order and nothing else, counts
    as non-negative decimals and timestamps as finite decimals, and only
    ever accept what a tree reading would, with the same result.
    {!Dacs_ws.Service.serve} answers a request body its reader rejects
    with a Sender fault itself, and {!Dacs_ws.Service.serve_cast}, for a
    one-way frame (attribute subscription and invalidation, cache put,
    policy update), drops it and has no reply.

    Content that needs canonical XML keeps its tree codec inside a
    frame: the policy of a policy response or update and the signed
    capability a negotiation grants.  A signed authorisation response
    needs none: its signature covers the bytes written.  The
    authorisation query and response also keep a tree form: adapters
    over the same writer and reader. *)

module Xml = Dacs_xml.Xml

(** {1 Access requests and outcomes (client ↔ PEP)} *)

val write_access_request :
  Buffer.t -> subject:(string * Dacs_policy.Value.t) list -> action:string -> unit
(** The client names itself and the action; the PEP fills in the resource
    it guards and the environment. *)

type access_outcome =
  | Granted of { content : string; encrypted : bool }
  | Denied of string

val write_access_outcome : Buffer.t -> access_outcome -> unit

(** {1 Authorisation decision queries (PEP → PDP)} *)

val write_authz_query : Buffer.t -> Dacs_policy.Context.t -> unit
val authz_query : Dacs_policy.Context.t -> Xml.t
val parse_authz_query : Xml.t -> (Dacs_policy.Context.t, string) result

val write_authz_response : ?epoch:int -> Buffer.t -> Dacs_policy.Decision.result -> unit
(** [epoch] (default 0) is the deciding PDP's compilation epoch; positive
    epochs ride the response as provenance, 0 (unknown) is omitted. *)

val authz_response : ?epoch:int -> Dacs_policy.Decision.result -> Xml.t
val parse_authz_response : Xml.t -> (Dacs_policy.Decision.result, string) result

val write_signed_authz_response :
  ?epoch:int ->
  key:Dacs_crypto.Rsa.private_key ->
  cert:Dacs_crypto.Cert.t ->
  Buffer.t ->
  Dacs_policy.Decision.result ->
  unit
(** Decision response carrying the PDP's certificate and a signature over
    the response's bytes exactly as this writer puts them in the frame —
    §3.2: "enforcement points need to be sure that the authorisation
    decision response comes from their trusted decision point". *)

(** {1 Attributes (PDP ↔ PIP)} *)

val write_attribute_query :
  Buffer.t -> category:Dacs_policy.Context.category -> attribute_id:string -> subject:string -> unit

val write_attribute_result : Buffer.t -> Dacs_policy.Value.bag -> unit

val write_attribute_subscribe : Buffer.t -> unit
(** PDP -> PIP: register the caller for attribute-invalidation pushes.
    Batched attribute queries need no frame of their own: a multi-part
    B/BT envelope whose parts are ordinary {!write_attribute_query}
    bodies is one attribute-resolution round trip. *)

val write_attribute_invalidate : Buffer.t -> subject:string -> attribute_id:string -> unit
(** PIP -> subscribed PDPs: [remove_subject_attribute] happened — drop
    any cached bag for this (subject, attribute). *)

(** {1 Shared decision cache (PEP <-> L2)} *)

val write_cache_lookup : Buffer.t -> key:string -> unit

val write_cache_answer : Buffer.t -> Dacs_policy.Decision.result option -> unit
(** [None] encodes a miss, [Some r] a fresh hit carrying the decision. *)

val write_cache_put : sent_at:float -> Buffer.t -> key:string -> Dacs_policy.Decision.result -> unit
(** [sent_at] stamps the frame with the sender's clock so a receiver
    that purged after this put left the sender can reject it instead of
    resurrecting a stale entry (the put/invalidate race). *)

(** {1 Policy distribution (PDP/PAP, PAP/PAP syndication)} *)

val write_policy_query : Buffer.t -> scope:string -> known_version:int -> unit

val write_policy_response : Buffer.t -> version:int -> Dacs_policy.Policy.child option -> unit
(** [None] means "your version is current". *)

val write_policy_update : Buffer.t -> version:int -> Dacs_policy.Policy.child -> unit

(** {1 Offline event logs (domain ↔ domain log anti-entropy)}

    Frames for the eventually consistent offline mode: each domain keeps
    a hash-linked, HMAC-signed event log, and on heal exchanges log
    suffixes keyed by vector-clock frontiers.  The event is defined here,
    next to its one writer and reader, and {!Offline} re-exports it; the
    chain and signature checks stay with the offline engine. *)

type log_kind =
  | Grant of { subject : string; attr : string; value : string }
  | Revoke of { subject : string; attr : string }
  | Publish of { policy : string }
  | Decide of { key : string; ctx : string; decision : string }

type log_event = {
  author : string;  (** originating domain *)
  seq : int;  (** 1-based position in the author's chain *)
  at : float;  (** author's virtual-clock timestamp *)
  epoch : int;  (** author's offline epoch when appended *)
  frontier : (string * int) list;  (** author's vector clock, self included *)
  kind : log_kind;
  digest : string;  (** chain digest, raw bytes *)
  tag : string;  (** HMAC-SHA256 over the digest, raw bytes *)
}

val write_log_event : Buffer.t -> signed:bool -> log_event -> unit
(** The one definition of the event element: the kind's fields are
    written as [Field] children in a fixed order per kind.  With
    [~signed:false] it leaves out the digest and tag and writes the
    canonical bytes that the hash chain links and the HMAC
    authenticates; both sides must derive them the same way, which is
    why they live here next to the encoding.  Frontier entries are
    written sorted by author. *)

val write_log_sync_request : Buffer.t -> frontier:(string * int) list -> unit
(** Anti-entropy poll: "this is my frontier — send what I lack." *)

val write_log_sync_response : Buffer.t -> log_event list -> unit
(** The suffix the requester lacks, each event written signed.  No
    untagged chain head rides along: anyone able to truncate a segment
    could rewrite it too, so checking it would prove nothing. *)

(** {1 Capabilities and revocation (push model)} *)

val write_capability_request :
  Buffer.t -> subject:(string * Dacs_policy.Value.t) list -> pairs:(string * string) list -> unit
(** [pairs] are (resource, action) the client wants capabilities for;
    the answer is the capability document itself. *)

val write_revocation_check : Buffer.t -> assertion_id:string -> unit
val write_revocation_status : Buffer.t -> revoked:bool -> unit

(** {1 Discovery (component ↔ registry)} *)

val write_register : Buffer.t -> kind:string -> node:Dacs_net.Net.node_id -> unit
(** A component advertises itself under [kind]; the registry accepts
    only self-advertisements. *)

val write_register_ack : Buffer.t -> unit
val write_discover : Buffer.t -> kind:string -> unit

val write_endpoints : Buffer.t -> Dacs_net.Net.node_id list -> unit
(** The live advertisements of a kind, oldest registration first. *)

(** {1 Identity assertions and trust negotiation} *)

val write_attribute_assertion_request : Buffer.t -> subject:string -> unit
(** Asks an IdP for a signed attribute assertion about [subject]; the
    answer is the assertion document itself. *)

val write_negotiate :
  Buffer.t -> resource:string -> action:string -> subject:string -> string list -> unit
(** One negotiation round: the client names the pair it wants and
    itself, and discloses these credentials (by name). *)

type negotiation_step =
  | Issued of Dacs_saml.Assertion.t  (** the requirement is met: a signed capability *)
  | Continue of string list  (** the credentials the server now discloses *)

val write_negotiate_response : Buffer.t -> negotiation_step -> unit

(** {1 Service declarations}

    Every service of this vocabulary, declared once with its name and the
    total readers of its bodies ({!Dacs_ws.Service.call},
    {!Dacs_ws.Service.cast}): its server and its callers name the same
    value, and the types say what each reader returns.  The description
    registry's two live in {!Dacs_ws.Wsdl}. *)

module Services : sig
  type ('q, 'r) call := ('q, 'r) Dacs_ws.Service.call
  type 'q cast := 'q Dacs_ws.Service.cast

  val access : ((string * Dacs_policy.Value.t) list * string, access_outcome) call
  val authz_query : (Dacs_policy.Context.t, Dacs_policy.Decision.result * int) call
  (** A reply is the decision and its epoch, 0 when absent or not a
      decimal count (a pre-epoch peer reports 0). *)

  val authz_query_checked :
    ?trust:Dacs_crypto.Cert.Trust_store.t ->
    Dacs_net.Net.t ->
    (Dacs_policy.Context.t, Dacs_policy.Decision.result * int) call
  (** {!authz_query} as a decision tier reads its answers.  Given
      [trust], only a {!write_signed_authz_response} frame decodes, read
      in one pass, whose certificate the store trusts at the network's
      current instant and whose signature verifies over the response's
      bytes as they arrived (§3.2); a re-serialised response does not. *)

  val attribute_query : (Dacs_policy.Context.category * string * string, Dacs_policy.Value.bag) call
  val attribute_subscribe : unit cast
  val attribute_invalidate : (string * string) cast
  val cache_lookup : (string, Dacs_policy.Decision.result option) call
  val cache_put : (string * Dacs_policy.Decision.result * float) cast
  (** A put with no finite [SentAt] is rejected: no purge orders it. *)

  val policy_query : (string * int, int * Dacs_policy.Policy.child option) call
  val policy_update : (int * Dacs_policy.Policy.child) cast
  val log_sync : ((string * int) list, log_event list) call
  (** Each event is read as {!write_log_event} wrote it, and frontiers
      come back in the order they were written. *)

  val capability_request :
    ((string * Dacs_policy.Value.t) list * (string * string) list, Dacs_saml.Assertion.t * Xml.t) call
  (** A reply is the SAML assertion or X.509 attribute certificate
      itself, with the tree a client presents to the PEP. *)

  val revocation_check : (string, bool) call
  val register : (string * Dacs_net.Net.node_id, unit) call
  val discover : (string, Dacs_net.Net.node_id list) call
  val attribute_assertion : (string, Dacs_saml.Assertion.t) call
  (** A reply is the IdP's signed assertion document itself. *)

  val negotiate : (string * string * string * string list, negotiation_step) call
  (** A request: resource, action, subject, disclosed credentials. *)

  val all : Dacs_ws.Service.declaration list
  (** The sixteen above. *)
end
