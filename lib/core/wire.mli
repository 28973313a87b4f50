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
    element to the frame being sent) and one pull-cursor reader
    ([read_*], reading the body element in place from its ['<']).
    Readers are total: a malformed or misshapen element is an [Error],
    never an exception.  They take attributes in the writer's order and
    nothing else, counts as non-negative decimals and timestamps as
    finite decimals, and only ever accept what a tree reading would,
    with the same result.  A service hands its reader to
    {!Dacs_ws.Service.serve_frame}, which answers a rejected body with a
    Sender fault itself.

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

val read_access_request :
  Xml.Cursor.t -> ((string * Dacs_policy.Value.t) list * string, string) result

type access_outcome =
  | Granted of { content : string; encrypted : bool }
  | Denied of string

val write_access_outcome : Buffer.t -> access_outcome -> unit
val read_access_outcome : Xml.Cursor.t -> (access_outcome, string) result

(** {1 Authorisation decision queries (PEP → PDP)} *)

val write_authz_query : Buffer.t -> Dacs_policy.Context.t -> unit
val read_authz_query : Xml.Cursor.t -> (Dacs_policy.Context.t, string) result
val authz_query : Dacs_policy.Context.t -> Xml.t
val parse_authz_query : Xml.t -> (Dacs_policy.Context.t, string) result

val write_authz_response : ?epoch:int -> Buffer.t -> Dacs_policy.Decision.result -> unit
(** [epoch] (default 0) is the deciding PDP's compilation epoch; positive
    epochs ride the response as provenance, 0 (unknown) is omitted. *)

val read_authz_response : Xml.Cursor.t -> (Dacs_policy.Decision.result * int, string) result
(** The decision and the epoch it carries — 0 when absent or not a
    decimal count: tolerant by design, so a pre-epoch peer simply
    reports 0.  Its attributes may come in any order. *)

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

val read_authz_answer :
  ?trust:Dacs_crypto.Cert.Trust_store.t ->
  now:float ->
  Xml.Cursor.t ->
  (Dacs_policy.Decision.result * int, string) result
(** The one decoder for a live decision answer: the decision and its
    epoch.  Without [trust] it
    is {!read_authz_response}; with it only a
    {!write_signed_authz_response} frame decodes, read in one pass in the
    writer's order, whose certificate
    {!Dacs_crypto.Cert.Trust_store.trusts} accepts at [now] and whose
    signature verifies over the response's bytes as they arrived — "only
    authenticated decisions are enforceable" (§3.2).  A re-serialised
    response, even one with the same canonical form, does not verify. *)

(** {1 Attributes (PDP ↔ PIP)} *)

val write_attribute_query :
  Buffer.t -> category:Dacs_policy.Context.category -> attribute_id:string -> subject:string -> unit

val read_attribute_query :
  Xml.Cursor.t -> (Dacs_policy.Context.category * string * string, string) result

val write_attribute_result : Buffer.t -> Dacs_policy.Value.bag -> unit
val read_attribute_result : Xml.Cursor.t -> (Dacs_policy.Value.bag, string) result

val write_attribute_subscribe : Buffer.t -> unit
(** PDP -> PIP: register the caller for attribute-invalidation pushes.
    Batched attribute queries need no frame of their own: a multi-part
    B/BT envelope whose parts are ordinary {!write_attribute_query}
    bodies is one attribute-resolution round trip. *)

val read_attribute_subscribe : Xml.Cursor.t -> (unit, string) result

val write_subscribe_ack : Buffer.t -> unit
val read_subscribe_ack : Xml.Cursor.t -> (unit, string) result

val write_attribute_invalidate : Buffer.t -> subject:string -> attribute_id:string -> unit
(** PIP -> subscribed PDPs: [remove_subject_attribute] happened — drop
    any cached bag for this (subject, attribute). *)

val read_attribute_invalidate : Xml.Cursor.t -> (string * string, string) result
val write_invalidate_ack : Buffer.t -> unit
val read_invalidate_ack : Xml.Cursor.t -> (unit, string) result

(** {1 Shared decision cache (PEP <-> L2)} *)

val write_cache_lookup : Buffer.t -> key:string -> unit
val read_cache_lookup : Xml.Cursor.t -> (string, string) result

val write_cache_answer : Buffer.t -> Dacs_policy.Decision.result option -> unit
(** [None] encodes a miss, [Some r] a fresh hit carrying the decision. *)

val read_cache_answer : Xml.Cursor.t -> (Dacs_policy.Decision.result option, string) result

val write_cache_put : sent_at:float -> Buffer.t -> key:string -> Dacs_policy.Decision.result -> unit
(** [sent_at] stamps the frame with the sender's clock so a receiver
    that purged after this put left the sender can reject it instead of
    resurrecting a stale entry (the put/invalidate race). *)

val read_cache_put :
  Xml.Cursor.t -> (string * Dacs_policy.Decision.result * float, string) result
(** The key, the decision and the sender's stamp.  A put whose [SentAt]
    is absent or not a finite decimal is rejected: it cannot be ordered
    against a purge. *)

val write_cache_put_ack : Buffer.t -> unit
val read_cache_put_ack : Xml.Cursor.t -> (unit, string) result

(** {1 Policy distribution (PDP/PAP, PAP/PAP syndication)} *)

val write_policy_query : Buffer.t -> scope:string -> known_version:int -> unit
val read_policy_query : Xml.Cursor.t -> (string * int, string) result

val write_policy_response : Buffer.t -> version:int -> Dacs_policy.Policy.child option -> unit
(** [None] means "your version is current". *)

val read_policy_response : Xml.Cursor.t -> (int * Dacs_policy.Policy.child option, string) result
val write_policy_update : Buffer.t -> version:int -> Dacs_policy.Policy.child -> unit
val read_policy_update : Xml.Cursor.t -> (int * Dacs_policy.Policy.child, string) result

val write_policy_update_ack : Buffer.t -> version:int -> unit
val read_policy_update_ack : Xml.Cursor.t -> (int, string) result

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

val read_log_sync_request : Xml.Cursor.t -> ((string * int) list, string) result

val write_log_sync_response : Buffer.t -> log_event list -> unit
(** The suffix the requester lacks, each event written signed.  No
    untagged chain head rides along: anyone able to truncate a segment
    could rewrite it too, so checking it would prove nothing. *)

val read_log_sync_response : Xml.Cursor.t -> (log_event list, string) result
(** The events, each read as {!write_log_event} wrote it:
    attributes and the kind's fields in the writer's order, nothing
    else.  Frontiers come back in the order they were written. *)

(** {1 Capabilities and revocation (push model)} *)

val write_capability_request :
  Buffer.t -> subject:(string * Dacs_policy.Value.t) list -> pairs:(string * string) list -> unit
(** [pairs] are (resource, action) the client wants capabilities for;
    the answer is the capability document itself. *)

val read_capability_request :
  Xml.Cursor.t -> ((string * Dacs_policy.Value.t) list * (string * string) list, string) result

val write_revocation_check : Buffer.t -> assertion_id:string -> unit
val read_revocation_check : Xml.Cursor.t -> (string, string) result
val write_revocation_status : Buffer.t -> revoked:bool -> unit
val read_revocation_status : Xml.Cursor.t -> (bool, string) result

(** {1 Discovery (component ↔ registry)} *)

val write_register : Buffer.t -> kind:string -> node:Dacs_net.Net.node_id -> unit
(** A component advertises itself under [kind]; the registry accepts
    only self-advertisements. *)

val read_register : Xml.Cursor.t -> (string * Dacs_net.Net.node_id, string) result
val write_register_ack : Buffer.t -> unit
val read_register_ack : Xml.Cursor.t -> (unit, string) result
val write_discover : Buffer.t -> kind:string -> unit
val read_discover : Xml.Cursor.t -> (string, string) result

val write_endpoints : Buffer.t -> Dacs_net.Net.node_id list -> unit
(** The live advertisements of a kind, oldest registration first. *)

val read_endpoints : Xml.Cursor.t -> (Dacs_net.Net.node_id list, string) result

(** {1 Identity assertions and trust negotiation} *)

val write_attribute_assertion_request : Buffer.t -> subject:string -> unit
(** Asks an IdP for a signed attribute assertion about [subject]; the
    answer is the assertion document itself. *)

val read_attribute_assertion_request : Xml.Cursor.t -> (string, string) result

val write_negotiate :
  Buffer.t -> resource:string -> action:string -> subject:string -> string list -> unit
(** One negotiation round: the client names the pair it wants and
    itself, and discloses these credentials (by name). *)

val read_negotiate : Xml.Cursor.t -> (string * string * string * string list, string) result
(** The resource, action, subject and disclosed credentials. *)

type negotiation_step =
  | Issued of Dacs_saml.Assertion.t  (** the requirement is met: a signed capability *)
  | Continue of string list  (** the credentials the server now discloses *)

val write_negotiate_response : Buffer.t -> negotiation_step -> unit
val read_negotiate_response : Xml.Cursor.t -> (negotiation_step, string) result
