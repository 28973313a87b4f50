(** Wire vocabulary of the authorisation protocol.

    The XML bodies exchanged between components: access requests,
    authorisation decision queries/responses, attribute queries, policy
    fetches/updates, capability requests and revocation checks.  One
    module so every component agrees on syntax — the interoperability
    requirement of §3.2. *)

module Xml = Dacs_xml.Xml

(** {1 Access requests (client → PEP)} *)

val access_request : subject:(string * Dacs_policy.Value.t) list -> action:string -> Xml.t
(** The client names itself and the action; the PEP fills in the resource
    it guards and the environment. *)

val parse_access_request : Xml.t -> ((string * Dacs_policy.Value.t) list * string, string) result

(** {1 Per-decision frames}

    The frames on every decision's path — authorisation query and
    (unsigned) response, shared-cache lookup, answer and put, attribute
    query and result — each have one direct writer ([write_*], appending
    the body element to the frame being sent with {!Xml.add_escaped}) and
    one pull-cursor reader ([read_*], reading the body element in place
    from its ['<']).  Readers are total: a malformed or misshapen element
    is an [Error], never an exception, and a reader only ever accepts
    what a tree reading would, with the same result (it may reject
    more).  The authorisation query and response also keep a tree form
    ([authz_query], [parse_authz_query], [authz_response],
    [parse_authz_response]): adapters over the same writer and reader,
    where a tree is printed and read, a frame written and parsed.

    The offline log-sync request and response are read and written the
    same way.  Every other frame (policy, capability, revocation, signed
    responses, SOAP headers) keeps its tree codec — they need canonical
    XML or are not per-decision — and rides the same buffer-and-cursor
    transport through {!Dacs_ws.Service}'s tree adapter. *)

(** {2 Authorisation decision queries (PEP → PDP)} *)

val write_authz_query : Buffer.t -> Dacs_policy.Context.t -> unit
val read_authz_query : Xml.Cursor.t -> (Dacs_policy.Context.t, string) result
val authz_query : Dacs_policy.Context.t -> Xml.t
val parse_authz_query : Xml.t -> (Dacs_policy.Context.t, string) result

val write_authz_response : ?epoch:int -> Buffer.t -> Dacs_policy.Decision.result -> unit
(** [epoch] (default 0) is the deciding PDP's compilation epoch; positive
    epochs ride the response as provenance, 0 (unknown) is omitted. *)

val read_authz_response : Xml.Cursor.t -> (Dacs_policy.Decision.result * int, string) result
(** The decision and the epoch it carries — 0 when absent or malformed:
    tolerant by design, so a pre-epoch peer simply reports 0. *)

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
    the canonical response — §3.2: "enforcement points need to be sure
    that the authorisation decision response comes from their trusted
    decision point". *)

val signed_authz_response :
  ?epoch:int ->
  key:Dacs_crypto.Rsa.private_key ->
  cert:Dacs_crypto.Cert.t ->
  Dacs_policy.Decision.result ->
  Xml.t

val verify_signed_authz_response :
  trust:Dacs_crypto.Cert.Trust_store.t ->
  now:float ->
  Xml.t ->
  (Dacs_policy.Decision.result * Dacs_crypto.Cert.t, string) result
(** Accepts only a well-signed response whose certificate is trusted
    (directly or via a one-level chain to a stored root) and valid at
    [now]; returns the decision and the signer. *)

val read_authz_answer :
  ?trust:Dacs_crypto.Cert.Trust_store.t ->
  now:float ->
  Xml.Cursor.t ->
  (Dacs_policy.Decision.result * int, string) result
(** The one decoder for a live decision answer, used by pull PEPs and the
    sharded tier alike: the decision and its epoch.  Without [trust] it
    is {!read_authz_response}; with it only a signed response accepted by
    {!verify_signed_authz_response} decodes — "only authenticated
    decisions are enforceable" (§3.2). *)

(** {2 Attribute queries (PDP → PIP)} *)

val write_attribute_query :
  Buffer.t -> category:Dacs_policy.Context.category -> attribute_id:string -> subject:string -> unit

val read_attribute_query :
  Xml.Cursor.t -> (Dacs_policy.Context.category * string * string, string) result

val write_attribute_result : Buffer.t -> Dacs_policy.Value.bag -> unit
val read_attribute_result : Xml.Cursor.t -> (Dacs_policy.Value.bag, string) result

val attribute_subscribe : unit -> Xml.t
(** PDP -> PIP: register the caller for attribute-invalidation pushes.
    Batched attribute queries need no frame of their own: a multi-part
    B/BT envelope whose parts are ordinary {!write_attribute_query}
    bodies is one attribute-resolution round trip. *)

val parse_attribute_subscribe : Xml.t -> (unit, string) result

val attribute_invalidate : subject:string -> attribute_id:string -> Xml.t
(** PIP -> subscribed PDPs: [remove_subject_attribute] happened — drop
    any cached bag for this (subject, attribute). *)

val parse_attribute_invalidate : Xml.t -> (string * string, string) result

(** {1 Shared decision cache (PEP <-> L2, L2 <-> L2 syndication)} *)

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
(** The key, the decision and the sender's stamp.  A put without a
    numeric [SentAt] is rejected: it cannot be ordered against a purge. *)

val cache_invalidate : epoch:int -> string option -> Xml.t
(** Full purge when the key is [None], single-entry drop otherwise.
    [epoch] is the sender's invalidation-round counter after applying the
    purge, letting receivers deduplicate against anti-entropy polls. *)

val parse_cache_invalidate : Xml.t -> (int * string option, string) result

val cache_region : epoch:int -> Dacs_policy.Delta.t -> Xml.t
(** Targeted purge: the change-impact region of a policy publish, pushed
    down the syndication tree.  [epoch] is the sender's invalidation
    epoch after applying the purge locally, so receivers that get the
    push do not re-purge on their next anti-entropy poll — and receivers
    that miss it do. *)

val parse_cache_region : Xml.t -> (int * Dacs_policy.Delta.t, string) result

val cache_sync : known_epoch:int -> Xml.t
(** Anti-entropy poll: "my view of your invalidation epoch is N". *)

val parse_cache_sync : Xml.t -> (int, string) result

val cache_epoch : epoch:int -> Xml.t
val parse_cache_epoch : Xml.t -> (int, string) result

(** {1 Policy distribution (PDP/PAP, PAP/PAP syndication)} *)

val policy_query : scope:string -> known_version:int -> Xml.t
val parse_policy_query : Xml.t -> (string * int, string) result

val policy_response : version:int -> Dacs_policy.Policy.child option -> Xml.t
(** [None] means "your version is current". *)

val parse_policy_response : Xml.t -> (int * Dacs_policy.Policy.child option, string) result

val policy_update : version:int -> Dacs_policy.Policy.child -> Xml.t
val parse_policy_update : Xml.t -> (int * Dacs_policy.Policy.child, string) result

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

val write_log_sync_response : Buffer.t -> head:string -> log_event list -> unit
(** [head] is the responder's own chain head (raw bytes).  It is carried
    but not yet checked by the requester.  Each event is written
    signed. *)

val read_log_sync_response : Xml.Cursor.t -> (string * log_event list, string) result
(** The head and the events, each read as {!write_log_event} wrote it:
    attributes and the kind's fields in the writer's order, nothing
    else.  Frontiers come back in the order they were written. *)

(** {1 Capabilities (client → capability service, push model)} *)

val capability_request :
  subject:(string * Dacs_policy.Value.t) list -> pairs:(string * string) list -> Xml.t
(** [pairs] are (resource, action) the client wants capabilities for. *)

val parse_capability_request :
  Xml.t -> ((string * Dacs_policy.Value.t) list * (string * string) list, string) result

val revocation_check : assertion_id:string -> Xml.t
val parse_revocation_check : Xml.t -> (string, string) result
val revocation_status : revoked:bool -> Xml.t
val parse_revocation_status : Xml.t -> (bool, string) result

(** {1 Access responses (PEP → client)} *)

val access_granted : ?content:string -> ?encrypted:bool -> unit -> Xml.t
val access_denied : reason:string -> Xml.t

type access_outcome =
  | Granted of { content : string; encrypted : bool }
  | Denied of string

val parse_access_outcome : Xml.t -> (access_outcome, string) result
