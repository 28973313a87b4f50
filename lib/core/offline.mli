(** Offline authorization replica: the eventually consistent mode.

    A partitioned domain should not have to choose between serving stale
    cache entries and failing closed (§3.2 autonomy vs. communication).
    This module gives each domain an ECAC-style replica: a hash-linked,
    HMAC-signed event log of grants, revocations, policy publications
    and offline decisions, from which a PEP can keep deciding while cut
    off — the new [offline] rung of the {!Pep} ladder, below
    bounded-stale and above fail-closed.

    {2 Log format}

    Events are per-author chains: author [d]'s event [seq = n] carries
    [digest_n = SHA-256(digest_{n-1} || canonical_bytes_n)] (from
    {!Dacs_crypto.Chain}) and an HMAC-SHA256 tag over the digest under
    the mesh key.  The event is {!Wire.log_event}, re-exported here: one
    typed value from append to wire.  Canonical bytes are what
    {!Wire.write_log_link} writes from it — an injective compact form:
    a kind byte, length-prefixed strings, delimited integers, [at] as
    its 8 IEEE bits and the frontier sorted by author — written into a
    buffer the replica reuses, so every replica recomputes identical
    digests.  Log-sync frames carry each event as an element, digest and
    tag included.  Each event
    also carries the author's vector-clock frontier (highest seq seen
    per author, self included) — the causality needed by deny-wins.

    {2 Replay order and deny-wins}

    Reconciliation merges logs and replays {e all} known events in the
    deterministic total order [(at, author, seq)].  A grant of
    [(subject, attr)] survives iff it causally follows every known
    revocation of that key — its frontier covers each revoke's
    [(author, seq)].  A revocation therefore retroactively defeats any
    grant made concurrently (in another partition component): deny wins
    whenever neither side knew of the other, and each such race is
    surfaced as a {!conflict} and counted.  Among surviving
    grants of one key, the latest in total order supplies the value; the
    latest publication in total order supplies the policy.  Offline
    [Decide] events contradicted by the converged state are counted as
    invalidations, each once.

    {2 Evaluation}

    The adopted policy is held as a {!Dacs_policy.Compiled.t} — the live
    PDP's evaluator — compiled on adoption, or recompiled against the
    previous replay's value so unchanged leaves are reused; bytes equal
    to the adopted ones reuse it as is.  {!decide} and replay's
    re-check of a [Decide] both run {!Dacs_policy.Compiled.evaluate}.
    Replay re-checks the request {e as logged}: the [ctx] field holds
    the served context in {!Dacs_policy.Context.write_compact}'s form,
    which reads back to exactly that context, Double and Time values
    included.

    {2 Incremental re-checks}

    Replay re-evaluates a not-yet-fired [Decide] only when a merge could
    flip it: its frontier names an event this replica lacks, or the
    Grant/Revoke/Publish events its frontier covers derive other grants
    or other adopted policy bytes than the converged state.  Otherwise
    the re-check would repeat the author's own evaluation and return the
    logged answer.

    {2 Cost}

    A replica keeps each author's chain in seq order.  Replay merges
    those chains into the total order, sorting only the chain of an
    author whose clock stepped back, and a Decide it need not re-check
    costs a lookup of its frontier's cut, with nothing allocated.
    Admission walks each author's fresh events once in seq order.  Each
    of them is re-written in its canonical form into one reused buffer,
    chain-hashed there and HMAC-checked, and allocates only three
    digests (the link, the tag's inner hash, the tag).  A
    benchmark-shaped Decide is about 140 canonical bytes, so its link
    hashes 3 SHA-256 blocks and its tag 2, at append and again at
    admission. *)

type kind = Wire.log_kind =
  | Grant of { subject : string; attr : string; value : string }
  | Revoke of { subject : string; attr : string }
  | Publish of { policy : string }
      (** a {!Dacs_policy.Policy.child} via {!Dacs_policy.Xacml_xml.child_to_string} *)
  | Decide of { key : string; ctx : string; decision : string }
      (** [key] is the {!Decision_cache.request_key}; [ctx] the request
          context in {!Dacs_policy.Context.write_compact}'s form, kept so
          replay can re-evaluate the exact request under the converged
          state *)

type event = Wire.log_event = {
  author : string;
  seq : int;  (** 1-based position in the author's chain *)
  at : float;
  epoch : int;  (** author's offline epoch when the event was appended *)
  frontier : (string * int) list;  (** sorted by author, self included *)
  kind : kind;
  digest : string;  (** chain digest (raw bytes) *)
  tag : string;  (** HMAC-SHA256 over [digest] (raw bytes) *)
}

(** Why a sync segment was rejected — each tamper class gets its own
    error, and a rejected segment is never partially admitted. *)
type sync_error =
  | Gap of { author : string; expected : int; got : int }
      (** non-contiguous seq: truncated or re-spliced log *)
  | Chain_mismatch of { author : string; seq : int }
      (** recomputed chain digest differs: mutation or reordering *)
  | Bad_signature of { author : string; seq : int }
      (** HMAC verification failed: wrong key or forged digest *)

val sync_error_to_string : sync_error -> string

type conflict = {
  c_subject : string;
  c_attr : string;
  c_grant_author : string;
  c_revoke_author : string;
  c_at : float;  (** the losing grant's timestamp *)
}

type stats = {
  events_logged : int;  (** events this replica authored *)
  events_known : int;  (** across all authors, after merges *)
  replays : int;  (** full deterministic replays performed *)
  replayed_events : int;  (** cumulative events folded by those replays *)
  rechecked : int;  (** cumulative Decide events those replays re-evaluated *)
  invalidations : int;  (** Decide events contradicted by replay *)
  conflicts : int;  (** concurrent grant/revoke races, deny won *)
  sync_rejections : int;  (** segments refused (gap/chain/signature) *)
  offline_decides : int;  (** decisions served from the local log *)
}

type t

val create :
  ?metrics:Dacs_telemetry.Metrics.t ->
  ?now:(unit -> float) ->
  key:string ->
  author:string ->
  unit ->
  t
(** [key] is the mesh-wide HMAC key (shared by every replica that may
    sync); [author] names this replica's chain — use the domain name.
    Every {!stats} field but [events_known],
    [replayed_events] and [rechecked] is counted in
    [offline_*_total{domain=author}] series of [metrics], or of a
    private registry when [metrics] is absent.  Series are shared by
    name and labels, so replicas counting into one registry need
    distinct authors. *)

val epoch : t -> int
(** Offline episodes survived: bumped each time {!set_offline} turns the
    replica offline.  Stamped on events and offline provenance. *)

val set_offline : t -> bool -> unit

val frontier : t -> (string * int) list
(** Highest seq known per author, sorted by author. *)

val events : t -> event list
(** Every known event in the deterministic total order [(at, author, seq)]:
    the per-author chains merged. *)

val stats : t -> stats
(** A read over this replica's registry series; [sync_rejections] sums
    [offline_sync_rejections_total] over its reasons. *)

(** {1 Writing the log} *)

val grant : t -> subject:string -> attr:string -> value:string -> unit
val revoke : t -> subject:string -> attr:string -> unit

val publish : t -> Dacs_policy.Policy.child -> unit
(** Log (and adopt) a policy for offline evaluation. *)

(** {1 Offline decisions} *)

val decide : t -> Dacs_policy.Context.t -> (Dacs_policy.Decision.result * string) option
(** Decide from local knowledge: evaluate the latest locally known
    policy (compiled) against the context, with surviving offline grants merged in
    for attribute bags the request left empty.  [None] when there is no
    local basis to answer — no policy published, or the evaluation is
    Indeterminate (an Indeterminate is {e never} logged, so it can never
    replay into a grant).  On [Some (result, head)] a [Decide] event has
    been appended and [head] is the {!Dacs_crypto.Chain.short} form of
    {!head} at decision time, for the
    provenance record. *)

(** {1 Sync and replay} *)

val missing_for : t -> frontier:(string * int) list -> event list
(** The suffix a peer with [frontier] lacks: author by author in name
    order, each author's events oldest first. *)

val admit : t -> event list -> (int, sync_error) result
(** Verify and ingest a peer's segment: per-author contiguity, each
    author's fresh events in seq order as {!missing_for} exports them
    (else {!Gap}), chain recomputation from the locally known head (else
    {!Chain_mismatch}), HMAC check (else {!Bad_signature}).  Any failure
    rejects the {e whole} segment — nothing is admitted, the local log
    is untouched, and the rejection metric increments.  On success all
    events are appended and a full deterministic replay reconverges the
    derived state; returns the number of newly admitted events. *)

val sync_pair : t -> t -> (int, sync_error) result
(** In-process bidirectional exchange (tests, bench): each side admits
    what the other has.  First error wins; [Ok n] is the total number of
    events that moved. *)

val state_digest : t -> string
(** Hex digest of the canonical rendering of the converged authorization
    state (surviving grants, adopted policy, conflicts).  Two replicas
    that know the same event set produce byte-identical digests — the
    convergence check the model suite gates on. *)

val surviving_grants : t -> (string * string * string) list
(** [(subject, attr, value)] after deny-wins replay, sorted. *)

val conflicts : t -> conflict list

(** {1 RPC sync (Wire log-sync frames)}

    The same exchange as {!sync_pair}, over the simulated network.  Both
    frames are written straight into the RPC frame and read in place
    by the readers of {!Wire.Services.log_sync}.
    [dacs offline], E21 and the end-to-end benchmark sync in process
    instead. *)

val serve : t -> Dacs_ws.Service.t -> node:Dacs_net.Net.node_id -> unit
(** Answer log-sync requests on [node] with the suffix the caller lacks.
    Inbound frames never mutate this replica. *)

val sync_rpc :
  t ->
  Dacs_ws.Service.t ->
  src:Dacs_net.Net.node_id ->
  dst:Dacs_net.Net.node_id ->
  ((int, string) result -> unit) ->
  unit
(** One anti-entropy round against a peer's {!serve} endpoint: send our
    frontier, admit the returned suffix.  Transport failures, unreadable
    responses and rejected segments surface as [Error].  The response
    carries no chain head: an untagged head proves nothing that the
    per-event tags do not. *)
