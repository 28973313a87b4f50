(** Policy Administration Point: versioned policy store, administrative
    access control, and syndication to subordinate PAPs (Fig. 5).

    Exposes two services on its node:
    - ["policy-query"]: PDPs (and child PAPs) fetch the current policy,
      version-gated so an up-to-date caller gets a small "current" reply;
    - ["policy-update"]: one-way remote administration and syndication
      pushes, accepted only when the PAP's own admin policy permits the
      caller — the paper's "protect the authorisation system with its
      own mechanisms" (§3.2).

    On every accepted change the PAP bumps its version and pushes the new
    policy to subscribers, each in a one-way frame that nothing answers.
    A subscriber accepts it subject to its local transform (domain
    autonomy) and cascades to its own subscribers.
    Subscribers are wired by the PAP's owner ({!subscribe_local}); no
    node can add itself over the network.

    The PAP is the one place a policy change is announced: every
    accepted update — a local {!publish}, a pushed [policy-update] or an
    anti-entropy pull — computes its change-impact region
    ({!Dacs_policy.Delta.between} of the stored trees) once and hands it
    to the {!on_update} hooks, which is where the owner's caches purge. *)

type t

val create :
  Dacs_ws.Service.t ->
  node:Dacs_net.Net.node_id ->
  name:string ->
  ?admin_policy:Dacs_policy.Policy.child ->
  ?root:Dacs_policy.Policy.child ->
  unit ->
  t
(** Without [admin_policy], remote updates are refused (local publishing
    only). *)

val node : t -> Dacs_net.Net.node_id
val version : t -> int
val current : t -> Dacs_policy.Policy.child option

val publish : t -> Dacs_policy.Policy.child -> unit
(** Local administrative action: replace the policy, bump the version,
    push to subscribers, then run the {!on_update} hooks. *)

val on_update : t -> (Dacs_policy.Delta.t -> unit) -> unit
(** Register a hook run with the change-impact region of every accepted
    update, after its pushes to subscribers; hooks run in registration
    order.  The region is {!Dacs_policy.Delta.unbounded} for the first
    policy the PAP stores and {!Dacs_policy.Delta.empty} for a no-op
    update (which still bumps the version), so [not (Delta.is_empty
    region)] says whether the tree changed.  {!Domain} registers its
    cache purge here. *)

val set_admin_policy : t -> Dacs_policy.Policy.child -> unit
(** Replace the PAP's administrative policy — the policy that itself
    controls who may update this PAP's policies. *)

val set_update_transform :
  t -> (Dacs_policy.Policy.child -> Dacs_policy.Policy.child option) -> unit
(** Local autonomy: how an authorised syndicated update (pushed or
    pulled) becomes this PAP's stored policy — e.g. wrap the incoming
    VO-wide policy together with the domain's own rules so local
    restrictions always apply (§3.2).  [None] ignores the update: it is
    not stored or cascaded, and a declined push counts as rejected.  The
    default stores the update as is. *)

val subscribe_local : t -> child:Dacs_net.Net.node_id -> unit
(** Wire a child PAP for pushes. *)

val enable_anti_entropy : t -> parent:Dacs_net.Net.node_id -> period:float -> unit
(** Dependability for syndication: a push lost to the network would
    otherwise leave this PAP stale forever.  Enabling anti-entropy makes
    it poll the parent's ["policy-query"] every [period] seconds and adopt
    any newer version (through the local transform, as a push would).
    Every authorised push records its caller's version, and the polls
    start from [parent]'s, so a policy [parent] pushed — before or after
    anti-entropy was enabled — is not fetched and accepted again; a push
    from [parent] whose version is already known is neither accepted nor
    rejected.  Schedules itself forever — drive such
    simulations with [Net.run ~until:…]. *)

val subscribers : t -> Dacs_net.Net.node_id list

(** {1 Statistics} *)

val queries_served : t -> int
val updates_accepted : t -> int
val updates_rejected : t -> int
