(** Policy Administration Point: versioned policy store, administrative
    access control, and syndication to subordinate PAPs (Fig. 5).

    Exposes two services on its node:
    - ["policy-query"]: PDPs (and child PAPs) fetch the current policy,
      version-gated so an up-to-date caller gets a small "current" reply;
    - ["policy-update"]: remote administration and syndication pushes,
      allowed only when the PAP's own admin policy permits the caller —
      the paper's "protect the authorisation system with its own
      mechanisms" (§3.2).

    On every accepted change the PAP bumps its version and pushes the new
    policy to subscribers, which accept it subject to their local filter
    (domain autonomy) and cascade to their own subscribers.  Subscribers
    are wired by the PAP's owner ({!subscribe_local}); no node can add
    itself over the network. *)

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

val compilation_epoch : t -> int
(** Epoch of the compiled policy; 0 when no policy is stored.  Bumped by every
    accepted update that changed the tree, preserved by no-op
    publishes. *)

val publish : t -> Dacs_policy.Policy.child -> unit
(** Local administrative action: replace the policy, bump the version,
    push to subscribers.  Also computes the change-impact region of the
    publish (see {!Delta.between}) — available as {!last_region}, which
    the invalidation plane reads to purge only affected cache entries. *)

val last_region : t -> Dacs_policy.Delta.t
(** The change-impact region of the most recent accepted update
    (local {!publish}, remote [policy-update], or anti-entropy pull);
    {!Delta.empty} before the first one. *)

val lookup : t -> string -> Dacs_policy.Policy.child option
(** Resolve a policy id inside the stored tree (for policy references):
    the root itself or a direct child of a root set. *)

val set_admin_policy : t -> Dacs_policy.Policy.child -> unit
(** Replace the PAP's administrative policy — the policy that itself
    controls who may update this PAP's policies. *)

val set_update_filter : t -> (Dacs_policy.Policy.child -> bool) -> unit
(** Local-autonomy constraint: syndicated updates failing the filter are
    ignored (and not cascaded). *)

val set_update_transform : t -> (Dacs_policy.Policy.child -> Dacs_policy.Policy.child) -> unit
(** Local-autonomy merge: how an accepted remote update becomes this PAP's
    stored policy — e.g. wrap the incoming VO-wide policy together with
    the domain's own rules so local restrictions always apply (§3.2). The
    default is identity. *)

val subscribe_local : t -> child:Dacs_net.Net.node_id -> unit
(** Wire a child PAP for pushes. *)

val enable_anti_entropy : t -> parent:Dacs_net.Net.node_id -> period:float -> unit
(** Dependability for syndication: a push lost to the network would
    otherwise leave this PAP stale forever.  Enabling anti-entropy makes
    it poll the parent's ["policy-query"] every [period] seconds and adopt
    any newer version (through the local filter and transform, as a push
    would).  A push from [parent] moves the version the polls report as
    known, so a pushed policy is not fetched and accepted again, and a
    push whose version is already known is acknowledged without being
    accepted.  Schedules itself forever — drive such simulations with
    [Net.run ~until:…]. *)

val subscribers : t -> Dacs_net.Net.node_id list

(** {1 Statistics} *)

val queries_served : t -> int
val updates_accepted : t -> int
val updates_rejected : t -> int
