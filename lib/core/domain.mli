(** An administrative domain: the unit of autonomy in Fig. 1.

    Bundles one organisation's certificate authority, identity provider,
    policy administration / information / decision points and any number
    of enforcement points guarding exposed resources.  Node names follow
    the pattern [<domain>.pap], [<domain>.pdp], etc. *)

type t

val create : Dacs_ws.Service.t -> name:string -> unit -> t
(** Creates the component nodes and services.  Keys are generated
    deterministically from a seed derived from the name.

    Registers {!purge} on its PAP ({!Pap.on_update}): every update the
    PAP accepts — a local publish, a syndicated push or an anti-entropy
    pull — purges its change-impact region from the domain's caches. *)

val name : t -> string

val audit : t -> Audit.t

val pap : t -> Pap.t
val pip : t -> Pip.t
val pdp : t -> Pdp_service.t
val idp : t -> Idp.t

(** {1 Policy administration} *)

val set_local_policy : t -> Dacs_policy.Policy.child -> unit
(** Install the domain's own policy and publish it at the domain PAP.
    If a VO-wide policy has been received by syndication, the stored
    root combines both (deny-overrides), so local restrictions always
    apply — the domain autonomy requirement of §3.2.  A syndicated
    update is combined the same way when the PAP accepts it. *)

val allow_policy_updates_from : t -> Dacs_net.Net.node_id list -> unit
(** Regenerate the PAP's admin policy to permit remote [policy-update]
    pushes from the given nodes (the PAP is guarded by the same policy
    machinery as any resource). *)

(** {1 Hierarchical caching} *)

val attach_l2 : t -> ttl:float -> unit -> Cache_hierarchy.L2.t
(** Stand up the domain's shared decision cache on node [<domain>.l2]
    (at most 4096 entries, {!Cache_hierarchy.L2.create}'s default):
    every PEP of the domain (current and future) consults it between its
    private L1 and the decision tier, and {!purge} purges it.
    Idempotent: a second call returns the existing cache. *)

val purge : t -> Dacs_policy.Delta.t -> unit
(** The domain's one cache purge: drop the region from the L2 when one
    is attached, then from the private L1 of every PEP made by
    {!expose_resource}, so no cache level outlives a revocation or a
    publish.  A PEP built outside the domain is not purged. *)

(** {1 Users and resources} *)

val register_user : t -> user:string -> (string * Dacs_policy.Value.t) list -> unit
(** Registers the user at the IdP and mirrors the attributes into the
    domain PIP (so PDPs can pull them). *)

val expose_resource :
  t ->
  resource:string ->
  ?content:string ->
  ?cache:Decision_cache.t ->
  unit ->
  Pep.t
(** A pull-mode PEP on node [<domain>.pep.<resource>] over an ordered
    tier ({!Pdp_tier.ordered}) of the domain PDP alone, with a 1 s call
    timeout. *)

val peps : t -> Pep.t list
