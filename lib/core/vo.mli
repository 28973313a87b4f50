(** Virtual Organisation: domains collaborating under shared trust and a
    syndicated VO-wide policy (Fig. 1 + Fig. 5).

    Forming a VO wires the cross-domain trust fabric (every domain's PEPs
    can validate assertions from every member's IdP and the VO capability
    service), stands up a VO-level PAP at the top of the syndication
    hierarchy, and runs a VO capability service for push-model access. *)

type t

val form : Dacs_ws.Service.t -> name:string -> Domain.t list -> t
(** Creates nodes [<name>.pap] and [<name>.cas], subscribes every member
    PAP to the VO PAP, and authorises the VO PAP as a policy updater at
    each member.  Registers the VO-root cache purge on the VO PAP
    ({!Pap.on_update}): once {!cache_hierarchy} is attached, every
    update the VO PAP accepts syndicates its change-impact region down
    the L2 tree. *)

val name : t -> string
val services : t -> Dacs_ws.Service.t
val domains : t -> Domain.t list
val find_domain : t -> string -> Domain.t option

val vo_pap : t -> Pap.t
val capability_service : t -> Capability_service.t

val publish_policy : t -> Dacs_policy.Policy.child -> unit
(** Install the policy as the capability service's decision basis and
    publish it at the VO PAP; syndication pushes it to every member,
    where it is combined with the member's local policy and the
    member's caches purge by region (see {!Domain.create}).  With
    {!cache_hierarchy} attached, the VO-root purge registered by {!form}
    also sends the region down the L2 tree (an unbounded region is the
    VO-wide flush; the anti-entropy epoch poll backstops lost region
    pushes). *)

val issuer_key : t -> string -> Dacs_crypto.Rsa.public_key option
(** Trust lookup across the VO: IdP issuers of every member plus the VO
    capability service. *)

val merged_audit : t -> Audit.t
(** Consolidated, time-ordered audit view across all member domains
    (§3.2 management). *)

(** {1 Hierarchical caching} *)

val cache_hierarchy : t -> ttl:float -> unit -> Cache_hierarchy.L2.t
(** The caching mirror of policy syndication (Fig. 5): stands up a
    VO-root cache node [<name>.l2], attaches every member domain's
    shared L2 (creating them as needed, see {!Domain.attach_l2}) as its
    children, and enables each domain's anti-entropy poll against the
    root every 5 virtual seconds.  Every level holds at most 4096
    entries, {!Cache_hierarchy.L2.create}'s default.
    Purges push root → domain → PEP L1 along the same edges policy
    updates flow, and each domain L2 accepts them only from the root;
    the poll bounds a lost push's staleness by one period.
    Idempotent. *)

val revoke_capability : t -> assertion_id:string -> unit
(** Revoke at the capability service {e and} purge the unbounded region
    from the cache-hierarchy root (when one exists), so no cache level in
    any member domain keeps serving decisions influenced by the revoked
    grant. *)

val client_for :
  t -> domain:Domain.t -> user:string -> (string * Dacs_policy.Value.t) list -> Client.t
(** Create a client node [<domain>.client.<user>] with the given subject
    attributes and register the user in its home domain. *)
