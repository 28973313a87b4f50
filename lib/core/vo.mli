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
    each member. *)

val name : t -> string
val services : t -> Dacs_ws.Service.t
val domains : t -> Domain.t list

val vo_pap : t -> Pap.t
val capability_service : t -> Capability_service.t

val publish_policy : t -> Dacs_policy.Policy.child -> unit
(** Install the policy as the capability service's decision basis and
    publish it at the VO PAP; syndication pushes it to every member,
    where it is combined with the member's local policy and the
    member's caches purge by region (see {!Domain.create}), once per
    member.  With {!cache_hierarchy} attached, a member that misses the
    push pulls the policy within one anti-entropy period, and purges
    the same way when it accepts it. *)

val issuer_key : t -> string -> Dacs_crypto.Rsa.public_key option
(** Trust lookup across the VO: IdP issuers of every member plus the VO
    capability service. *)

val merged_audit : t -> Audit.t
(** Consolidated, time-ordered audit view across all member domains
    (§3.2 management). *)

(** {1 Hierarchical caching} *)

val cache_hierarchy : t -> ttl:float -> unit -> unit
(** The caching mirror of policy syndication (Fig. 5): attaches every
    member domain's shared L2 (creating them as needed, see
    {!Domain.attach_l2}; at most 4096 entries each,
    {!Cache_hierarchy.L2.create}'s default) and starts each member PAP's
    anti-entropy pull ({!Pap.enable_anti_entropy}) against the VO PAP
    every 5 virtual seconds.  Policy reaches a member by push, or by
    that pull when the push is lost, and either way the member purges
    its own caches when its PAP accepts it ({!Domain.purge}); the pull
    bounds a lost push's staleness, of the policy and of the caches, by
    one period.  Idempotent. *)

val revoke_capability : t -> assertion_id:string -> unit
(** Revoke at the capability service {e and} purge the unbounded region
    from every member domain ({!Domain.purge}), so no cache level in any
    member keeps serving decisions influenced by the revoked grant. *)

val client_for :
  t -> domain:Domain.t -> user:string -> (string * Dacs_policy.Value.t) list -> Client.t
(** Create a client node [<domain>.client.<user>] with the given subject
    attributes and register the user in its home domain. *)
