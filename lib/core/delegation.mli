(** Administrative delegation across domains (§3.2).

    A registry of delegation grants: authority X delegates policy-making
    over a resource scope to authority Y, optionally re-delegable and
    time-bounded.  Chain validation answers "may this issuer write policy
    for this resource?", and revocation cuts every chain through the
    revoked grant — the tracking problem the paper highlights in
    decentralised administration. *)

type grant = {
  id : string;
  delegator : string;
  delegate : string;
  scope : string;  (** resource-id prefix; [""] covers everything *)
  can_redelegate : bool;
  expires : float;
}

type t

val create : roots:string list -> t
(** [roots] are the authorities trusted unconditionally (e.g. each
    domain's own administrator for its own resources). *)

val grant :
  t ->
  ?can_redelegate:bool ->
  delegator:string ->
  delegate:string ->
  scope:string ->
  now:float ->
  expires:float ->
  unit ->
  (grant, string) result
(** Recorded only when, at time [now], the delegator is a root or holds a
    fully re-delegable chain over [scope]; [can_redelegate] defaults to
    false. *)

val revoke : t -> grant_id:string -> bool
(** [true] when the grant existed. Chains through it are immediately
    invalid. *)

val authority_for : t -> issuer:string -> resource:string -> now:float -> bool
(** Root, or reachable from a root by a chain of unexpired, unrevoked
    grants whose scopes all cover [resource], where every link except the
    last allows re-delegation. *)

