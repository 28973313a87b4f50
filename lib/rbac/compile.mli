(** Compile an RBAC state into policies for the evaluation engine.

    Two encodings, matching the paper's scalability comparison (§3.1):
    attribute/role-based policies whose size grows with the number of
    {e roles}, versus identity-based ACL policies whose size grows with
    the number of {e users}. *)

val to_policy : ?id:string -> Rbac.t -> Dacs_policy.Policy.t
(** Role-based encoding: one permit rule per (role, permission) pair,
    matching requests whose subject ["role"] attribute names a role that
    (directly or by inheritance) grants the permission; a trailing
    deny-all rule.  Uses first-applicable combining. *)

val to_identity_policy : Rbac.t -> Dacs_policy.Policy.t
(** Identity-based (ACL) encoding: one permit rule per (user, permission)
    pair, matching on ["subject-id"].  Exists as the baseline the paper
    argues against for large user bases. *)

val subject_for_user : Rbac.t -> Rbac.user -> (string * Dacs_policy.Value.t) list
(** Subject attributes describing the user (its id and authorised roles),
    ready for {!Dacs_policy.Context.make}. *)
