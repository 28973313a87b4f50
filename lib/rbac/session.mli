(** RBAC sessions: per-interaction role activation with dynamic
    separation of duty.

    A user activates a subset of their authorised roles; DSD constraints
    bound which roles may be active {e simultaneously} — the runtime
    counterpart of the static checks in {!Rbac}. *)

type t

val create : Rbac.t -> Rbac.user -> t
(** A session with no active roles. *)

val active_roles : t -> Rbac.role list

val activate : Rbac.t -> t -> Rbac.role -> (t, string) result
(** Fails when the user is not authorised for the role or activation
    would violate a DSD constraint (inherited roles count as active). *)

val deactivate : t -> Rbac.role -> t

val check_access : Rbac.t -> t -> action:string -> resource:string -> bool
