(** Role-based access control (ANSI INCITS 359 flavoured).

    Roles, a role hierarchy (seniors inherit junior permissions),
    user-role and permission-role assignment, and static
    separation-of-duty constraints.  The paper singles out RBAC as the
    model that scales to large multi-domain user bases (§2.2); the
    [Compile] module turns an RBAC state into policies for the engine. *)

type role = string
type user = string

type permission = { action : string; resource : string }

type t

val empty : t

(** {1 Roles and hierarchy} *)

val add_role : t -> role -> t
(** Idempotent. *)

val roles : t -> role list

val add_inheritance : t -> senior:role -> junior:role -> (t, string) result
(** The senior role inherits all the junior's permissions.  Fails on
    unknown roles, self-inheritance, or a cycle. *)

val juniors : t -> role -> role list
(** Transitive juniors (the role itself excluded). *)

(** {1 Assignment} *)

val assign_user : t -> user -> role -> (t, string) result
(** Fails on unknown role or a static separation-of-duty violation,
    checked on authorised roles, so inheritance counts; the error names
    the violated constraint. *)

val authorized_roles : t -> user -> role list
(** Assigned roles plus everything they inherit. *)

val grant_permission : t -> role -> permission -> (t, string) result
val role_permissions : t -> role -> permission list
(** Direct plus inherited permissions. *)

val user_permissions : t -> user -> permission list

val check_access : t -> user -> action:string -> resource:string -> bool

val users : t -> user list

(** {1 Static separation of duty} *)

val add_ssd : t -> name:string -> roles:role list -> cardinality:int -> (t, string) result
(** No user may be authorised for [cardinality] or more of [roles]
    simultaneously.  Fails if an existing assignment already violates the
    new constraint, if [cardinality < 2], or if the constraint names
    fewer roles than its cardinality. *)
