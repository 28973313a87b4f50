(** History-based meta-policies (§3.1): application-specific constraints
    that static conflict analysis cannot catch.

    Evaluated against the audit history {e after} the ordinary policy
    decision; a meta-policy can only tighten (downgrade Permit to Deny),
    never loosen. Includes the Brewer–Nash Chinese-Wall model the paper
    cites for VO-wide conflict-of-interest control. *)

type coi_class = {
  class_name : string;
  datasets : (string * string list) list;
      (** (dataset name, resources in it); a subject that has touched one
          dataset of a class is walled off from the class's others *)
}

type t =
  | Chinese_wall of coi_class list
  | Dynamic_resource_sod of { name : string; resources : string list; limit : int }
      (** no subject may (over its history) access [limit] or more of
          [resources] *)

val check :
  t -> history:Audit.t -> subject:string -> resource:string -> (unit, string) result
(** [Error reason] when the requested access would violate the
    meta-policy given the subject's permitted-access history. *)
