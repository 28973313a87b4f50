(** Authorisation decisions and evaluation results. *)

type t =
  | Permit
  | Deny
  | Not_applicable
  | Indeterminate of string  (** carries the underlying error message *)

type result = {
  decision : t;
  obligations : Obligation.t list;
      (** to be fulfilled by the PEP, already filtered by effect *)
}

val permit : result
val deny : result
val not_applicable : result
val indeterminate : string -> result

val with_obligations : result -> Obligation.t list -> result
(** Append obligations applicable to the result's decision; the result
    itself, uncopied, when none apply. *)

val is_permit : result -> bool
val is_deny : result -> bool

val decision_to_string : t -> string
val decision_of_string : string -> t option
(** Inverse of {!decision_to_string} on the four decision words
    (Indeterminate parses with an empty message). *)

val equal_decision : t -> t -> bool
(** Indeterminate compares equal regardless of message. *)

val pp : Format.formatter -> result -> unit
