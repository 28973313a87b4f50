(** Policy expression language: the XACML condition/apply subset.

    Expressions evaluate to attribute bags.  Functions follow the XACML
    core function set: per-type equality, ordering, arithmetic, logic,
    string operations (including regular-expression match), bag and set
    functions, and the higher-order combinators ([any-of], [all-of],
    [map], …).  Atomic functions require singleton bags, as in the
    standard — reduce designator bags with [<type>-one-and-only] first. *)

type designator = {
  category : Context.category;
  attribute_id : string;
  must_be_present : bool;
      (** When true, an empty bag is a [`Missing_attribute] error (maps to
          Indeterminate); when false it is simply an empty bag. *)
}

type t =
  | Const of Value.t
  | Designator of designator
  | Apply of string * t list  (** function name, arguments *)
  | Function_ref of string
      (** A function passed as an argument to a higher-order function. *)
  | Variable_ref of string
      (** Reference to a policy-level variable definition; must be
          substituted (see {!substitute}) before evaluation. *)

(** {1 Errors} *)

type error_code = Missing_attribute | Processing | Syntax

type error = { code : error_code; message : string }

val error_to_string : error -> string

(** {1 Evaluation} *)

type resolver = Context.category -> string -> Value.bag option
(** PIP hook: consulted when the request context has no values for a
    designator.  [None] means the resolver cannot supply the attribute
    either. *)

val eval_condition : ?resolve:resolver -> Context.t -> t -> (bool, error) result
(** The expression must produce exactly one boolean. *)

(** {1 The function registry} *)

type matcher
(** A binary boolean function usable in target matches, resolved once
    from the registry.  A plain value: a target holding one still
    compares and hashes structurally. *)

val matcher : string -> matcher option
(** [None] when no registered function has the name. *)

val apply_match : matcher -> Value.t -> Value.t -> (bool, error) result
(** [apply_match m value attr].  [string-equal] on two strings answers
    without allocating; everything else runs the registry
    implementation, with its error messages. *)

(** {1 Variables} *)

val substitute : (string -> t option) -> t -> (t, string) result
(** Replace every {!Variable_ref} using the lookup; [Error] names the
    first unresolvable variable.  The lookup's results are substituted
    recursively, so definitions may reference other variables (cycles are
    the caller's responsibility — see {!Validate.check_policy}). *)

val variable_refs : t -> string list
(** Distinct referenced variable names. *)

(** {1 Static validation} *)

val validate : t -> string list
(** Structural problems: unknown function names, wrong arities, misplaced
    function references.  Empty list = clean. *)

(** {1 Convenience constructors} *)

val subject_attr : string -> t

val one_of : t -> string list -> t
(** [one_of designator values]: true when some attribute value equals one
    of the given strings ([any-of] over [string-equal]). *)
