(** Rule- and policy-combining algorithms.

    The conflict-resolution machinery the paper leans on (§3.1): when
    several rules or policies apply to one request with contradicting
    outcomes, the combining algorithm decides.  The six standard XACML
    algorithms are provided. *)

type algorithm =
  | Deny_overrides
  | Permit_overrides
  | First_applicable
  | Only_one_applicable  (** policy combining only *)
  | Ordered_deny_overrides
  | Ordered_permit_overrides

val name : algorithm -> string
val of_name : string -> algorithm option
val all : algorithm list

type ('env, 'parent, 'cursor) children = {
  first : Context.t -> 'parent -> 'cursor;  (** the cursor at the first child *)
  next : Context.t -> 'parent -> 'cursor -> 'cursor;
  finished : 'cursor -> bool;  (** past the last child *)
  label : 'parent -> 'cursor -> string;
      (** the child's name in an Indeterminate message (["rule r1"],
          ["policy p"]); called only when such a message is built *)
  applicability : 'env -> Context.t -> 'parent -> 'cursor -> Target.outcome;
      (** target-only check, used by [Only_one_applicable] *)
  evaluate : 'env -> Context.t -> 'parent -> 'cursor -> Decision.result;
}
(** How to walk one parent's children, in document order.  A cursor
    names a child (a list tail, an array position); ['env] is what
    evaluating a child reads besides the context (the resolvers).  A
    value of this type is built once per kind of parent, from top-level
    functions, so combining builds no per-child record, closure or
    label. *)

val combine :
  algorithm -> ('env, 'parent, 'cursor) children -> 'env -> Context.t -> 'parent -> Decision.result
(** [combine algorithm children env ctx parent].  Children are evaluated
    lazily, in order, with short-circuiting where the algorithm allows
    it.  Obligations of children whose decision matches the combined
    decision are propagated upward, in document order.  Nothing is
    allocated beyond what the children allocate, except the combined
    result when obligations from several children are merged, and the
    message of an Indeterminate.

    Semantics (XACML 2.0):
    - deny-overrides: any Deny wins; an Indeterminate is treated as a
      potential Deny; otherwise any Permit wins.
    - permit-overrides: any Permit wins; otherwise Indeterminate
      propagates; otherwise any Deny wins.
    - first-applicable: the first child that is not NotApplicable decides.
    - only-one-applicable: more than one applicable child is an error.
    - ordered-* : identical to the unordered forms here, since children
      are always evaluated in document order. *)
