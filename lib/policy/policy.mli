(** Policies and policy sets.

    A policy groups rules under a target and a rule-combining algorithm;
    a policy set groups policies (and nested sets, and by-id references
    resolved against a PAP) under a policy-combining algorithm. *)

type t = {
  id : string;
  version : int;
  description : string;
  issuer : string;  (** administrative authority, used by delegation checks *)
  target : Target.t;
  variables : (string * Expr.t) list;
      (** policy-level variable definitions, referenced from rule
          conditions with {!Expr.Variable_ref} (XACML
          VariableDefinition) *)
  rules : Rule.t list;
  rule_combining : Combine.algorithm;
  obligations : Obligation.t list;
}

type child =
  | Inline_policy of t
  | Inline_set of set
  | Policy_ref of string  (** resolved through the evaluation environment *)

and set = {
  set_id : string;
  set_version : int;
  set_description : string;
  set_target : Target.t;
  children : child list;
  policy_combining : Combine.algorithm;
  set_obligations : Obligation.t list;
}

val make :
  ?version:int ->
  ?description:string ->
  ?issuer:string ->
  ?target:Target.t ->
  ?variables:(string * Expr.t) list ->
  ?rule_combining:Combine.algorithm ->
  ?obligations:Obligation.t list ->
  id:string ->
  Rule.t list ->
  t
(** Defaults: version 1, any target, no variables, deny-overrides. *)

val make_set :
  ?version:int ->
  ?description:string ->
  ?target:Target.t ->
  ?policy_combining:Combine.algorithm ->
  ?obligations:Obligation.t list ->
  id:string ->
  child list ->
  set

(** {1 Evaluation} *)

type ref_resolver = string -> child option
(** Lookup for {!Policy_ref} children (backed by a PAP).  Unresolvable
    references evaluate to Indeterminate. *)

val evaluate : ?resolve:Expr.resolver -> ?resolve_ref:ref_resolver -> Context.t -> t -> Decision.result
(** Policy evaluation: target, then rule combination, then the policy's
    obligations filtered by the outcome. *)

val evaluate_set :
  ?resolve:Expr.resolver -> ?resolve_ref:ref_resolver -> Context.t -> set -> Decision.result

val evaluate_child :
  ?resolve:Expr.resolver -> ?resolve_ref:ref_resolver -> Context.t -> child -> Decision.result

val child_id : child -> string
val applicability : ?resolve:Expr.resolver -> ?resolve_ref:ref_resolver -> Context.t -> child -> Target.outcome

(** {1 Inspection} *)

val rule_count : t -> int

val rule_pins : t -> Rule.t -> Target.pin list
(** The request positions a rule pins in its policy: its target's
    {!Target.pins}, or none when its condition names a variable the
    policy does not define — such a rule is Indeterminate whatever its
    target.  Every reader of a rule's reach (the compiled index, change
    regions) reads it here. *)
