(** Static policy-conflict analysis (§3.1).

    Enumerates modality conflicts: pairs of rules with opposite effects
    whose applicability constraints can be satisfied by one and the same
    access request.  The analysis is the pre-deployment check the paper
    describes.  Targets are read through {!Dacs_policy.Target.clause_pins}:
    only a [string-equal] match on a string literal binds, and it binds
    the (category, attribute) position it reads.  Every other match
    counts as satisfiable alongside anything, so the analysis may report
    a pair no request reaches but never misses one that a
    single-valued request reaches.
    It assumes single-valued attributes (a clause binding two different
    values at one position is unsatisfiable), which matches
    identity/role-style targets. *)

type rule_ref = {
  policy_id : string;
  policy_issuer : string;
  rule_id : string;
  effect : Dacs_policy.Rule.effect;
}

type conflict = {
  permit : rule_ref;
  deny : rule_ref;
  permit_first : bool;  (** the permit rule precedes the deny rule in document order *)
  cross_policy : bool;  (** rules come from different policies *)
  cross_authority : bool;  (** ...issued by different authorities *)
  witness : string;  (** human-readable description of an overlapping request *)
}

val find_in_set : Dacs_policy.Policy.set -> conflict list
(** All modality conflicts between rules anywhere in the set (nested sets
    included; references skipped). *)

val find_between : Dacs_policy.Policy.t -> Dacs_policy.Policy.t -> conflict list
(** Conflicts across exactly two policies. *)

val resolution : Dacs_policy.Combine.algorithm -> conflict -> Dacs_policy.Decision.t
(** Which way the combining algorithm settles this conflict: deny- and
    permit-overrides pick their namesake, first-applicable follows document
    order, only-one-applicable reports the conflict as Indeterminate. *)
