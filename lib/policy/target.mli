(** Policy targets: the applicability test of rules, policies and
    policy sets.

    A target has four sections (subjects, resources, actions,
    environments).  Each section is a disjunction of clauses; each clause
    is a conjunction of matches; an empty section matches anything — the
    XACML 2.0 structure. *)

type match_ = private {
  fn : string;  (** a binary boolean function from the expression registry *)
  value : Value.t;  (** the literal, passed as the function's first argument *)
  category : Context.category;
      (** the category whose bag the match reads, which need not be
          that of the section holding the match *)
  attribute_id : string;
  matcher : Expr.matcher option;
      (** [fn] resolved once, when the match is built; [None] when no
          registered function has that name *)
}
(** Built only by {!make_match} (or {!match_string}), so [matcher]
    always agrees with [fn]. *)

val make_match :
  fn:string -> value:Value.t -> category:Context.category -> attribute_id:string -> match_

type clause = match_ list
(** Conjunction. *)

type section = clause list
(** Disjunction; [[]] matches everything. *)

type t = {
  subjects : section;
  resources : section;
  actions : section;
  environments : section;
}

val any : t
(** Matches every request. *)

val make :
  ?subjects:section -> ?resources:section -> ?actions:section -> ?environments:section -> unit -> t

(** {1 Simple builders} *)

val match_string : Context.category -> string -> string -> match_
(** [match_string cat attr v] — string-equal on one attribute. *)

val subject_is : string -> string -> t -> t
(** [subject_is attr v t] adds a one-clause subject requirement. *)

val resource_is : string -> string -> t -> t
val action_is : string -> string -> t -> t

val for_action : string -> t
(** Target matching requests whose ["action-id"] equals the given name. *)

val for_resource : string -> t
val for_subject_role : string -> t

type outcome = Match | No_match | Indeterminate_match of string

val evaluate : ?resolve:Expr.resolver -> Context.t -> t -> outcome
(** XACML semantics: a match function error makes the section
    indeterminate rather than a mismatch.  Sections, clauses and bags
    are walked in place and each match runs its resolved function, so
    evaluation allocates nothing unless a match errors or the resolver
    does ([string-equal] on strings never errors). *)

(** {1 Pins}

    The one reading of which request positions a target pins, and when
    a pin may exclude a request.  The compiled evaluator's index
    ({!Compiled}), change-impact regions ({!Delta}) and conflict
    analysis all read targets through it.

    - A match pins its own [(category, attribute_id)] position only when
      it is [string-equal] on a [String] literal: against a non-empty,
      all-string bag it answers true or false and never errors.  Every
      other match pins nothing.
    - A section pins a position when every one of its clauses pins it;
      a clean bag disjoint from the union of the clauses' literals makes
      every clause, hence the section, [No_match].
    - A section's pin is usable only when every section evaluated
      before it (subjects, then resources, actions, environments) is
      guardable — made only of pinning matches — since an Indeterminate
      there would decide the target first.  The positions those earlier
      sections read are the pin's guards. *)

type pin = {
  pin_category : Context.category;
  pin_attribute : string;
  pin_values : string list;  (** sorted, deduplicated *)
  pin_guards : (Context.category * string) list;
      (** positions that must carry clean bags before this pin may
          exclude (those the earlier sections read) *)
}
(** One exclusion opportunity: a request whose bag at
    [(pin_category, pin_attribute)] is clean ({!clean}) and disjoint
    from [pin_values], with all [pin_guards] clean ({!guards_clean}),
    makes the target [No_match]. *)

val clause_pins : clause -> ((Context.category * string) * string list) list
(** The positions one clause pins, sorted, each with the sorted literals
    its pinning matches demand there. *)

val pins : t -> pin list
(** Every usable pin of a target, in section order. *)

val clean : Value.bag -> bool
(** A bag a pin may read: non-empty and strings only.  An empty bag may
    be filled by a resolver later; a non-string value makes
    [string-equal] error instead of mismatch. *)

val guards_clean : Context.t -> (Context.category * string) list -> bool
(** Every guard position carries a non-empty all-string bag, so the
    guarded sections evaluate to Match or No_match — never
    Indeterminate. *)

val pp : Format.formatter -> t -> unit
