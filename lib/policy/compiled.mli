(** Compiled policy evaluation: per-(resource, action) target-indexed
    dispatch over a whole policy tree.

    {!Policy.evaluate} walks every rule of every policy for every
    request.  Compilation partitions each leaf policy's rules by the
    [resource-id]/[action-id] string-equality pins in their targets —
    rules pinned on both axes, on one, or on neither (the fallback
    bucket) — and precomputes the variable-substituted form of every
    rule condition.  Dispatch then unions the buckets the request's
    resource-id/action-id select with the fallback bucket and restores
    document order, so the combining algorithm sees exactly the rule
    sequence the interpreter would, minus rules that provably cannot
    match.

    Soundness of pruning: a rule is indexed on an axis only when every
    clause of that target section pins the axis attribute with
    [string-equal] on a string literal, and pruning on an axis is
    attempted only when the request carries a non-empty, all-string bag
    for that attribute (a non-string value would make [string-equal]
    error — Indeterminate — rather than mismatch, so such requests take
    the full scan).  Under those two conditions a pruned rule's target
    is guaranteed [No_match], hence the rule is NotApplicable and
    contributes nothing to any combining algorithm.

    The compiled form is a pure value: compiling never changes
    decisions, obligations (and their document order), or Indeterminate
    messages relative to {!Policy.evaluate_child}. *)

type t

val compile : Policy.child -> t
(** Compile a policy tree from scratch.  The compilation epoch starts
    at 1. *)

val recompile : t -> Policy.child -> t
(** Incremental recompilation against a previous compile: leaf policies
    that are structurally unchanged reuse their compiled form.  If the
    whole tree is unchanged the previous value is returned as-is and the
    epoch is preserved; any structural change bumps the epoch by one
    (epochs are monotonic). *)

val epoch : t -> int
(** Compilation epoch: 1 for a fresh {!compile}, incremented by every
    {!recompile} that observed a change. *)

val source : t -> Policy.child
(** The policy tree this value was compiled from. *)

val evaluate :
  ?resolve:Expr.resolver -> ?resolve_ref:Policy.ref_resolver -> Context.t -> t -> Decision.result
(** Same result as {!Policy.evaluate_child} on {!source}, for any
    request, resolver and reference resolver. *)

(** {1 Inspection} *)

val rule_count : t -> int
(** Total rules across all compiled leaves ([Policy_ref] children count
    0 — they are resolved dynamically at evaluation time). *)

val bucket_count : t -> int
(** Indexed buckets across all leaves (pair, resource-only and
    action-only buckets). *)

val reused_leaves : t -> int
(** Leaves carried over unchanged by the {!recompile} that produced this
    value; 0 after a fresh {!compile}. *)

val candidate_count : t -> Context.t -> int
(** Rules evaluation would consider for this request, summed over all
    leaves (the selectivity measure, and the scan count a PDP's
    [rule_cost] occupancy is charged for).  [Policy_ref] children are
    not counted. *)

val pruned_rules : t -> Context.t -> Rule.t list
(** The rules dispatch skips for this request (the complement of the
    candidate set).  Every pruned rule's target is [No_match] for the
    request — the property the equivalence suite checks directly. *)

(** {1 Guard discipline}

    The primitives the soundness argument above is built from, exported
    for {!Delta}'s change-impact analysis, which must exclude requests
    from an affected region under exactly the same conditions dispatch
    prunes rules. *)

val section_guards : Target.section -> (Context.category * string) list option
(** The (category, attribute) positions a section reads, when every
    match is a [string-equal] against a string literal (and so can never
    error on an all-string bag); [None] otherwise. *)

val guards_clean : Context.t -> (Context.category * string) list -> bool
(** Every guard position carries a non-empty all-string bag, so the
    guarded sections evaluate to Match or No_match — never
    Indeterminate. *)

val clean_ids : Context.t -> Context.category -> string -> string list option
(** The request's bag at one position when pruning on it is sound: a
    non-empty bag of strings and nothing else.  An empty bag may be
    filled by a resolver later; a non-string value makes [string-equal]
    error instead of mismatch. *)
