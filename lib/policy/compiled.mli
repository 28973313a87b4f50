(** Compiled policy evaluation: per-(resource, action) target-indexed
    dispatch over a whole policy tree.

    {!Policy.evaluate} walks every rule of every policy for every
    request.  Compilation partitions each leaf policy's rules by their
    targets' {!Target.pins} on [Resource]/[resource-id] and
    [Action]/[action-id] — rules pinned on both axes, on one, or on
    neither (the fallback bucket), each bucket a sorted array of rule
    positions — and precomputes the variable-substituted form of every
    rule condition.  Dispatch is a cursor over the buckets the request's
    resource-id/action-id select together with the fallback bucket: each
    step yields the least candidate position after the current one, so
    the combining algorithm sees exactly the rule sequence the
    interpreter would, in document order, minus rules that provably
    cannot match, and no candidate list is built.

    Soundness of pruning is {!Target}'s: an axis is pruned on only when
    the request's bag there is clean ({!Target.clean}) and so is every
    guard of the leaf's rules indexed on that axis
    ({!Target.guards_clean}).  Under those conditions a pruned rule's
    target is guaranteed [No_match], hence the rule is NotApplicable and
    contributes nothing to any combining algorithm.  A rule whose
    condition names an undefined variable is Indeterminate whatever its
    target, so it is never indexed.

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
    request, resolver and reference resolver, Indeterminate reasons
    included.  On a tree whose root is a policy, dispatch, target
    matching and combining allocate nothing: a decided request returns
    a shared {!Decision} constant unless obligations are attached, and
    only an Indeterminate builds its message (and what the resolver
    allocates).  A root set allocates one record of the two resolvers
    per call. *)

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
