(** Policy change-impact analysis: a sound over-approximation of the
    decision region a policy delta can affect.

    Given the policy tree a PAP served before a publish and the tree it
    serves after, {!between} computes a region — a union of {e zones},
    each a conjunction of attribute {e pins} harvested from changed
    rules' and policies' targets — such that any request {!covers}
    answers [false] for is guaranteed to decide identically (decision,
    obligations and Indeterminate message) under both trees.  The
    invalidation plane then drops only cached decisions inside the
    region instead of flushing VO-wide.

    Zones are built from {!Target.pins}, the one pin reading the
    compiled evaluator's index shares: a pin excludes a request only
    when the pinned bag is clean (non-empty and all-string, so a
    resolver cannot refill it and [string-equal] cannot error) and
    every target section evaluated before the pinned one is guard-clean
    (so it resolves to Match or No_match, never Indeterminate).  Under
    those conditions the changed construct's target is provably
    [No_match] for the request, the construct is NotApplicable on both
    sides of the publish, and every combining algorithm sees identical
    inputs.

    The analysis never errs toward exclusion: structure it cannot bound
    (changed [Policy_ref] wiring, free-form targets, more than 64 zones)
    widens to {!Unbounded}, which callers treat as the existing full
    flush; past 64 zones a flush is cheaper than testing every key
    against each zone. *)

type pin = Target.pin = {
  pin_category : Context.category;
  pin_attribute : string;
  pin_values : string list;  (** sorted, deduplicated *)
  pin_guards : (Context.category * string) list;
}
(** A target pin ({!Target.pin}): a request whose bag at
    [(pin_category, pin_attribute)] is clean and disjoint from
    [pin_values] — with all [pin_guards] clean — provably fails the
    originating target. *)

type zone = pin list
(** Conjunction of pins from one changed construct's effective target
    (its own target plus every enclosing policy/set target).  A request
    is outside the zone as soon as {e any} pin excludes it; a zone with
    no pins covers every request. *)

type t =
  | Empty  (** the publish cannot change any decision *)
  | Zones of zone list  (** union of zones *)
  | Unbounded  (** no static bound — callers must full-flush *)

val unbounded : t

val is_empty : t -> bool
val is_unbounded : t -> bool

val zone_count : t -> int
(** 0 for {!Empty}; number of zones; [max_int] for {!Unbounded}. *)

val between : Policy.child option -> Policy.child option -> t
(** [between before after]: the affected region of a publish replacing
    [before] with [after].  Structurally equal trees (a no-op publish)
    yield {!Empty}; appearance or disappearance of the whole tree
    yields {!Unbounded} (even NotApplicable answers change when there
    was no policy at all).  The diff descends through policy sets and
    rule lists, trimming structurally common prefixes and suffixes, so
    an edit touching one rule yields a region bounded by that rule's
    target pins plus its ancestors'. *)

val covers : t -> Context.t -> bool
(** Conservative membership: [false] only when some zone's pin provably
    excludes the request ({!Target.pin}).  Requests with
    empty or non-string bags at every pinned position are always
    covered. *)

val to_string : t -> string
