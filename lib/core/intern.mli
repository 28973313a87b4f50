(** Symbol interning for the serving path.

    At millions of users the per-request cost of building cache keys —
    formatting every attribute into a sorted string and hashing it with
    SHA-256, as the original key scheme did — dominates the warm path.
    Crampton & Morisset's formal framing (PAPERS.md)
    licenses the fix: policy evaluation is independent of identifier
    representation, so subjects, resources, actions, attribute
    (category, id) pairs and attribute values can all be interned to
    dense integer ids once and compared/packed as machine words ever
    after.  The oracle suite proves the swap changes no decision.

    Three nested namespaces, all backed by pre-sized hash tables:

    - {b strings} — raw identifier text (subject ids, attribute ids, …);
    - {b pairs} — an attribute position [(category, id)];
    - {b atoms} — one attribute binding [(pair, value)].

    A request key is the sorted atom multiset of the Subject, Resource
    and Action sections, encoded as dot-separated decimal atom ids — a
    short ASCII string (XML-safe, so L2 wire sync keeps working) instead
    of a 64-byte hex digest.  Ids are dense and deterministic within a
    process: the same first-encounter order yields the same ids, and the
    whole simulation shares one process, so keys are comparable across
    every simulated node via {!global}. *)

type t
(** One interning universe (string, pair and atom tables). *)

type sym = int
(** A dense id, unique within its namespace of one {!t}. *)

val create : ?expected:int -> unit -> t
(** Fresh universe; tables are pre-sized for [expected] distinct strings
    (default 1024) to avoid rehash churn while the vocabulary grows. *)

val global : t
(** The process-wide universe used by the serving path.  Pre-sized for a
    million-user vocabulary's first growth doublings. *)

val string : t -> string -> sym
(** Intern raw identifier text. *)

val pair : t -> Dacs_policy.Context.category -> string -> sym
(** Intern an attribute position [(category, id)]. *)

val pack2 : int -> int -> int
(** [pack2 a b] packs two dense syms into one word ([a lsl 31 lor b]) —
    the int-keyed form used by the attribute cache.  Both arguments must
    be dense table syms (far below [2^31]). *)

val request_key : ?table:t -> Dacs_policy.Context.t -> string
(** Packed request key over the Subject, Resource and Action sections —
    Environment is excluded (a key that changes every request would
    never hit).  Two contexts produce the same key iff their (category,
    id, value) multisets over those three sections are equal; bag and
    insertion order never matter. *)

(** {1 Region tests}

    What region invalidation runs per cached key.  A change-impact
    region is compiled once per purge into sym form — each pin's guard
    pairs, pinned pair and allowed value syms, resolved with find-only
    lookups that never mint a sym — and each packed key is then tested as integer
    atoms, without building a context.  Compilation drops what cannot
    matter: a pin whose pinned or guard pair was never interned reads an
    empty bag in every key, so it can never exclude (a zone left with no
    pins covers every key); an allowed value never interned is in no
    key. *)

type region
(** A compiled {!Dacs_policy.Delta.t} over one table's syms.  Valid until
    the table mints another pair or value sym: compile it per purge. *)

val compile_region : ?table:t -> Dacs_policy.Delta.t -> region

(** {1 Region census}

    What lets a bounded-region purge skip a cache without visiting an
    entry.  A census belongs to one cache and counts over its live keys,
    for each pair some earlier region pinned or used as a guard (the
    {e tracked} pairs): the keys whose bag there is non-empty and
    all-string, and for each value the atoms that carry it.  A zone is
    provably missed when one of its pins excludes every live key — every
    key clean at the pin's guards and pinned pair, and no allowed value
    carried: exactly [pin_excludes], for all keys at once.  The census
    only decides whether to scan; {!census_in_region} still decides each
    key.  Until a region is scanned it tracks nothing and costs
    nothing. *)

type census

val census : unit -> census
(** An empty census over {!global}'s syms, tracking no pair. *)

val census_add : census -> string -> unit
(** A key entered the cache (not a re-insertion of a live key).  Counts
    it when any pair is tracked; a key that does not parse yet (an atom
    id not minted) is remembered as unread instead and counted nowhere,
    so its removal decrements nothing, whatever is minted meanwhile.
    Allocates nothing once every value it carries has been seen. *)

val census_remove : census -> string -> unit
(** A key left the cache: eviction, expiry or a region drop. *)

val census_clear : census -> unit
(** The cache was emptied.  Tracked pairs stay tracked. *)

val census_misses : census -> region -> live:int -> bool
(** Every zone of the region is provably missed by all [live] keys of
    the cache, so a purge drops nothing and need not scan.  Never
    [true] while an unread key is live, nor for a zone none of whose
    pins has all its pairs tracked. *)

val census_track : census -> region -> unit
(** Starts a scan: the region's pairs the census does not track yet
    become tracked, counted by the {!census_in_region} calls of this
    scan. *)

val census_in_region : census -> region -> string -> bool
(** Whether one live key of the scan {!census_track} began is in the
    region, reading the key once for both the test and the counts of
    the pairs that scan started tracking.  Call it on every live key,
    then {!census_remove} the ones it answers [true] for.

    The test is exactly [Delta.covers] on the context {!decode_key}
    would rebuild: a pin excludes the key only when every guard pair
    carries a non-empty, all-string bag, the pinned pair does too, and
    none of its values is allowed ([Target.guards_clean]/[clean] on
    atoms).  A key {!decode_key} rejects — a hex digest, an empty
    segment, an atom id the table never minted — answers [true], so it
    drops: a shared L2 stores keys its peers put over the wire, and a
    key nobody can read cannot be proven outside the region.  Allocates
    nothing per key (the region's scratch array grows only for a key
    longer than any before it). *)

(** {1 Reverse lookups}

    Dense per-sym reverse tables, populated as syms are minted, so a
    packed cache key can be decoded back into the attribute bags it was
    built from.  The serving path no longer decodes ({!census_in_region}
    reads atoms in place); {!decode_key} plus [Delta.covers] is the
    reference the region test is checked against in the tests. *)

val pair_info : t -> sym -> Dacs_policy.Context.category * string
(** The attribute position a pair sym was minted for; raises
    [Invalid_argument] on an unknown sym. *)

val atom_info : t -> sym -> sym * sym
(** [(pair, value)] syms of one atom; raises [Invalid_argument] on an
    unknown sym. *)

val decode_key : ?table:t -> string -> Dacs_policy.Context.t option
(** Decode a {!request_key} back into a context carrying the Subject,
    Resource and Action bags the key canonicalised (Environment is
    never in a key, so the result carries none).  [None] on anything
    that is not a dot-separated sequence of known atom syms — such as a
    malformed key a peer put into a shared L2 — which region
    invalidation must treat as matching (drop) to stay conservative. *)

type stats = { strings : int; pairs : int; values : int; atoms : int }

val stats : t -> stats
(** Table populations, for capacity reporting in benches. *)
