(** Metrics registry: the shared numeric substrate of the observability
    layer (§3 management challenge).

    Named counters, gauges and fixed-bucket histograms, each identified by
    a metric name plus a label set; requesting the same (name, labels)
    pair again returns the {e same} instance, so independent components
    incrementing "their" counter actually share one cell — that identity
    is what makes one [reset] consistent everywhere.

    All timestamps come from the [now] function given at {!create} — in
    DACS that is the simnet virtual clock, so latency histograms and
    exposition timestamps are fully deterministic for a given seed. *)

type t

val create : ?now:(unit -> float) -> unit -> t
(** [now] (default: a constant 0) timestamps exposition samples.  Wire it
    to the simulation clock. *)

(** {1 Instruments}

    Metric names must match [[a-zA-Z_:][a-zA-Z0-9_:]*].  Label lists are
    canonicalised by sorting on the label key; duplicate keys raise.
    Registering an existing name with a different instrument kind raises
    [Invalid_argument] — one name, one type. *)

type counter
type gauge
type histogram

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
val inc : ?by:int -> counter -> unit
(** [by] defaults to 1 and must be >= 0 (counters are monotonic between
    resets). *)

val counter_value : counter -> int

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> float -> unit

val histogram :
  t -> ?help:string -> ?labels:(string * string) list -> ?buckets:float list -> string -> histogram
(** [buckets] (default 1 ms … 10 s, roughly exponential — sized for
    simulated network hops) are the upper bounds of the fixed buckets
    and must be strictly increasing; an implicit [+Inf] bucket always
    exists.  For an already-registered series the existing buckets
    win. *)

val observe : histogram -> float -> unit
(** A value lands in the first bucket whose upper bound is [>= v]
    (Prometheus [le] semantics). *)

type exemplar = { e_value : float; e_trace : string; e_at : float }
(** One concrete observation kept as the face of a bucket: the value, the
    trace id it belongs to, and when it was observed (virtual clock). *)

val observe_exemplar : histogram -> float -> trace:string -> at:float -> unit
(** Like {!observe}, but additionally remembers this observation as the
    bucket's exemplar (latest observation wins — retention is bounded at
    one exemplar per bucket).  An empty [trace] records no exemplar. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val bucket_counts : histogram -> (float * int) list
(** Per-bucket (non-cumulative) counts, paired with each upper bound;
    the final pair is [(infinity, overflow-count)]. *)

val histogram_exemplars : histogram -> (float * exemplar) list
(** The buckets currently holding an exemplar, as (upper bound, exemplar)
    pairs in bucket order — the links from latency buckets back to the
    traces that landed in them. *)

val quantile : histogram -> float -> float
(** Prometheus-style [histogram_quantile]: locate the bucket holding rank
    [q * count] in the cumulative distribution and interpolate linearly
    inside it.  [nan] on an empty histogram; a rank falling in the
    overflow bucket clamps to the highest finite bound.  [q] outside
    [0, 1] raises [Invalid_argument]. *)

(** {1 Reset}

    Resets zero values but keep registrations (and bucket layouts). *)

val reset : t -> unit
val reset_counter : counter -> unit
val reset_histogram : histogram -> unit

(** {1 Snapshot and exposition} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : (float * int) list; sum : float; count : int }

type sample = { name : string; labels : (string * string) list; value : value }

val snapshot : t -> sample list
(** Every registered series, sorted by name then labels — a stable,
    deterministic order. *)

val sum_counter : t -> string -> int
(** Sum of a counter across all its label sets (0 when the name was never
    registered).  The bus-wide view over per-caller series. *)

val sum_counter_by : t -> string -> label:string -> (string * int) list
(** Sum of a counter grouped by the value of one label key, sorted by
    label value — e.g. the per-reason breakdown of a shed counter.
    Series lacking the label are omitted. *)

val series_count : t -> int

val lookups : t -> int
(** How many times {!counter}, {!gauge} or {!histogram} has resolved a
    series in this registry, new or existing.  Each resolution sorts the
    labels and hashes the key, so code on a request path holds its
    handles instead; this count is how a test proves it does. *)

val render : t -> string
(** Prometheus text exposition: [# HELP]/[# TYPE] per name, histogram
    series with cumulative [le] buckets, [_sum] and [_count], and a
    virtual-clock millisecond timestamp on every sample line. *)

val render_json : t -> string
(** The same snapshot as a single-line JSON object, for bench scrapers. *)

val json_escape : string -> string
(** The body of a JSON string literal: quote, backslash, [\n] and [\t]
    escaped, other control bytes as [\u00XX]. *)
