(** Metrics registry: the shared numeric substrate of the observability
    layer (§3 management challenge).

    Named counters, gauges and histograms, each identified by
    a metric name plus a label set; requesting the same (name, labels)
    pair again returns the {e same} instance, so independent components
    incrementing "their" counter actually share one cell, and every
    handle reads the one count.

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
(** [by] defaults to 1 and must be >= 0 (counters are monotonic). *)

val counter_value : counter -> int

val gauge : t -> ?help:string -> string -> gauge
(** An unlabelled series. *)

val set_gauge : gauge -> float -> unit

val set_gauge_count : gauge -> int -> unit
(** [set_gauge g n] for a count: the conversion happens in place, so a
    caller setting a count allocates nothing. *)

val histogram : t -> ?help:string -> ?labels:(string * string) list -> string -> histogram
(** A {!Loghist} series: every histogram has Loghist's one shape,
    upper bounds 0.5 ms·2^i for i = 0…19 and then [+Inf]. *)

val observe : histogram -> float -> unit
(** A value lands in the first bucket whose upper bound is [>= v]
    (Prometheus [le] semantics).  Allocates nothing. *)

type exemplar = { e_value : float; e_trace : string; e_at : float }
(** One concrete observation kept as the face of a bucket: the value, the
    trace id it belongs to, and when it was observed (virtual clock). *)

val observe_exemplar : histogram -> float -> trace:string -> at:float -> unit
(** Like {!observe}, but additionally remembers this observation as the
    bucket's exemplar (latest observation wins — retention is bounded at
    one exemplar per bucket).  An empty [trace] records no exemplar and
    allocates nothing. *)

val loghist : histogram -> Loghist.t
(** The series' counts, sum, maximum and quantiles. *)

val histogram_exemplars : histogram -> (float * exemplar) list
(** The buckets currently holding an exemplar, as (upper bound, exemplar)
    pairs in bucket order — the links from latency buckets back to the
    traces that landed in them. *)

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

val json_string : string -> string
(** A JSON string literal, quotes included: quote, backslash, [\n] and
    [\t] escaped, other control bytes as [\u00XX], every other byte
    (UTF-8 included) as is.  Every JSON writer quotes its strings with
    this. *)
