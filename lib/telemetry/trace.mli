(** Distributed tracing over the simulated fabric.

    A trace is a tree of spans — one per hop of an authorisation flow
    (client call, PEP enforcement, PDP evaluation, PIP/PAP fetch) —
    linked by parent ids and stamped with virtual-clock times, so a
    single request in the Fig. 2 (push) or Fig. 3 (pull) sequence renders
    as one coherent tree with exact per-hop latencies.

    Trace and span ids are minted from the id source given at {!create}
    (in DACS: the engine's seeded RNG), so a given seed yields
    byte-identical traces.  Tracing is {e disabled} by default and, while
    disabled, mints no ids and records nothing — enabling it never
    perturbs the RNG sequence of an untraced run.

    The tracer also carries the {e ambient context}: the span under which
    the currently executing callback logically runs.  The RPC layer
    brackets every handler and continuation with {!set_current}, which is
    what stitches asynchronous hops into one tree. *)

type t

type context = { trace_id : int64; span_id : int64 }

type status = Span_ok | Span_error of string

type span

val create : now:(unit -> float) -> next_id:(unit -> int64) -> unit -> t

val set_enabled : t -> bool -> unit
val enabled : t -> bool

(** {1 Ambient context} *)

val current : t -> context option
val set_current : t -> context option -> unit

val exemplar_tag : t -> string
(** The ambient context's trace id in hex, the exemplar tag latency
    histograms carry ({!Metrics.observe_exemplar}); [""] (no exemplar)
    when there is no ambient context. *)

(** {1 Span lifecycle} *)

val start_span : t -> ?parent:context -> string -> span
(** [parent] defaults to the ambient context (a fresh root trace when
    there is none).  While the tracer is disabled this returns an inert
    span: no ids are minted and nothing is recorded. *)

val context : span -> context

val annotate : span -> string -> string -> unit
(** Attach a key:value annotation (insertion order preserved). *)

val set_status : span -> status -> unit
(** Default status is [Span_ok]. *)

val finish : t -> span -> unit
(** Stamp the end time.  Idempotent; the first finish wins. *)

val record : t -> string -> unit
(** Timestamped event attached to the ambient span, or to the trace-global
    event log when no span is current — how fault-window openings and
    breaker transitions land in the story of a run. *)

(** {1 Inspection} *)

type span_view = {
  v_trace_id : int64;
  v_span_id : int64;
  v_parent : int64 option;
  v_name : string;
  v_start : float;
  v_end : float option;
  v_status : status;
  v_attrs : (string * string) list;
  v_events : (float * string) list;
}

val span_count : t -> int
val trace_ids : t -> int64 list
(** Distinct trace ids in order of first appearance. *)

val critical_path : ?trace_id:int64 -> t -> span_view list
(** The chain of spans that bounded a trace's end-to-end latency: from
    the root span, repeatedly descend into the child that finished last.
    [trace_id] defaults to the first recorded trace; [[]] when the trace
    has no spans.  Unfinished spans count as ending at their start. *)

(** {1 Context propagation} *)

val context_to_string : context -> string
(** ["<trace-hex>-<span-hex>"], safe inside an RPC frame. *)

val context_of_string : string -> context option

(** {1 Rendering} *)

val render_tree : ?trace_id:int64 -> t -> string
(** ASCII span tree (all traces, or just [trace_id]): one line per span
    with start offset, duration and annotations, nested children, inline
    events, and the trace-global event log at the end.  Deterministic for
    a given seed. *)
