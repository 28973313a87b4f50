(** Request/response layer over {!Net} with correlation ids, timeouts and
    a resilience layer (per-target circuit breakers, and the one retry
    step — exponential backoff with deterministic jitter — that every
    caller re-sending an attempt takes).

    Components register named services on nodes; callers issue asynchronous
    calls and receive either the reply payload or an error.  This is the
    substrate the SOAP layer (and hence every PEP/PDP/PAP/PIP exchange)
    rides on; timeouts are what make PDP failover observable, and the
    resilience layer is what keeps authorisation flowing through the fault
    schedules of {!Faults}. *)

type t

type error =
  | Timeout
  | No_such_service of string
  | Circuit_open of Net.node_id
      (** The per-target circuit breaker rejected the call without
          touching the network. *)

val error_to_string : error -> string

val create : Net.t -> t
val net : t -> Net.t

(** {1 Telemetry}

    Every bus carries a metrics registry (always on, clocked by the
    network's virtual time) and a tracer (off by default).  The RPC layer
    instruments itself: per-service call/error counters and latency
    histograms, per-caller resilience counters, and — when tracing is
    enabled — one client span per call attempt plus one server span per
    dispatched request, stitched together by the trace context each
    request frame carries. *)

val metrics : t -> Dacs_telemetry.Metrics.t
(** The shared registry.  Components living on this bus register their
    own series here, which is what makes resets consistent everywhere. *)

val tracer : t -> Dacs_telemetry.Trace.t

val set_tracing : t -> bool -> unit
(** Enable/disable span recording.  While disabled no RNG draws are made
    for ids, so an untraced run's random sequence is unperturbed. *)

val calls_in_flight : t -> int

(** {1 Retry with backoff}

    A call is one attempt; the caller owns any re-send.  A retry policy
    bounds the total number of attempts; after the [n]th failure the
    caller waits [base_delay * multiplier^(n-1)] capped at [max_delay],
    multiplied by a jitter factor drawn uniformly from [1 ± jitter] using
    the engine's seeded RNG — so backoff sequences are deterministic for
    a given seed.  {!retry_after} is that step. *)

type retry_policy = {
  attempts : int;  (** total attempts including the first; >= 1 *)
  base_delay : float;  (** wait after the first failure (seconds) *)
  multiplier : float;  (** backoff growth per failure *)
  max_delay : float;  (** backoff ceiling (seconds) *)
  jitter : float;  (** fraction in [0,1]; 0 disables jitter *)
}

val no_retry : retry_policy
(** Exactly one attempt: a failure is final. *)

val default_retry : retry_policy
(** 3 attempts, 50 ms base, doubling, 2 s cap, 20% jitter. *)

val validate_retry : retry_policy -> unit
(** Raises [Invalid_argument] unless [attempts >= 1] and [jitter] lies
    in [[0, 1]] — what every setter of a policy checks when it is set. *)

(** {1 Circuit breaker}

    One breaker per target node, shared by all callers on this RPC bus,
    and on from {!create} with {!default_breaker}.
    [failure_threshold] consecutive timeouts trip it open; while open,
    calls made with [~breaker:true] to that target fail immediately with
    {!Circuit_open} (shedding load from a struggling replica).  After
    [cooldown] seconds the next such call is admitted as a half-open
    probe: success closes the breaker, failure re-opens it for another
    cooldown.  Calls without [~breaker:true] bypass it.  Every transition is counted in
    [rpc_breaker_trips_total{src}] / [rpc_breaker_rejections_total{src}]
    and, when tracing, recorded as a ["breaker-…"] trace event. *)

type breaker_config = { failure_threshold : int; cooldown : float }

val default_breaker : breaker_config
(** 5 consecutive failures; 2 s cooldown. *)

type breaker_state = Closed | Open | Half_open

val set_breaker : t -> breaker_config -> unit
(** Reconfigure circuit breaking for [~breaker:true] calls on this bus;
    a bus starts with {!default_breaker}.  A [failure_threshold] of
    [max_int] gives a breaker that never trips. *)

val breaker_state : t -> Net.node_id -> breaker_state
(** Current state towards a target ([Closed] when the target has never
    failed).  An open breaker whose cooldown has lapsed reports
    [Half_open]. *)

val breaker_sheds : t -> Net.node_id -> bool
(** Whether a [~breaker:true] call to the target issued now would be shed
    without touching the network: its breaker is [Open] within its
    cooldown, or [Half_open] with its probe in flight.  A read: it makes
    no state transition and counts nothing, so a caller can route
    around the target instead of calling it.  [false] when breaking is
    disabled. *)

val record_shed : t -> src:Net.node_id -> Net.node_id -> unit
(** Count one call from [src] shed by the target's breaker, exactly as a
    rejected call is counted: one
    [rpc_breaker_rejections_total{src}] increment and, when tracing, a
    ["breaker-rejected"] event.  For callers that route around a
    target on {!breaker_sheds} rather than call it. *)

(** {1 Failure detection}

    The bus gives a caller-side failure detector two primitives: the
    evidence that a target is alive, and a way to give up on it before
    the call timeout.  Neither touches the breaker's rule. *)

val heard_from : t -> Net.node_id -> float
(** The virtual instant the last reply or error frame arrived from the
    target, whichever caller it answered; [neg_infinity] before the
    first.  Requests the target sends do not count.  The evidence is
    bus-wide, like the breaker: a saturated node keeps answering
    {e someone}, so it is never silent. *)

val expire : t -> Net.node_id -> unit
(** Fail every call pending towards the target with [Timeout], exactly
    as its timer would, in ascending correlation-id order.  Calls made
    with [~breaker:true] count each failure through the breaker as usual
    (so five expired calls trip it); whether to re-send is the caller's
    choice.  A reply that arrives afterwards is dropped.  Calls issued by
    the continuations are not expired. *)

(** {1 Resilience counters} *)

type resilience_stats = { retries : int; breaker_trips : int; breaker_rejections : int }

val resilience_stats : t -> resilience_stats
(** Bus-wide counters across all callers — a thin read summing
    the per-caller [rpc_retries_total]/[rpc_breaker_trips_total]/
    [rpc_breaker_rejections_total{src}] series in {!metrics}, so a
    component resetting its own series is immediately reflected here. *)

(** {1 Frames}

    A request or reply body travels as a {!slice} of the frame that
    arrived — no copy — and is produced by a {!writer} appending straight
    into the frame being sent, after the header.

    What a round trip allocates in the bus, besides its two frame
    strings: the body slice each side reads, the [Ok] around the reply's,
    the server's [reply] continuation, the boxed latency its histogram
    observes, and {!Net}'s record and delivery per message.  An arriving
    frame's header is parsed into the bus's own scratch, a service is
    found in its node's table by name, a pending call takes a slot of a
    table indexed by its correlation id, and its timeout timer takes a
    slot in the ring of the bus's {!Engine.Deadlines} class for that
    timeout, so none of these allocates.  An answered call's timer stays
    in the ring, out of the event queue, until the timer ahead of it
    fires and drops it. *)

type slice = { src : string; off : int; len : int }
(** The body: [len] bytes of [src] from [off]. *)

val slice_to_string : slice -> string

type writer = Buffer.t -> unit
(** Appends one body to the frame being written. *)

val serve_frame :
  t ->
  node:Net.node_id ->
  service:string ->
  ?envelope:(Buffer.t -> writer -> unit) ->
  (caller:Net.node_id -> slice -> (writer -> unit) -> unit) ->
  unit
(** [serve_frame t ~node ~service handler] registers a request/reply
    service.  The handler receives the request body and a [reply]
    continuation it must call exactly once (possibly later, after its
    own nested calls complete) with the writer of its answer.
    [envelope buf write] writes each reply body around the handler's
    writer (by default the writer's bytes alone): how a layer above
    wraps every reply in its envelope without a closure per reply. *)

val serve_cast : t -> node:Net.node_id -> service:string -> (caller:Net.node_id -> slice -> unit) -> unit
(** [serve_cast t ~node ~service handler] registers a one-way service:
    the handler gets the caller and the body, and answers nothing.  A
    service has one shape: only a {!cast_frame} runs a one-way handler,
    and a call or batch naming it fails with [No_such_service]. *)

val call_frame :
  t ->
  src:Net.node_id ->
  dst:Net.node_id ->
  service:string ->
  ?timeout:float ->
  ?breaker:bool ->
  ?envelope:(Buffer.t -> writer -> unit) ->
  writer ->
  ((slice, error) result -> unit) ->
  unit
(** Asynchronous call of one attempt.  The continuation fires with [Ok reply], or with
    [Error Timeout] after [timeout] seconds (default 1.0) if no reply
    arrived — whether because of loss, crash, partition or a missing
    service.  An attempt with a negative or NaN [timeout] raises
    [Invalid_argument] instead of sending its frame.  Only a reply or error frame from [dst], delivered to [src],
    completes the call: one from any other node, or to any other node
    (the callee's answer to a third node that sent it a request under
    this call's id), is dropped, as a reply after the timeout is.
    Traffic is accounted under the service name.  [envelope buf write]
    writes the request body around [write] (by default [write]'s bytes
    alone), as {!serve_frame}'s does for replies.

    With [~breaker:true] (default [false]) the target's circuit breaker
    admits the attempt first — a shed one fails at once with
    [Circuit_open] and sends nothing — and hears its outcome: a reply is
    a success, a timeout a failure.  The call is never re-sent; a caller
    that retries takes {!retry_after} per failure. *)

val cast_frame :
  t ->
  src:Net.node_id ->
  dst:Net.node_id ->
  service:string ->
  ?envelope:(Buffer.t -> writer -> unit) ->
  writer ->
  unit
(** [cast_frame t ~src ~dst ~service write] sends one one-way frame: a
    request nobody answers, for a caller that would ignore the reply.
    It takes no correlation id, no pending slot and no timer, so it
    never shows in {!calls_in_flight}, never times out and passes no
    breaker.  It counts one [rpc_calls_total{service}] like a call, and
    when tracing it opens the same client span, marked
    {!Dacs_telemetry.Trace.mark_one_way}, carries its context in the
    frame and finishes the span once the frame is sent.  The receiving
    bus runs the service's {!serve_cast} handler (counting
    [rpc_requests_served_total]); a frame to any other service runs
    nothing.  Loss, a crash or what the handler does is invisible to
    the sender.  [envelope] is as for {!call_frame}. *)

val call_batch_frame :
  t ->
  src:Net.node_id ->
  dst:Net.node_id ->
  service:string ->
  writer list ->
  ((slice list, error) result -> unit) ->
  unit
(** Coalesce several queries to the same service into one round-trip.
    The server dispatches each part to the registered handler and gathers
    the replies into a single frame, preserving order; the continuation
    receives exactly one reply per query.  The whole batch shares one
    correlation id, one 1 s timeout and one breaker verdict (every
    batch is breaker-guarded) — the frame is one attempt, and partial results are
    never delivered.  A reply with the wrong number of parts fails the
    whole batch with [Timeout], and the target's breaker counts it as a
    failure.
    Raises [Invalid_argument] on an empty batch. *)

(** {1 Re-sending}

    A re-send has one owner: the caller that holds the queries.  Both
    owners — the PDP tier for authorisation frames, the client for its
    access call — take the same step after each failed attempt. *)

val retry_after :
  t ->
  src:Net.node_id ->
  dst:Net.node_id ->
  retry_policy ->
  failures:int ->
  error ->
  (unit -> unit) ->
  bool
(** [retry_after t ~src ~dst retry ~failures err resend], after the
    [failures]th failed attempt from [src] to [dst], which failed with
    [err]: when [err] is a timeout or a breaker rejection and the policy
    allows another attempt, draw the backoff, count one retry in
    [rpc_retries_total{src}], record a ["retry …"] trace event when
    tracing, schedule [resend] after the backoff — under the trace
    context current now, so the re-sent attempt's span has the failed
    one's parent — and return [true].  Otherwise do nothing and return
    [false]: the attempts are spent, or the target answered
    [No_such_service] and a re-send cannot help.  The policy must pass
    {!validate_retry}. *)

(** {1 Wire format}

    Exposed for property testing: [decode] must invert every [encode_*]
    for non-negative ids, service names and trace contexts without
    ['|'], and arbitrary bodies.  A header field is the bytes between
    two ['|'], taken verbatim: ["Q|1|a%7Cb|x"] names the service
    ["a%7Cb"].  No name can mis-frame, because every serve, call, cast
    and batch refuses a service name holding ['|'] with
    [Invalid_argument] (once per name), as {!Dacs_ws.Service}'s
    declarations do.  Headers are canonical: ids and part lengths are
    plain decimal digits without a sign or leading zeros, a reply or
    error frame has an empty service field, and a one-way frame (kind
    [O], or [OT] with a trace context) has the id 0 — so whenever
    [decode s = Some f], encoding [f] gives back [s].  The live path
    parses the same header in place and hands the body on as a
    {!slice}. *)

type frame =
  | Request of int * string * string  (** id, service, body *)
  | Traced_request of { id : int; service : string; trace : string; body : string }
      (** A request carrying a trace context (see
          {!Dacs_telemetry.Trace.context_to_string}) — what propagates a
          span tree across PEP → PDP → PIP/PAP hops. *)
  | Batch_request of int * string * string list  (** id, service, parts *)
  | Traced_batch_request of { id : int; service : string; trace : string; parts : string list }
  | One_way of string * string  (** service, body: a request nobody answers *)
  | Traced_one_way of { service : string; trace : string; body : string }
  | Reply of int * string
  | Error_frame of int * string

val encode_request : int -> string -> string -> string
val encode_traced_request : int -> string -> trace:string -> string -> string
val encode_reply : int -> string -> string
val encode_error : int -> string -> string
val encode_batch_request : int -> string -> string list -> string
val encode_traced_batch_request : int -> string -> trace:string -> string list -> string
val encode_one_way : string -> string -> string
val encode_traced_one_way : string -> trace:string -> string -> string
val decode : string -> frame option

val encode_parts : string list -> string
(** Length-prefixed concatenation ([<len>:<bytes>...]) — how batch frames
    carry arbitrary bodies (including ['|']) and how a batch reply packs
    one answer per query. *)

val decode_parts : string -> string list option
