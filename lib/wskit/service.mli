(** SOAP services over the simulated network.

    Registers named endpoints on nodes.  Every service a node offers —
    PEP, PDP, PAP, PIP, capability service, discovery, IdP, trust
    negotiation, description registry — declares one total reader for
    its request body; the handler gets the value that reader read and
    answers with the writer of its response body (or of a fault), or,
    for a one-way service, answers nothing.  This matches the paper's
    SOA deployment model, with every inbound byte behind one reader. *)

type t

val create : Dacs_net.Rpc.t -> t
val rpc : t -> Dacs_net.Rpc.t
val net : t -> Dacs_net.Net.t

val metrics : t -> Dacs_telemetry.Metrics.t
(** The underlying bus's shared metrics registry (see {!Dacs_net.Rpc.metrics}). *)

val tracer : t -> Dacs_telemetry.Trace.t
(** The underlying bus's tracer. *)

type error =
  | Transport of Dacs_net.Rpc.error
  | Fault of Soap.fault
  | Malformed of string

val error_to_string : error -> string

val transport_error : ('a, error) result -> Dacs_net.Rpc.error option
(** The RPC error of a transport failure, the one failure a re-send can
    mend; [None] for an answer, a SOAP fault or a malformed envelope. *)

(** {1 Frames}

    The one transport path.  A request body is written straight into the
    RPC frame inside its SOAP envelope, and a received body is read by a
    pull cursor over the bytes that arrived ({!Soap.read}) — no tree, no
    intermediate string.  Bodies whose content is a whole document (a
    signed assertion, a policy, a service description) print and read
    that document as a tree inside their frame.

    Beyond what {!Dacs_net.Rpc} and {!Soap.read} allocate, a served
    request costs nothing here; a call costs its reply continuation
    (the reader and the caller's continuation), and its reply the
    closure that reads the body behind the SOAP-fault check and the
    [Ok (Ok v)] it is delivered in.  A bare [<Ping/>] round trip
    allocates 137 minor words in all (dune's dev profile), 34 of them
    the two frames. *)

type 'a reader = Dacs_xml.Xml.Cursor.t -> ('a, string) result
(** Reads one body element from its ['<'].  [Error] rejects the body. *)

val sender_fault : string -> Buffer.t -> unit
(** The writer of a [soap:Sender] fault body with this reason: the
    request was at fault. *)

val receiver_fault : string -> Buffer.t -> unit
(** The writer of a [soap:Receiver] fault body with this reason: the
    request was understood but the service cannot answer it. *)

val serve_frame :
  t ->
  node:Dacs_net.Net.node_id ->
  service:string ->
  read:'a reader ->
  (caller:Dacs_net.Net.node_id ->
  headers:Dacs_xml.Xml.t list ->
  'a ->
  ((Buffer.t -> unit) -> unit) ->
  unit) ->
  unit
(** [serve_frame t ~node ~service ~read handler] registers a
    request/reply service: [handler ~caller ~headers body reply] gets
    the request [read] read and must call [reply] exactly once with the
    writer of its response body element.  A request [read] rejects, or
    whose envelope is malformed, never reaches the handler: it is
    answered with a {!sender_fault} carrying the reader's error. *)

val serve_cast :
  t -> node:Dacs_net.Net.node_id -> service:string -> read:'a reader ->
  (caller:Dacs_net.Net.node_id -> 'a -> unit) -> unit
(** Registers a one-way service, reached only by {!cast_frame}: [handler
    ~caller body] gets the body [read] read and answers nothing; a body
    [read] rejects is dropped ({!Dacs_net.Rpc.serve_cast}). *)

val call_frame :
  t ->
  src:Dacs_net.Net.node_id ->
  dst:Dacs_net.Net.node_id ->
  service:string ->
  ?timeout:float ->
  ?breaker:bool ->
  ?headers:Dacs_xml.Xml.t list ->
  read:'a reader ->
  (Buffer.t -> unit) ->
  ((('a, string) result, error) result -> unit) ->
  unit
(** Send the body the writer produces and read the response body with
    [read]: [Ok (Ok v)] on success, [Ok (Error e)] when [read] rejected
    the response body, [Error] on a transport failure, a SOAP fault or a
    malformed envelope.  The call is one attempt; with [~breaker:true]
    it goes through the target's circuit breaker
    ({!Dacs_net.Rpc.call_frame}).  A SOAP fault is an application
    answer, never a breaker failure. *)

val cast_frame :
  t ->
  src:Dacs_net.Net.node_id ->
  dst:Dacs_net.Net.node_id ->
  service:string ->
  (Buffer.t -> unit) ->
  unit
(** Send the body the writer produces, in its SOAP envelope, as one
    one-way frame ({!Dacs_net.Rpc.cast_frame}) to a {!serve_cast} service:
    no timer, and no word of loss or of what the handler did. *)

val call_batch_frame :
  t ->
  src:Dacs_net.Net.node_id ->
  dst:Dacs_net.Net.node_id ->
  service:string ->
  ?breaker:bool ->
  read:'a reader ->
  (Buffer.t -> unit) list ->
  (((('a, string) result, error) result list, error) result -> unit) ->
  unit
(** Several request bodies coalesced into one
    {!Dacs_net.Rpc.call_batch_frame} round-trip: one attempt, with (given
    [~breaker:true]) one breaker verdict.  On transport success the continuation
    receives one result per request, each as from {!call_frame}; on
    transport failure the whole batch fails with [Error (Transport _)] —
    there are no partial deliveries.  The frame carries no SOAP headers
    and waits 1 s for its reply. *)
