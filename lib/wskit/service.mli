(** SOAP services over the simulated network.

    Registers named endpoints on nodes; handlers receive the request body
    element and reply with a body element (or a fault).  All access-control
    components — PEP, PDP, PAP, PIP, capability service — are exposed this
    way, matching the paper's SOA deployment model. *)

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

(** {1 Frames}

    The one transport path.  A request body is written straight into the
    RPC frame inside its SOAP envelope, and a received body is read by a
    pull cursor over the bytes that arrived ({!Soap.read}) — no tree, no
    intermediate string.  Every [Wire] frame uses this API with its own
    writer and reader; the tree API below is a thin adapter over it for
    services whose bodies are whole documents (SAML, WSDL). *)

type 'a reader = Dacs_xml.Xml.Cursor.t -> ('a, string) result
(** Reads one body element from its ['<'].  [Error] rejects the body. *)

val sender_fault : string -> Buffer.t -> unit
(** The writer of a [soap:Sender] fault body with this reason — how a
    frame handler rejects a request it could not read. *)

val serve_frame :
  t ->
  node:Dacs_net.Net.node_id ->
  service:string ->
  read:'a reader ->
  (caller:Dacs_net.Net.node_id ->
  headers:Dacs_xml.Xml.t list ->
  ('a, string) result ->
  ((Buffer.t -> unit) -> unit) ->
  unit) ->
  unit
(** [serve_frame t ~node ~service ~read handler]: [handler ~caller
    ~headers body reply] gets the request read by [read] ([Error] when
    [read] rejected a body in a well-formed envelope) and must call
    [reply] exactly once with the writer of its response body element.
    A malformed request envelope is answered with a [soap:Sender] fault
    without invoking the handler. *)

val call_frame :
  t ->
  src:Dacs_net.Net.node_id ->
  dst:Dacs_net.Net.node_id ->
  service:string ->
  ?timeout:float ->
  ?resilient:Dacs_net.Rpc.retry_policy ->
  ?headers:Dacs_xml.Xml.t list ->
  read:'a reader ->
  (Buffer.t -> unit) ->
  ((('a, string) result, error) result -> unit) ->
  unit
(** Send the body the writer produces and read the response body with
    [read]: [Ok (Ok v)] on success, [Ok (Error e)] when [read] rejected
    the response body, [Error] on a transport failure, a SOAP fault or a
    malformed envelope.  With [resilient] the call goes through the RPC
    breaker and is retried per that policy ({!Dacs_net.Rpc.call_frame});
    SOAP faults are application answers, never retried. *)

val call_batch_frame :
  t ->
  src:Dacs_net.Net.node_id ->
  dst:Dacs_net.Net.node_id ->
  service:string ->
  ?resilient:Dacs_net.Rpc.retry_policy ->
  read:'a reader ->
  (Buffer.t -> unit) list ->
  (((('a, string) result, error) result list, error) result -> unit) ->
  unit
(** Several request bodies coalesced into one
    {!Dacs_net.Rpc.call_batch_frame} round-trip with a single
    retry/breaker envelope.  On transport success the continuation
    receives one result per request, each as from {!call_frame}; on
    transport failure the whole batch fails with [Error (Transport _)] —
    there are no partial deliveries.  The frame carries no SOAP headers
    and waits 1 s for its reply. *)

(** {1 Tree bodies} *)

type handler =
  caller:Dacs_net.Net.node_id ->
  headers:Dacs_xml.Xml.t list ->
  Dacs_xml.Xml.t ->
  (Dacs_xml.Xml.t -> unit) ->
  unit
(** [handler ~caller ~headers body reply]: call [reply] exactly once with
    the response body element. *)

val serve : t -> node:Dacs_net.Net.node_id -> service:string -> handler -> unit
(** {!serve_frame} with tree bodies.  Malformed request envelopes are
    answered with a SOAP fault without invoking the handler. *)

val call :
  t ->
  src:Dacs_net.Net.node_id ->
  dst:Dacs_net.Net.node_id ->
  service:string ->
  ?timeout:float ->
  ?resilient:Dacs_net.Rpc.retry_policy ->
  ?headers:Dacs_xml.Xml.t list ->
  Dacs_xml.Xml.t ->
  ((Dacs_xml.Xml.t, error) result -> unit) ->
  unit
(** {!call_frame} with tree bodies: send a body element, receive the
    response body element.  Faults and transport failures surface as
    [Error]. *)
