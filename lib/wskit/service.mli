(** SOAP services over the simulated network.

    Every service a node offers — PEP, PDP, PAP, PIP, capability
    service, discovery, IdP, trust negotiation, description registry —
    is one typed declaration ({!call} or {!cast}).  Its server's handler
    gets the value the declared request reader read and answers with the
    writer of its response body (or of a fault), or, one-way, nothing;
    its callers read the answer with the declared reply reader.  This
    matches the paper's SOA deployment model, with every inbound byte
    behind one declared reader. *)

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
    (the reply reader and the caller's continuation), and its reply the
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

(** {1 Declarations}

    Each service is declared once, as a static value, in the shape a
    WSDL port type gives an operation: request/reply ({!call}: name,
    request reader, reply reader) or one-way ({!cast}: name, request
    reader).  Server and callers take the same value, so calling a
    one-way service or casting to a request/reply one does not compile.
    The bus below still keys services by name and checks shapes at run
    time ({!Dacs_net.Rpc}), the defence against untyped peers.

    Body writers stay [Buffer.t -> unit] closures.  Several take state
    the sender holds and no reader returns (a signing key and
    certificate, an epoch, a send stamp), so a typed writer would build
    a message value on every send only to take it apart again. *)

type ('q, 'r) call = private { name : string; request : 'q reader; reply : 'r reader }
type 'q cast = private { name : string; request : 'q reader }

val request_reply : string -> request:'q reader -> reply:'r reader -> ('q, 'r) call
val one_way : string -> 'q reader -> 'q cast
(** Both raise [Invalid_argument] when the name holds ['|']: the bus
    carries a service name verbatim between two bars. *)

type declaration = Call : ('q, 'r) call -> declaration | Cast : 'q cast -> declaration
(** Either shape, for lists of a module's services. *)

(** {1 Serving and calling} *)

val serve :
  t ->
  node:Dacs_net.Net.node_id ->
  ('q, 'r) call ->
  (caller:Dacs_net.Net.node_id ->
  headers:Dacs_xml.Xml.t list ->
  'q ->
  ((Buffer.t -> unit) -> unit) ->
  unit) ->
  unit
(** [serve t ~node service handler] registers a request/reply service:
    [handler ~caller ~headers body reply] gets the request the
    service's request reader read and must call [reply] exactly once
    with the writer of its response body element.  A request the reader
    rejects, or whose envelope is malformed, never reaches the handler:
    it is answered with a {!sender_fault} carrying the reader's
    error. *)

val serve_cast :
  t -> node:Dacs_net.Net.node_id -> 'q cast -> (caller:Dacs_net.Net.node_id -> 'q -> unit) -> unit
(** Registers a one-way service, reached only by {!cast}: [handler
    ~caller body] gets the body the service's reader read and answers
    nothing; a body the reader rejects is dropped
    ({!Dacs_net.Rpc.serve_cast}). *)

val call :
  t ->
  src:Dacs_net.Net.node_id ->
  dst:Dacs_net.Net.node_id ->
  ?timeout:float ->
  ?breaker:bool ->
  ?headers:Dacs_xml.Xml.t list ->
  ('q, 'r) call ->
  (Buffer.t -> unit) ->
  ((('r, string) result, error) result -> unit) ->
  unit
(** Send the body the writer produces and read the response body with
    the service's reply reader: [Ok (Ok v)] on success, [Ok (Error e)]
    when the reader rejected the response body, [Error] on a transport
    failure, a SOAP fault or a malformed envelope.  The call is one
    attempt; with [~breaker:true] it goes through the target's circuit
    breaker ({!Dacs_net.Rpc.call_frame}).  A SOAP fault is an
    application answer, never a breaker failure. *)

val cast : t -> src:Dacs_net.Net.node_id -> dst:Dacs_net.Net.node_id -> 'q cast -> (Buffer.t -> unit) -> unit
(** Send the body the writer produces, in its SOAP envelope, as one
    one-way frame ({!Dacs_net.Rpc.cast_frame}) to a {!serve_cast}
    service: no timer, and no word of loss or of what the handler
    did. *)

val call_batch :
  t ->
  src:Dacs_net.Net.node_id ->
  dst:Dacs_net.Net.node_id ->
  ?breaker:bool ->
  ('q, 'r) call ->
  (Buffer.t -> unit) list ->
  (((('r, string) result, error) result list, error) result -> unit) ->
  unit
(** Several request bodies coalesced into one
    {!Dacs_net.Rpc.call_batch_frame} round-trip: one attempt, with (given
    [~breaker:true]) one breaker verdict.  On transport success the continuation
    receives one result per request, each as from {!call}; on
    transport failure the whole batch fails with [Error (Transport _)] —
    there are no partial deliveries.  The frame carries no SOAP headers
    and waits 1 s for its reply. *)
