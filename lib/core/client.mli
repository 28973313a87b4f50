(** Client-side driver for the two authorisation mechanisms.

    In the pull model the client simply invokes the business service
    (Fig. 3); in the push model it first obtains a capability from the
    capability service — cached and reused until it expires — and attaches
    it to the request (Fig. 2). *)

type t

val create :
  Dacs_ws.Service.t ->
  node:Dacs_net.Net.node_id ->
  subject:(string * Dacs_policy.Value.t) list ->
  t
(** [subject] must include a ["subject-id"] attribute. *)

val request :
  t ->
  pep:Dacs_net.Net.node_id ->
  action:string ->
  ?timeout:float ->
  ?retry:Dacs_net.Rpc.retry_policy ->
  (( Wire.access_outcome, Dacs_ws.Service.error) result -> unit) ->
  unit
(** Pull-model access: one call to the PEP through the bus's circuit
    breaker.  [retry] (default {!Dacs_net.Rpc.no_retry}) re-sends it
    with backoff ({!Dacs_net.Rpc.retry_after}) after a timeout or a
    breaker rejection, when the link to the PEP itself is lossy or
    partitioned.
    Raises [Invalid_argument] when [retry] fails
    {!Dacs_net.Rpc.validate_retry}. *)

val request_with_capability :
  t ->
  capability_service:Dacs_net.Net.node_id ->
  pep:Dacs_net.Net.node_id ->
  resource:string ->
  action:string ->
  ((Wire.access_outcome, Dacs_ws.Service.error) result -> unit) ->
  unit
(** Push-model access: obtain (or reuse a cached, still-valid) capability
    for (resource, action), then call the PEP with the assertion attached.
    Both calls take one attempt with the default 1 s timeout, through
    the bus's circuit breaker. *)

val drop_capabilities : t -> unit
(** Forget cached capabilities (forces re-issuance). *)

val capability_requests_made : t -> int
(** How many capability-request calls this client has issued (cache
    effectiveness measure for the push-vs-pull experiment). *)
