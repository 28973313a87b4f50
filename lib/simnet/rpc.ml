module Metrics = Dacs_telemetry.Metrics
module Trace = Dacs_telemetry.Trace

type error =
  | Timeout
  | No_such_service of string
  | Circuit_open of Net.node_id

let error_to_string = function
  | Timeout -> "timeout"
  | No_such_service s -> Printf.sprintf "no such service: %s" s
  | Circuit_open n -> Printf.sprintf "circuit open towards %s" n

(* --- resilience configuration ------------------------------------------- *)

type retry_policy = {
  attempts : int;
  base_delay : float;
  multiplier : float;
  max_delay : float;
  jitter : float;
}

let no_retry = { attempts = 1; base_delay = 0.0; multiplier = 1.0; max_delay = 0.0; jitter = 0.0 }

let default_retry =
  { attempts = 3; base_delay = 0.05; multiplier = 2.0; max_delay = 2.0; jitter = 0.2 }

type breaker_config = { failure_threshold : int; cooldown : float }

let default_breaker = { failure_threshold = 5; cooldown = 2.0 }

type breaker_state = Closed | Open | Half_open

(* Everything the bus keeps per target node: its breaker and the
   liveness evidence a failure detector reads.  [heard] holds one float
   — the instant the last reply or error frame arrived from the target,
   whoever it answered — in an unboxed array, so recording it allocates
   nothing. *)
type breaker = {
  mutable b_state : breaker_state;
  mutable consecutive_failures : int;
  mutable opened_at : float;
  mutable probe_in_flight : bool;
  heard : float array;
}

type resilience_stats = { retries : int; breaker_trips : int; breaker_rejections : int }

type slice = { src : string; off : int; len : int }
type writer = Buffer.t -> unit

let slice_to_string s = String.sub s.src s.off s.len

(* The per-service series of the RPC layer, each resolved in the registry
   the first time it is used — the same moment the series came into
   existence when every call looked it up — and held from then on. *)
type series = {
  calls : Metrics.counter Lazy.t;
  errors : Metrics.counter Lazy.t;
  served : Metrics.counter Lazy.t;
  latency : Metrics.histogram Lazy.t;
  batches : Metrics.counter Lazy.t;
  batch_parts : Metrics.counter Lazy.t;
  batch_size : Metrics.histogram Lazy.t;
  reply : string;  (* the category of a reply to a request sent as this service *)
}

type handler = caller:Net.node_id -> slice -> (writer -> unit) -> unit

(* A registered service: its handler, and the envelope every reply body
   is written in (see [serve_frame]). *)
type service = { handler : handler; reply_envelope : Buffer.t -> writer -> unit }

(* The resilience series of one calling node, resolved the same way.
   They are labelled by the caller, so a component resetting "its"
   series (e.g. Pep.reset_stats) and the bus-wide resilience_stats sum
   stay consistent: there is only one cell. *)
type caller_series = {
  retries : Metrics.counter Lazy.t;
  trips : Metrics.counter Lazy.t;
  rejections : Metrics.counter Lazy.t;
}

(* One attempt of a call, from its request frame to its completion: the
   pending-table entry that a reply, the timeout timer and [expire]
   complete.  It carries everything the completion needs — the
   caller's continuation included — so an attempt allocates no closure
   around it.  A [guarded] attempt reports its outcome to the target's
   breaker before the continuation runs.  [c_parts] is the number of
   parts a batch reply must carry (0 for a plain frame). *)
type call = {
  c_src : Net.node_id;
  c_dst : Net.node_id;
  c_series : series;
  c_started : float;
  c_span : Trace.span option;
  c_initiating : Trace.context option;
  c_guarded : bool;
  c_parts : int;
  c_k : (slice, error) result -> unit;
}

type t = {
  net : Net.t;
  services : (Net.node_id * string, service) Hashtbl.t;
  pending : (int, call) Hashtbl.t;
  mutable next_id : int;
  mutable breaker_config : breaker_config option;
  breakers : (Net.node_id, breaker) Hashtbl.t;
  metrics : Metrics.t;
  tracer : Trace.t;
  series : (string, series) Hashtbl.t;
  callers : (Net.node_id, caller_series) Hashtbl.t;
  inflight : Metrics.gauge Lazy.t;
  frame : Buffer.t;  (* scratch: the frame being written *)
  part : Buffer.t;  (* scratch: the batch part being written *)
  mutable dispatch : Net.message -> unit;  (* every node's handler, built once *)
}

let caller_series t src =
  match Hashtbl.find t.callers src with
  | s -> s
  | exception Not_found ->
    let labels = [ ("src", src) ] in
    let counter help name = lazy (Metrics.counter t.metrics ~help ~labels name) in
    let s =
      {
        retries = counter "Retry attempts issued after a failed attempt." "rpc_retries_total";
        trips = counter "Circuit-breaker opens observed." "rpc_breaker_trips_total";
        rejections = counter "Calls shed by an open breaker." "rpc_breaker_rejections_total";
      }
    in
    Hashtbl.add t.callers src s;
    s

let series_for t service =
  match Hashtbl.find t.series service with
  | s -> s
  | exception Not_found ->
    let labels = [ ("service", service) ] in
    let counter help name = lazy (Metrics.counter t.metrics ~help ~labels name) in
    let s =
      {
        calls = counter "RPC calls issued." "rpc_calls_total";
        errors = counter "RPC calls that failed (timeout, missing service, shed)." "rpc_errors_total";
        served = counter "RPC requests dispatched to a handler." "rpc_requests_served_total";
        latency =
          lazy
            (Metrics.histogram t.metrics ~help:"Round-trip latency of RPC calls (virtual seconds)." ~labels
               "rpc_call_latency_seconds");
        batches = counter "Batched RPC round-trips issued." "rpc_batches_total";
        batch_parts = counter "Individual queries carried inside batched round-trips." "rpc_batch_parts_total";
        batch_size =
          lazy
            (Metrics.histogram t.metrics ~help:"Queries coalesced per batched round-trip." ~labels
               "rpc_batch_size");
        reply = service ^ "-reply";
      }
    in
    Hashtbl.add t.series service s;
    s

(* Wire format: kind '|' id '|' service '|' body.  The few header bytes
   model transport framing; the body carries the real (XML) payload whose
   size dominates.  The body is the unframed remainder and may contain
   anything; the service name is percent-escaped so that '|' (and '%')
   in a service name cannot break the framing.  Headers are canonical:
   ids and part lengths are plain decimal digits without leading zeros,
   and a '%' in a header field starts one of the two escapes — so a frame
   that decodes re-encodes to the same bytes. *)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n = if n < 0 then Buffer.add_string buf (string_of_int n) else add_digits buf n

let add_escaped_service buf s =
  if String.contains s '|' || String.contains s '%' then
    String.iter
      (function
        | '|' -> Buffer.add_string buf "%7C"
        | '%' -> Buffer.add_string buf "%25"
        | c -> Buffer.add_char buf c)
      s
  else Buffer.add_string buf s

(* Whether every '%' in [s.[j..stop)] starts one of the two escapes. *)
let rec canonically_escaped s j stop =
  j >= stop
  ||
  if String.unsafe_get s j <> '%' then canonically_escaped s (j + 1) stop
  else
    j + 2 < stop
    && ((s.[j + 1] = '7' && s.[j + 2] = 'C') || (s.[j + 1] = '2' && s.[j + 2] = '5'))
    && canonically_escaped s (j + 3) stop

let rec unescape_into buf s j stop =
  if j < stop then
    if String.unsafe_get s j = '%' then begin
      Buffer.add_char buf (if s.[j + 1] = '7' then '|' else '%');
      unescape_into buf s (j + 3) stop
    end
    else begin
      Buffer.add_char buf (String.unsafe_get s j);
      unescape_into buf s (j + 1) stop
    end

(* [s.[i..stop)] spells [known] from its byte [j] on, and holds no '%'. *)
let rec spells s i stop known j =
  if i + j = stop then j = String.length known
  else
    j < String.length known
    &&
    let c = String.unsafe_get known j in
    c <> '%' && String.unsafe_get s (i + j) = c && spells s i stop known (j + 1)

(* The unescaped header field [s.[i..stop)], or [None] when a '%' in it
   starts neither escape.  A field without escapes that spells [known] is
   [known] itself, compared in place rather than copied. *)
let header_field ~known s i stop =
  if spells s i stop known 0 then Some known
  else if not (canonically_escaped s i stop) then None
  else if i = stop then Some ""
  else
    match String.index_from_opt s i '%' with
    | Some j when j < stop ->
      let buf = Buffer.create (stop - i) in
      unescape_into buf s i stop;
      Some (Buffer.contents buf)
    | Some _ | None -> Some (String.sub s i (stop - i))

let rec digits s j stop acc =
  if j = stop then acc
  else
    let c = String.unsafe_get s j in
    if c < '0' || c > '9' then -1 else digits s (j + 1) stop ((acc * 10) + (Char.code c - 48))

(* A canonical decimal in [s.[i..stop)]: non-empty, digits only, no
   leading zero, short enough not to overflow; -1 otherwise. *)
let decimal s i stop =
  let n = stop - i in
  if n < 1 || n > 18 || (n > 1 && s.[i] = '0') then -1 else digits s i stop 0

(* Batch bodies: length-prefixed parts ("<len>:<bytes>..."), so parts may
   contain anything — including '|' and further frames. *)

let add_part_length buf len =
  add_int buf len;
  Buffer.add_char buf ':'

(* Folds [f] over the parts of [src] from [i] to [stop]; [None] when the
   bytes are not a well-formed part sequence. *)
let rec fold_parts f src stop acc i =
  if i = stop then Some acc
  else
    match String.index_from_opt src i ':' with
    | Some colon when colon < stop ->
      let len = decimal src i colon in
      if len < 0 || colon + 1 + len > stop then None
      else fold_parts f src stop (f { src; off = colon + 1; len } acc) (colon + 1 + len)
    | Some _ | None -> None

let parts_of { src; off; len } =
  Option.map List.rev (fold_parts List.cons src (off + len) [] off)

(* The number of parts of a batch body; -1 when it is malformed. *)
let part_count { src; off; len } =
  match fold_parts (fun _ n -> n + 1) src (off + len) 0 off with Some n -> n | None -> -1

let encode_parts parts =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      add_part_length buf (String.length p);
      Buffer.add_string buf p)
    parts;
  Buffer.contents buf

let decode_parts s = Option.map (List.map slice_to_string) (parts_of { src = s; off = 0; len = String.length s })

type kind = K_request | K_traced | K_batch | K_traced_batch | K_reply | K_error

let kind_tag = function
  | K_request -> "Q"
  | K_traced -> "T"
  | K_batch -> "B"
  | K_traced_batch -> "BT"
  | K_reply -> "A"
  | K_error -> "E"

(* The header of every frame; [trace] is only written for traced kinds
   and replies leave the service empty. *)
let add_header buf kind id ~service ~trace =
  Buffer.add_string buf (kind_tag kind);
  Buffer.add_char buf '|';
  add_int buf id;
  Buffer.add_char buf '|';
  add_escaped_service buf service;
  Buffer.add_char buf '|';
  match kind with
  | K_traced | K_traced_batch ->
    add_escaped_service buf trace;
    Buffer.add_char buf '|'
  | K_request | K_batch | K_reply | K_error -> ()

type header = { kind : kind; id : int; service : string; trace : string; body : int }

(* The next '|' from [i] on, or the end of [s]. *)
let rec bar s i = if i >= String.length s || String.unsafe_get s i = '|' then i else bar s (i + 1)

let header ~known payload =
  let n = String.length payload in
  let first = bar payload 0 in
  let kind =
    match (first, if first > 0 then payload.[0] else ' ') with
    | 1, 'Q' -> Some K_request
    | 1, 'T' -> Some K_traced
    | 1, 'B' -> Some K_batch
    | 2, 'B' when payload.[1] = 'T' -> Some K_traced_batch
    | 1, 'A' -> Some K_reply
    | 1, 'E' -> Some K_error
    | _ -> None
  in
  match kind with
  | None -> None
  | Some _ when first >= n -> None
  | Some kind -> (
    let second = bar payload (first + 1) in
    let id = decimal payload (first + 1) second in
    let third = if second < n then bar payload (second + 1) else n in
    if id < 0 || third >= n then None
    else
      match header_field ~known payload (second + 1) third with
      | None -> None
      | Some service -> (
        match kind with
        | K_reply | K_error ->
          if service = "" then Some { kind; id; service; trace = ""; body = third + 1 } else None
        | K_request | K_batch -> Some { kind; id; service; trace = ""; body = third + 1 }
        | K_traced | K_traced_batch -> (
          let fourth = bar payload (third + 1) in
          if fourth >= n then None
          else
            match header_field ~known:"" payload (third + 1) fourth with
            | None -> None
            | Some trace -> Some { kind; id; service; trace; body = fourth + 1 })))

let body_slice payload h = { src = payload; off = h.body; len = String.length payload - h.body }

let frame kind id ?(service = "") ?(trace = "") body =
  let buf = Buffer.create (String.length body + 32) in
  add_header buf kind id ~service ~trace;
  Buffer.add_string buf body;
  Buffer.contents buf

let encode_request id service body = frame K_request id ~service body

(* The trace context travels as one extra escaped header segment; replies
   need none (the pending table already knows which span awaits them). *)
let encode_traced_request id service ~trace body = frame K_traced id ~service ~trace body

let encode_reply id body = frame K_reply id body
let encode_error id msg = frame K_error id msg
let encode_batch_request id service parts = frame K_batch id ~service (encode_parts parts)

let encode_traced_batch_request id service ~trace parts =
  frame K_traced_batch id ~service ~trace (encode_parts parts)

type frame =
  | Request of int * string * string
  | Traced_request of { id : int; service : string; trace : string; body : string }
  | Batch_request of int * string * string list
  | Traced_batch_request of { id : int; service : string; trace : string; parts : string list }
  | Reply of int * string
  | Error_frame of int * string

let decode payload =
  match header ~known:"" payload with
  | None -> None
  | Some h -> (
    let body () = slice_to_string (body_slice payload h) in
    let parts () = Option.map (List.map slice_to_string) (parts_of (body_slice payload h)) in
    match h.kind with
    | K_request -> Some (Request (h.id, h.service, body ()))
    | K_traced -> Some (Traced_request { id = h.id; service = h.service; trace = h.trace; body = body () })
    | K_batch -> Option.map (fun parts -> Batch_request (h.id, h.service, parts)) (parts ())
    | K_traced_batch ->
      Option.map
        (fun parts -> Traced_batch_request { id = h.id; service = h.service; trace = h.trace; parts })
        (parts ())
    | K_reply -> Some (Reply (h.id, body ()))
    | K_error -> Some (Error_frame (h.id, body ())))

(* The frame body [write] produces, bare: the envelope of callers and
   services that add none. *)
let bare buf (write : writer) = write buf

(* Writes one frame into the bus's scratch buffer and sends it. *)
let send_frame t ~src ~dst ~category kind id ~service ~trace ~envelope write =
  let buf = t.frame in
  Buffer.clear buf;
  add_header buf kind id ~service ~trace;
  envelope buf write;
  Net.send t.net ~src ~dst ~category (Buffer.contents buf)

(* The bytes [write] produces, as one batch part ("<len>:<bytes>"). *)
let add_written_part t buf write =
  Buffer.clear t.part;
  write t.part;
  add_part_length buf (Buffer.length t.part);
  Buffer.add_buffer buf t.part

let written t ~envelope write =
  Buffer.clear t.part;
  envelope t.part write;
  Buffer.contents t.part

let send_error t (msg : Net.message) id text =
  send_frame t ~src:msg.Net.dst ~dst:msg.Net.src ~category:"rpc-error" K_error id ~service:"" ~trace:""
    ~envelope:bare (fun buf -> Buffer.add_string buf text)

(* A reply's category is its request's with "-reply"; a request sent as
   its service (as [issue] sends them) finds it resolved in the series. *)
let reply_category (msg : Net.message) service series =
  if String.equal msg.Net.category service then series.reply else msg.Net.category ^ "-reply"

(* The server span of one dispatch, started only when tracing is on. *)
let serve_span t (msg : Net.message) ~label service trace =
  if not (Trace.enabled t.tracer) then None
  else begin
    let s =
      match trace with
      | Some ctx -> Trace.start_span t.tracer ~parent:ctx (label ^ service)
      | None -> Trace.start_span t.tracer (label ^ service)
    in
    Trace.annotate s "node" msg.Net.dst;
    Trace.annotate s "caller" msg.Net.src;
    Some s
  end

(* Runs the handler on one request, under the server span when there is
   one. *)
let run_handler t span (handler : handler) ~caller body reply =
  match span with
  | None -> handler ~caller body reply
  | Some s ->
    let saved = Trace.current t.tracer in
    Trace.set_current t.tracer (Some (Trace.context s));
    handler ~caller body reply;
    Trace.set_current t.tracer saved

(* The reply to one dispatched request.  The server span closes when the
   handler replies — possibly much later than the handler returned,
   after its own nested calls. *)
let reply_once t (msg : Net.message) id ~category ~span ~envelope write =
  (match span with Some s -> Trace.finish t.tracer s | None -> ());
  send_frame t ~src:msg.Net.dst ~dst:msg.Net.src ~category K_reply id ~service:"" ~trace:""
    ~envelope write

let dispatch_request t (msg : Net.message) id service trace body =
  match Hashtbl.find t.services (msg.Net.dst, service) with
  | exception Not_found -> send_error t msg id ("no-such-service:" ^ service)
  | { handler; reply_envelope = envelope } ->
    let series = series_for t service in
    Metrics.inc (Lazy.force series.served);
    let category = reply_category msg service series in
    let span = serve_span t msg ~label:"serve:" service trace in
    run_handler t span handler ~caller:msg.Net.src body
      (reply_once t msg id ~category ~span ~envelope)

(* A batch dispatches each part to the ordinary per-request handler and
   replies once, when the last part's (possibly asynchronous) reply has
   arrived — one round-trip, one fault envelope for the whole batch. *)
let dispatch_batch t (msg : Net.message) id service trace parts =
  match Hashtbl.find t.services (msg.Net.dst, service) with
  | exception Not_found -> send_error t msg id ("no-such-service:" ^ service)
  | { handler; reply_envelope = envelope } ->
    let n = List.length parts in
    let series = series_for t service in
    Metrics.inc ~by:n (Lazy.force series.served);
    let span = serve_span t msg ~label:"serve-batch:" service trace in
    Option.iter (fun s -> Trace.annotate s "batch" (string_of_int n)) span;
    let replies = Array.make n "" in
    let outstanding = ref n in
    let reply_part i write =
      replies.(i) <- written t ~envelope write;
      decr outstanding;
      if !outstanding = 0 then
        reply_once t msg id ~category:(reply_category msg service series) ~span ~envelope:bare
          (fun buf ->
            Array.iter
              (fun r ->
                add_part_length buf (String.length r);
                Buffer.add_string buf r)
              replies)
    in
    List.iteri
      (fun i part -> run_handler t span handler ~caller:msg.Net.src part (reply_part i))
      parts

let breaker_for t dst =
  match Hashtbl.find t.breakers dst with
  | b -> b
  | exception Not_found ->
    let b =
      {
        b_state = Closed;
        consecutive_failures = 0;
        opened_at = neg_infinity;
        probe_in_flight = false;
        heard = [| neg_infinity |];
      }
    in
    Hashtbl.add t.breakers dst b;
    b

let heard_from t dst =
  match Hashtbl.find t.breakers dst with b -> b.heard.(0) | exception Not_found -> neg_infinity

(* --- circuit breaker ------------------------------------------------------ *)

let set_breaker t config = t.breaker_config <- config

let breaker_state t dst =
  match (t.breaker_config, Hashtbl.find_opt t.breakers dst) with
  | None, _ | _, None -> Closed
  | Some cfg, Some b ->
    (* An open breaker past its cooldown admits a probe on the next call;
       report it as half-open so observers see the recoverable state. *)
    (match b.b_state with
    | Open when Net.now t.net >= b.opened_at +. cfg.cooldown -> Half_open
    | s -> s)

let breaker_sheds t dst =
  match t.breaker_config with
  | None -> false
  | Some cfg -> (
    match Hashtbl.find t.breakers dst with
    | exception Not_found -> false
    | b -> (
      match b.b_state with
      | Closed -> false
      | Open -> Net.now t.net < b.opened_at +. cfg.cooldown
      | Half_open -> b.probe_in_flight))

(* A trace event naming [dst], built only when tracing is on. *)
let record_towards t what dst = if Trace.enabled t.tracer then Trace.record t.tracer (what ^ dst)

let record_shed t ~src dst =
  Metrics.inc (Lazy.force (caller_series t src).rejections);
  record_towards t "breaker-rejected " dst

(* [true] when the attempt may be sent. *)
let breaker_admit t ~src dst =
  match t.breaker_config with
  | None -> true
  | Some cfg -> (
    let b = breaker_for t dst in
    match b.b_state with
    | Closed -> true
    | Open ->
      if Net.now t.net >= b.opened_at +. cfg.cooldown then begin
        b.b_state <- Half_open;
        b.probe_in_flight <- true;
        record_towards t "breaker-half-open " dst;
        true
      end
      else begin
        record_shed t ~src dst;
        false
      end
    | Half_open ->
      if b.probe_in_flight then begin
        record_shed t ~src dst;
        false
      end
      else begin
        b.probe_in_flight <- true;
        true
      end)

let breaker_success t dst =
  match t.breaker_config with
  | None -> ()
  | Some _ -> (
    let b = breaker_for t dst in
    match b.b_state with
    | Half_open ->
      b.b_state <- Closed;
      b.probe_in_flight <- false;
      b.consecutive_failures <- 0;
      record_towards t "breaker-closed " dst
    | Closed -> b.consecutive_failures <- 0
    | Open -> () (* a straggler reply from before the trip; stay open until probed *))

let breaker_failure t ~src dst =
  match t.breaker_config with
  | None -> ()
  | Some cfg -> (
    let b = breaker_for t dst in
    let trip () =
      b.b_state <- Open;
      b.probe_in_flight <- false;
      b.opened_at <- Net.now t.net;
      Metrics.inc (Lazy.force (caller_series t src).trips);
      record_towards t "breaker-opened " dst
    in
    match b.b_state with
    | Half_open -> trip ()
    | Closed ->
      b.consecutive_failures <- b.consecutive_failures + 1;
      if b.consecutive_failures >= cfg.failure_threshold then trip ()
    | Open -> ())

(* What one attempt's outcome tells the target's breaker: a reply is a
   success, a timeout a failure; a missing service means the target
   answered, which is neither. *)
let account t ~src dst = function
  | Ok _ -> breaker_success t dst
  | Error Timeout -> breaker_failure t ~src dst
  | Error (No_such_service _ | Circuit_open _) -> ()

(* --- calls ----------------------------------------------------------------- *)

let inflight_changed t = Metrics.set_gauge_count (Lazy.force t.inflight) (Hashtbl.length t.pending)

(* A batch reply must carry exactly one part per query: a peer that
   answers with the wrong arity is indistinguishable from a lost reply to
   the caller, so the whole envelope fails — and its breaker counts the
   failure. *)
let checked_arity c = function
  | Ok reply when c.c_parts > 0 && part_count reply <> c.c_parts -> Error Timeout
  | result -> result

(* The attempt is over: record it, then run the caller's continuation
   with the ambient trace context restored to the caller's, so nested
   calls made from continuations still stitch into the same tree.  The
   breaker of a guarded attempt hears the outcome the caller gets. *)
let finish t c result =
  Metrics.observe (Lazy.force c.c_series.latency) (Net.now t.net -. c.c_started);
  (match result with
  | Ok _ -> ()
  | Error e -> (
    Metrics.inc (Lazy.force c.c_series.errors);
    match c.c_span with
    | Some s -> Trace.set_status s (Trace.Span_error (error_to_string e))
    | None -> ()));
  (match c.c_span with Some s -> Trace.finish t.tracer s | None -> ());
  inflight_changed t;
  let saved = Trace.current t.tracer in
  Trace.set_current t.tracer c.c_initiating;
  let result = checked_arity c result in
  if c.c_guarded then account t ~src:c.c_src c.c_dst result;
  c.c_k result;
  Trace.set_current t.tracer saved

(* A call completes only with an answer from the node it was sent to,
   delivered to the node that made it: a reply after the timeout, from
   any other node, or to any other node is dropped.  Ids are one
   sequence for the whole bus, so without the second check a node could
   relay — send the callee a request under another node's pending id —
   and the callee's answer to it would complete that other call. *)
let complete t (msg : Net.message) id result =
  match Hashtbl.find t.pending id with
  | c when String.equal c.c_dst msg.Net.src && String.equal c.c_src msg.Net.dst ->
    Hashtbl.remove t.pending id;
    finish t c result
  | _ -> ()
  | exception Not_found -> ()

(* The bus's own verdict on a call still pending: a timeout. *)
let time_out t id =
  match Hashtbl.find t.pending id with
  | c ->
    Hashtbl.remove t.pending id;
    finish t c (Error Timeout)
  | exception Not_found -> ()

(* The trace context a request frame carries, if it is of a traced kind. *)
let trace_context h =
  match h.kind with
  | K_traced | K_traced_batch -> Trace.context_of_string h.trace
  | K_request | K_batch | K_reply | K_error -> None

let handle_message t (msg : Net.message) =
  let payload = msg.Net.payload in
  (* A request's category is its service, so the service field is
     matched against it in place. *)
  match header ~known:msg.Net.category payload with
  | None -> ()
  | Some h -> (
    match h.kind with
    | K_request | K_traced ->
      dispatch_request t msg h.id h.service (trace_context h) (body_slice payload h)
    | K_batch | K_traced_batch -> (
      match parts_of (body_slice payload h) with
      | None -> ()
      | Some parts -> dispatch_batch t msg h.id h.service (trace_context h) parts)
    | K_reply ->
      (breaker_for t msg.Net.src).heard.(0) <- Net.now t.net;
      complete t msg h.id (Ok (body_slice payload h))
    | K_error ->
      (breaker_for t msg.Net.src).heard.(0) <- Net.now t.net;
      let err =
        let prefix = "no-such-service:" in
        let np = String.length prefix in
        let n = String.length payload - h.body in
        if n >= np && String.sub payload h.body np = prefix then
          No_such_service (String.sub payload (h.body + np) (n - np))
        else Timeout
      in
      complete t msg h.id (Error err))

let create net =
  let now () = Net.now net in
  let next_id () = Dacs_crypto.Rng.next_int64 (Engine.rng (Net.engine net)) in
  let metrics = Metrics.create ~now () in
  let t =
    {
      net;
      services = Hashtbl.create 64;
      pending = Hashtbl.create 64;
      next_id = 0;
      breaker_config = Some default_breaker;
      breakers = Hashtbl.create 16;
      metrics;
      tracer = Trace.create ~now ~next_id ();
      series = Hashtbl.create 16;
      callers = Hashtbl.create 16;
      inflight =
        lazy (Metrics.gauge metrics ~help:"RPC calls awaiting a reply." "rpc_calls_in_flight");
      frame = Buffer.create 1024;
      part = Buffer.create 1024;
      dispatch = ignore;
    }
  in
  t.dispatch <- handle_message t;
  t

let net t = t.net
let metrics t = t.metrics
let tracer t = t.tracer
let set_tracing t on = Trace.set_enabled t.tracer on

let ensure_dispatch t node =
  Net.add_node t.net node;
  Net.set_handler t.net node t.dispatch

let serve_frame t ~node ~service ?(envelope = bare) handler =
  ensure_dispatch t node;
  Hashtbl.replace t.services (node, service) { handler; reply_envelope = envelope }

(* Shared correlation machinery of single and batched calls: id
   allocation, one client span per attempt, the pending-table entry and
   its timeout timer.  The request frame is [kind] (or [traced] when a
   trace context rides along) with [envelope] writing [write]'s body. *)
let issue t series ~src ~dst ~service ~timeout ~span_label ~batch ~kind ~traced ~guarded ~envelope
    write k =
  ensure_dispatch t src;
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  (* One client span per call attempt, parented on the ambient context —
     the span under which the caller's code is currently running.  Its
     context rides inside the request frame. *)
  let span =
    if Trace.enabled t.tracer then begin
      let s = Trace.start_span t.tracer (span_label ^ service) in
      Trace.annotate s "src" src;
      Trace.annotate s "dst" dst;
      if batch > 0 then Trace.annotate s "batch" (string_of_int batch);
      Some s
    end
    else None
  in
  Hashtbl.replace t.pending id
    {
      c_src = src;
      c_dst = dst;
      c_series = series;
      c_started = Net.now t.net;
      c_span = span;
      c_initiating = Trace.current t.tracer;
      c_guarded = guarded;
      c_parts = batch;
      c_k = k;
    };
  inflight_changed t;
  (match span with
  | Some s ->
    send_frame t ~src ~dst ~category:service traced id ~service
      ~trace:(Trace.context_to_string (Trace.context s))
      ~envelope write
  | None -> send_frame t ~src ~dst ~category:service kind id ~service ~trace:"" ~envelope write);
  Engine.schedule (Net.engine t.net) ~delay:timeout (fun () -> time_out t id)

(* One attempt.  With [breaker] the target's breaker admits it first —
   a rejected one fails at once with [Circuit_open], sending nothing and
   counting no call — and hears its outcome. *)
let call_frame t ~src ~dst ~service ?(timeout = 1.0) ?(breaker = false) ?(envelope = bare) write k =
  if breaker && not (breaker_admit t ~src dst) then k (Error (Circuit_open dst))
  else begin
    let series = series_for t service in
    Metrics.inc (Lazy.force series.calls);
    issue t series ~src ~dst ~service ~timeout ~span_label:"rpc:" ~batch:0 ~kind:K_request
      ~traced:K_traced ~guarded:breaker ~envelope write k
  end

(* [finish] has checked the reply's arity against the batch's. *)
let batch_reply k = function
  | Error e -> k (Error e)
  | Ok reply -> (
    match parts_of reply with Some parts -> k (Ok parts) | None -> k (Error Timeout))

let call_batch_frame t ~src ~dst ~service ?(breaker = false) writes k =
  let n = List.length writes in
  if n = 0 then invalid_arg "Rpc.call_batch_frame: empty batch";
  if breaker && not (breaker_admit t ~src dst) then k (Error (Circuit_open dst))
  else begin
    let series = series_for t service in
    Metrics.inc (Lazy.force series.calls);
    Metrics.inc (Lazy.force series.batches);
    Metrics.inc ~by:n (Lazy.force series.batch_parts);
    Metrics.observe (Lazy.force series.batch_size) (float_of_int n);
    issue t series ~src ~dst ~service ~timeout:1.0 ~span_label:"rpc-batch:" ~batch:n ~kind:K_batch
      ~traced:K_traced_batch ~guarded:breaker ~envelope:bare
      (fun buf -> List.iter (add_written_part t buf) writes)
      (batch_reply k)
  end

let calls_in_flight t = Hashtbl.length t.pending

(* Ids are collected first and failed in ascending order: [Hashtbl]
   iteration order is not a contract, and a continuation may issue new
   calls — those are not this expiry's to fail. *)
let expire t dst =
  let ids =
    Hashtbl.fold (fun id c acc -> if String.equal c.c_dst dst then id :: acc else acc) t.pending []
  in
  List.iter (fun id -> time_out t id) (List.sort Int.compare ids)

(* --- retries ---------------------------------------------------------------- *)

let resilience_stats t =
  {
    retries = Metrics.sum_counter t.metrics "rpc_retries_total";
    breaker_trips = Metrics.sum_counter t.metrics "rpc_breaker_trips_total";
    breaker_rejections = Metrics.sum_counter t.metrics "rpc_breaker_rejections_total";
  }

let validate_retry retry =
  if retry.attempts < 1 || not (retry.jitter >= 0.0 && retry.jitter <= 1.0) then
    invalid_arg "Rpc.validate_retry: attempts must be >= 1 and jitter in [0, 1]"

let backoff_delay t retry failures =
  let d = ref retry.base_delay in
  for _ = 2 to failures do
    d := !d *. retry.multiplier
  done;
  let d = Float.min retry.max_delay !d in
  if retry.jitter <= 0.0 then d
  else begin
    (* Deterministic jitter: drawn from the engine's seeded RNG, so a
       rerun with the same seed backs off at exactly the same instants. *)
    let u = Dacs_crypto.Rng.float (Engine.rng (Net.engine t.net)) 1.0 in
    d *. (1.0 +. (retry.jitter *. ((2.0 *. u) -. 1.0)))
  end

(* The step every re-send takes after a failed attempt, whoever owns the
   re-send.  A missing service is final: the target answered, and
   retrying the same missing service cannot succeed. *)
let retry_after t ~src ~dst retry ~failures err resend =
  match err with
  | No_such_service _ -> false
  | Timeout | Circuit_open _ when failures >= retry.attempts -> false
  | Timeout | Circuit_open _ ->
    let delay = backoff_delay t retry failures in
    Metrics.inc (Lazy.force (caller_series t src).retries);
    if Trace.enabled t.tracer then
      Trace.record t.tracer
        (Printf.sprintf "retry %d -> %s after %s" (failures + 1) dst (error_to_string err));
    (* The backoff wait runs as a fresh engine callback with no ambient
       trace context; re-instate the one the failure was delivered under
       — the initiator's — so every attempt's span lands under the same
       parent. *)
    let initiating = Trace.current t.tracer in
    Engine.schedule (Net.engine t.net) ~delay (fun () ->
        let saved = Trace.current t.tracer in
        Trace.set_current t.tracer initiating;
        resend ();
        Trace.set_current t.tracer saved);
    true

let retrying t ~src ~dst retry ~failed attempt k =
  let rec go failures =
    attempt (fun r ->
        match failed r with
        | Some err when retry_after t ~src ~dst retry ~failures err (fun () -> go (failures + 1)) -> ()
        | Some _ | None -> k r)
  in
  go 1
