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

(* A registered service in its one shape: request/reply, with the
   envelope every reply body is written in (see [serve_frame]), or
   one-way, whose handler takes [()] where the other takes its reply. *)
type service =
  | Answers of {
      handler : caller:Net.node_id -> slice -> (writer -> unit) -> unit;
      reply_envelope : Buffer.t -> writer -> unit;
      name : string;
      series : series;
    }
  | Cast of { handler : caller:Net.node_id -> slice -> unit -> unit; series : series }

(* The resilience series of one calling node, resolved the same way.
   They are labelled by the caller, so a component resetting "its"
   series (e.g. Pep.reset_stats) and the bus-wide resilience_stats sum
   stay consistent: there is only one cell. *)
type caller_series = {
  retries : Metrics.counter Lazy.t;
  trips : Metrics.counter Lazy.t;
  rejections : Metrics.counter Lazy.t;
}

type kind =
  | K_request
  | K_traced
  | K_batch
  | K_traced_batch
  | K_one_way
  | K_traced_one_way
  | K_reply
  | K_error

(* A frame's header as parsed: the bus parses every frame that arrives
   into its own, [decode] into a fresh one. *)
type header = {
  mutable kind : kind;
  mutable id : int;
  mutable service : string;
  mutable trace : string;
  mutable body : int;  (* the offset of the body in the frame *)
}

let fresh_header () = { kind = K_error; id = 0; service = ""; trace = ""; body = 0 }

(* The calls awaiting an answer: one attempt each, from its request frame
   to its completion by a reply, its timeout timer or [expire].  Ids are
   dense and sequential, so call [id] lives in slot
   [id land (capacity - 1)] of parallel arrays, one per field of the
   call, and issuing or completing a call allocates nothing here.
   [p_ids] names the id a slot holds, -1 when it is free; the table
   grows when a new id finds its slot taken, so its size follows the
   span of ids pending at once.  A slot carries
   everything the completion needs — the caller's continuation included
   — so an attempt allocates no closure around it.  A [guarded] attempt
   reports its outcome to the target's breaker before the continuation
   runs.  [p_parts] is the number of parts a batch reply must carry (0
   for a plain frame). *)
type pending = {
  mutable p_ids : int array;
  mutable p_src : Net.node_id array;
  mutable p_dst : Net.node_id array;
  mutable p_series : series array;
  mutable p_started : float array;
  mutable p_span : Trace.span option array;
  mutable p_initiating : Trace.context option array;
  mutable p_guarded : bool array;
  mutable p_parts : int array;
  mutable p_k : ((slice, error) result -> unit) array;
  mutable p_count : int;
}

type t = {
  net : Net.t;
  services : (Net.node_id, (string, service) Hashtbl.t) Hashtbl.t;  (* per node, by name *)
  mutable pending : pending;
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
  arrived : header;  (* scratch: the header of the frame being handled *)
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

(* Every serve, call, cast and batch resolves its service here, so a
   name holding the frame separator is refused once, when first met. *)
let series_for t service =
  match Hashtbl.find t.series service with
  | s -> s
  | exception Not_found ->
    if String.contains service '|' then invalid_arg ("Rpc: service name holds '|': " ^ service);
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
   anything; a header field is the bytes between two bars, written and
   read verbatim, which is why no service name may hold '|'
   ([series_for] refuses one).  Headers are canonical: ids and part
   lengths are plain decimal digits without leading zeros — so a frame
   that decodes re-encodes to the same bytes. *)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n = if n < 0 then Buffer.add_string buf (string_of_int n) else add_digits buf n

(* [s.[i..stop)] spells [known] from its byte [j] on. *)
let rec spells s i stop known j =
  if i + j = stop then j = String.length known
  else
    j < String.length known
    && String.unsafe_get s (i + j) = String.unsafe_get known j
    && spells s i stop known (j + 1)

(* The header field [s.[i..stop)].  A field that spells [known] is
   [known] itself, compared in place rather than copied. *)
let header_field ~known s i stop =
  if spells s i stop known 0 then known else if i = stop then "" else String.sub s i (stop - i)

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

let kind_tag = function
  | K_request -> "Q"
  | K_traced -> "T"
  | K_batch -> "B"
  | K_traced_batch -> "BT"
  | K_one_way -> "O"
  | K_traced_one_way -> "OT"
  | K_reply -> "A"
  | K_error -> "E"

(* The header of every frame; [trace] is only written for traced kinds
   and replies leave the service empty. *)
let add_header buf kind id ~service ~trace =
  Buffer.add_string buf (kind_tag kind);
  Buffer.add_char buf '|';
  add_int buf id;
  Buffer.add_char buf '|';
  Buffer.add_string buf service;
  Buffer.add_char buf '|';
  match kind with
  | K_traced | K_traced_batch | K_traced_one_way ->
    Buffer.add_string buf trace;
    Buffer.add_char buf '|'
  | K_request | K_batch | K_one_way | K_reply | K_error -> ()

(* The next '|' from [i] on, or the end of [s]. *)
let rec bar s i = if i >= String.length s || String.unsafe_get s i = '|' then i else bar s (i + 1)

(* Fills [h] with the header of [payload]; [false] when it is not a
   well-formed, canonical one (and [h] is then unspecified).  A one-way
   frame is answered by nobody, so its id is always 0. *)
let parse_header h ~known payload =
  let n = String.length payload in
  let first = bar payload 0 in
  let kind =
    match (first, if first > 0 then payload.[0] else ' ') with
    | 1, 'Q' -> Some K_request
    | 1, 'T' -> Some K_traced
    | 1, 'B' -> Some K_batch
    | 2, 'B' when payload.[1] = 'T' -> Some K_traced_batch
    | 1, 'O' -> Some K_one_way
    | 2, 'O' when payload.[1] = 'T' -> Some K_traced_one_way
    | 1, 'A' -> Some K_reply
    | 1, 'E' -> Some K_error
    | _ -> None
  in
  match kind with
  | None -> false
  | Some _ when first >= n -> false
  | Some kind -> (
    let second = bar payload (first + 1) in
    let id = decimal payload (first + 1) second in
    let third = if second < n then bar payload (second + 1) else n in
    id >= 0 && third < n
    &&
    let service = header_field ~known payload (second + 1) third in
    h.kind <- kind;
    h.id <- id;
    h.service <- service;
    h.trace <- "";
    h.body <- third + 1;
    match kind with
    | K_reply | K_error -> service = ""
    | K_request | K_batch -> true
    | K_one_way -> id = 0
    | K_traced_one_way when id <> 0 -> false
    | K_traced | K_traced_batch | K_traced_one_way ->
      let fourth = bar payload (third + 1) in
      fourth < n
      && begin
        h.trace <- header_field ~known:"" payload (third + 1) fourth;
        h.body <- fourth + 1;
        true
      end)

let body_slice payload body = { src = payload; off = body; len = String.length payload - body }

let frame kind id ?(service = "") ?(trace = "") body =
  let buf = Buffer.create (String.length body + 32) in
  add_header buf kind id ~service ~trace;
  Buffer.add_string buf body;
  Buffer.contents buf

let encode_request id service body = frame K_request id ~service body

(* The trace context travels as one extra header segment; replies
   need none (the pending table already knows which span awaits them). *)
let encode_traced_request id service ~trace body = frame K_traced id ~service ~trace body

let encode_reply id body = frame K_reply id body
let encode_error id msg = frame K_error id msg
let encode_batch_request id service parts = frame K_batch id ~service (encode_parts parts)

let encode_traced_batch_request id service ~trace parts =
  frame K_traced_batch id ~service ~trace (encode_parts parts)

let encode_one_way service body = frame K_one_way 0 ~service body
let encode_traced_one_way service ~trace body = frame K_traced_one_way 0 ~service ~trace body

type frame =
  | Request of int * string * string
  | Traced_request of { id : int; service : string; trace : string; body : string }
  | Batch_request of int * string * string list
  | Traced_batch_request of { id : int; service : string; trace : string; parts : string list }
  | One_way of string * string
  | Traced_one_way of { service : string; trace : string; body : string }
  | Reply of int * string
  | Error_frame of int * string

let decode payload =
  let h = fresh_header () in
  if not (parse_header h ~known:"" payload) then None
  else begin
    let body () = slice_to_string (body_slice payload h.body) in
    let parts () = Option.map (List.map slice_to_string) (parts_of (body_slice payload h.body)) in
    match h.kind with
    | K_request -> Some (Request (h.id, h.service, body ()))
    | K_traced -> Some (Traced_request { id = h.id; service = h.service; trace = h.trace; body = body () })
    | K_batch -> Option.map (fun parts -> Batch_request (h.id, h.service, parts)) (parts ())
    | K_traced_batch ->
      Option.map
        (fun parts -> Traced_batch_request { id = h.id; service = h.service; trace = h.trace; parts })
        (parts ())
    | K_one_way -> Some (One_way (h.service, body ()))
    | K_traced_one_way -> Some (Traced_one_way { service = h.service; trace = h.trace; body = body () })
    | K_reply -> Some (Reply (h.id, body ()))
    | K_error -> Some (Error_frame (h.id, body ()))
  end

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
let reply_category (msg : Net.message) ~name series =
  if String.equal msg.Net.category name then series.reply else msg.Net.category ^ "-reply"

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

(* Runs the handler on one request or one-way frame, under the server
   span when there is one. *)
let run_handler t span handler ~caller body reply =
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

(* A request/reply service's reply in its envelope: a reply continuation
   holding the service, not its fields, is one word smaller. *)
let answer t msg id ~span srv write =
  match srv with
  | Answers { reply_envelope; name; series; _ } ->
    reply_once t msg id ~category:(reply_category msg ~name series) ~span ~envelope:reply_envelope write
  | Cast _ -> ()

(* The service [node] offers under [name]; raises [Not_found]. *)
let find_service t node name = Hashtbl.find (Hashtbl.find t.services node) name

let dispatch_request t (msg : Net.message) id service trace body =
  match find_service t msg.Net.dst service with
  | Answers { handler; series; _ } as srv ->
    Metrics.inc (Lazy.force series.served);
    let span = serve_span t msg ~label:"serve:" service trace in
    run_handler t span handler ~caller:msg.Net.src body (fun write -> answer t msg id ~span srv write)
  | Cast _ | (exception Not_found) -> send_error t msg id ("no-such-service:" ^ service)

(* A one-way frame runs only a one-way handler, its server span closing
   when it returns, and a request or batch only a request/reply one.  A
   one-way frame to a missing or request/reply service is dropped. *)
let dispatch_one_way t (msg : Net.message) service trace body =
  match find_service t msg.Net.dst service with
  | Cast { handler; series } ->
    Metrics.inc (Lazy.force series.served);
    let span = serve_span t msg ~label:"serve:" service trace in
    run_handler t span handler ~caller:msg.Net.src body ();
    (match span with Some s -> Trace.finish t.tracer s | None -> ())
  | Answers _ | (exception Not_found) -> ()

(* A batch dispatches each part to the ordinary per-request handler and
   replies once, when the last part's (possibly asynchronous) reply has
   arrived — one round-trip, one fault envelope for the whole batch. *)
let dispatch_batch t (msg : Net.message) id service trace parts =
  match find_service t msg.Net.dst service with
  | Cast _ | (exception Not_found) -> send_error t msg id ("no-such-service:" ^ service)
  | Answers { handler; reply_envelope; name; series } ->
    let n = List.length parts in
    Metrics.inc ~by:n (Lazy.force series.served);
    let span = serve_span t msg ~label:"serve-batch:" service trace in
    Option.iter (fun s -> Trace.annotate s "batch" (string_of_int n)) span;
    let replies = Array.make n "" in
    let outstanding = ref n in
    let reply_part i write =
      replies.(i) <- written t ~envelope:reply_envelope write;
      decr outstanding;
      if !outstanding = 0 then
        reply_once t msg id ~category:(reply_category msg ~name series) ~span ~envelope:bare (fun buf ->
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

(* What an empty slot of the pending table holds. *)
let no_series =
  let none () = invalid_arg "Rpc: no call in this slot" in
  {
    calls = lazy (none ());
    errors = lazy (none ());
    served = lazy (none ());
    latency = lazy (none ());
    batches = lazy (none ());
    batch_parts = lazy (none ());
    batch_size = lazy (none ());
    reply = "";
  }

let no_k (_ : (slice, error) result) = ()

let make_pending capacity =
  {
    p_ids = Array.make capacity (-1);
    p_src = Array.make capacity "";
    p_dst = Array.make capacity "";
    p_series = Array.make capacity no_series;
    p_started = Array.make capacity 0.0;
    p_span = Array.make capacity None;
    p_initiating = Array.make capacity None;
    p_guarded = Array.make capacity false;
    p_parts = Array.make capacity 0;
    p_k = Array.make capacity no_k;
    p_count = 0;
  }

let slot_of p id = id land (Array.length p.p_ids - 1)

let store p slot ~id ~src ~dst ~series ~started ~span ~initiating ~guarded ~parts ~k =
  p.p_ids.(slot) <- id;
  p.p_src.(slot) <- src;
  p.p_dst.(slot) <- dst;
  p.p_series.(slot) <- series;
  p.p_started.(slot) <- started;
  p.p_span.(slot) <- span;
  p.p_initiating.(slot) <- initiating;
  p.p_guarded.(slot) <- guarded;
  p.p_parts.(slot) <- parts;
  p.p_k.(slot) <- k

(* Empties a slot, dropping what would keep a finished call's garbage
   alive (node ids and series live as long as the bus). *)
let release p slot =
  p.p_ids.(slot) <- -1;
  p.p_span.(slot) <- None;
  p.p_initiating.(slot) <- None;
  p.p_k.(slot) <- no_k;
  p.p_count <- p.p_count - 1

(* A table whose capacity exceeds the span of pending ids up to [id], so
   every pending call keeps a slot of its own, with each call moved to
   its new slot. *)
let regrown p id =
  let lowest = ref id in
  Array.iter (fun i -> if i >= 0 && i < !lowest then lowest := i) p.p_ids;
  let capacity = ref (2 * Array.length p.p_ids) in
  while !capacity <= id - !lowest do
    capacity := 2 * !capacity
  done;
  let q = make_pending !capacity in
  Array.iteri
    (fun slot i ->
      if i >= 0 then
        store q (slot_of q i) ~id:i ~src:p.p_src.(slot) ~dst:p.p_dst.(slot) ~series:p.p_series.(slot)
          ~started:p.p_started.(slot) ~span:p.p_span.(slot) ~initiating:p.p_initiating.(slot)
          ~guarded:p.p_guarded.(slot) ~parts:p.p_parts.(slot) ~k:p.p_k.(slot))
    p.p_ids;
  q.p_count <- p.p_count;
  q

let inflight_changed t = Metrics.set_gauge_count (Lazy.force t.inflight) t.pending.p_count

(* A batch reply must carry exactly one part per query: a peer that
   answers with the wrong arity is indistinguishable from a lost reply to
   the caller, so the whole envelope fails — and its breaker counts the
   failure. *)
let checked_arity parts = function
  | Ok reply when parts > 0 && part_count reply <> parts -> Error Timeout
  | result -> result

(* The attempt in [slot] is over: take it out of the table, record it,
   then run the caller's continuation with the ambient trace context
   restored to the caller's, so nested calls made from continuations
   still stitch into the same tree.  The breaker of a guarded attempt
   hears the outcome the caller gets. *)
let finish t slot result =
  let p = t.pending in
  let src = p.p_src.(slot) and dst = p.p_dst.(slot) and series = p.p_series.(slot) in
  let span = p.p_span.(slot) and initiating = p.p_initiating.(slot) in
  let guarded = p.p_guarded.(slot) and parts = p.p_parts.(slot) and k = p.p_k.(slot) in
  Metrics.observe (Lazy.force series.latency) (Net.now t.net -. p.p_started.(slot));
  release p slot;
  (match result with
  | Ok _ -> ()
  | Error e -> (
    Metrics.inc (Lazy.force series.errors);
    match span with
    | Some s -> Trace.set_status s (Trace.Span_error (error_to_string e))
    | None -> ()));
  (match span with Some s -> Trace.finish t.tracer s | None -> ());
  inflight_changed t;
  let saved = Trace.current t.tracer in
  Trace.set_current t.tracer initiating;
  let result = checked_arity parts result in
  if guarded then account t ~src dst result;
  k result;
  Trace.set_current t.tracer saved

(* A call completes only with an answer from the node it was sent to,
   delivered to the node that made it: a reply after the timeout, from
   any other node, or to any other node is dropped.  Ids are one
   sequence for the whole bus, so without the second check a node could
   relay — send the callee a request under another node's pending id —
   and the callee's answer to it would complete that other call. *)
let complete t (msg : Net.message) id result =
  let p = t.pending in
  let slot = slot_of p id in
  if p.p_ids.(slot) = id && String.equal p.p_dst.(slot) msg.Net.src && String.equal p.p_src.(slot) msg.Net.dst
  then finish t slot result

(* The bus's own verdict on a call still pending: a timeout. *)
let time_out t id =
  let p = t.pending in
  let slot = slot_of p id in
  if p.p_ids.(slot) = id then finish t slot (Error Timeout)

(* The trace context a request frame carries, if it is of a traced kind. *)
let trace_context kind trace =
  match kind with
  | K_traced | K_traced_batch | K_traced_one_way -> Trace.context_of_string trace
  | K_request | K_batch | K_one_way | K_reply | K_error -> None

(* The header is read out of the bus's scratch before anything runs
   that could handle another frame. *)
let handle_message t (msg : Net.message) =
  let payload = msg.Net.payload in
  let h = t.arrived in
  (* A request's category is its service, so the service field is
     matched against it in place. *)
  if parse_header h ~known:msg.Net.category payload then begin
    let kind = h.kind and id = h.id and service = h.service and trace = h.trace and body = h.body in
    match kind with
    | K_request | K_traced ->
      dispatch_request t msg id service (trace_context kind trace) (body_slice payload body)
    | K_batch | K_traced_batch -> (
      match parts_of (body_slice payload body) with
      | None -> ()
      | Some parts -> dispatch_batch t msg id service (trace_context kind trace) parts)
    | K_one_way | K_traced_one_way ->
      dispatch_one_way t msg service (trace_context kind trace) (body_slice payload body)
    | K_reply ->
      (breaker_for t msg.Net.src).heard.(0) <- Net.now t.net;
      complete t msg id (Ok (body_slice payload body))
    | K_error ->
      (breaker_for t msg.Net.src).heard.(0) <- Net.now t.net;
      let err =
        let prefix = "no-such-service:" in
        let np = String.length prefix in
        let n = String.length payload - body in
        if n >= np && String.sub payload body np = prefix then
          No_such_service (String.sub payload (body + np) (n - np))
        else Timeout
      in
      complete t msg id (Error err)
  end

let create net =
  let now () = Net.now net in
  let next_id () = Dacs_crypto.Rng.next_int64 (Engine.rng (Net.engine net)) in
  let metrics = Metrics.create ~now () in
  let t =
    {
      net;
      services = Hashtbl.create 64;
      pending = make_pending 64;
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
      arrived = fresh_header ();
      dispatch = ignore;
    }
  in
  t.dispatch <- handle_message t;
  t

let net t = t.net
let metrics t = t.metrics
let tracer t = t.tracer
let set_tracing t on = Trace.set_enabled t.tracer on

(* Every node the bus sends from or serves on answers through
   [dispatch]: one lookup of a node that exists, a second only to add
   one. *)
let ensure_dispatch t node =
  match Net.set_handler t.net node t.dispatch with
  | () -> ()
  | exception Invalid_argument _ ->
    Net.add_node t.net node;
    Net.set_handler t.net node t.dispatch

let offer t ~node ~service srv =
  ensure_dispatch t node;
  let offered =
    match Hashtbl.find t.services node with
    | offered -> offered
    | exception Not_found ->
      let offered = Hashtbl.create 8 in
      Hashtbl.add t.services node offered;
      offered
  in
  Hashtbl.replace offered service srv

let serve_frame t ~node ~service ?(envelope = bare) handler =
  let series = series_for t service in
  offer t ~node ~service (Answers { handler; reply_envelope = envelope; name = service; series })

let serve_cast t ~node ~service handler =
  let handler ~caller body () = handler ~caller body in
  offer t ~node ~service (Cast { handler; series = series_for t service })

(* One client span per call attempt, parented on the ambient context —
   the span under which the caller's code is currently running.  Its
   context rides inside the request frame. *)
let client_span t ~span_label ~src ~dst ~service ~batch =
  if Trace.enabled t.tracer then begin
    let s = Trace.start_span t.tracer (span_label ^ service) in
    Trace.annotate s "src" src;
    Trace.annotate s "dst" dst;
    if batch > 0 then Trace.annotate s "batch" (string_of_int batch);
    Some s
  end
  else None

(* Shared correlation machinery of single and batched calls: id
   allocation, one client span per attempt, the pending-table entry and
   its timeout timer.  The request frame is [kind] (or [traced] when a
   trace context rides along) with [envelope] writing [write]'s body. *)
let issue t series ~src ~dst ~service ~timeout ~span_label ~batch ~kind ~traced ~guarded ~envelope
    write k =
  ensure_dispatch t src;
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let span = client_span t ~span_label ~src ~dst ~service ~batch in
  if t.pending.p_ids.(slot_of t.pending id) >= 0 then t.pending <- regrown t.pending id;
  let p = t.pending in
  store p (slot_of p id) ~id ~src ~dst ~series ~started:(Net.now t.net) ~span
    ~initiating:(Trace.current t.tracer) ~guarded ~parts:batch ~k;
  p.p_count <- p.p_count + 1;
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
  let series = series_for t service in
  if breaker && not (breaker_admit t ~src dst) then k (Error (Circuit_open dst))
  else begin
    Metrics.inc (Lazy.force series.calls);
    issue t series ~src ~dst ~service ~timeout ~span_label:"rpc:" ~batch:0 ~kind:K_request
      ~traced:K_traced ~guarded:breaker ~envelope write k
  end

(* A one-way frame: counted and traced as a call, but it takes no id, no
   pending slot and no timer, and nothing ever answers it.  Its client
   span is marked one-way, so no critical path runs through it, and
   closes once the frame is sent. *)
let cast_frame t ~src ~dst ~service ?(envelope = bare) write =
  let series = series_for t service in
  ensure_dispatch t src;
  Metrics.inc (Lazy.force series.calls);
  match client_span t ~span_label:"rpc:" ~src ~dst ~service ~batch:0 with
  | None -> send_frame t ~src ~dst ~category:service K_one_way 0 ~service ~trace:"" ~envelope write
  | Some s ->
    Trace.mark_one_way s;
    send_frame t ~src ~dst ~category:service K_traced_one_way 0 ~service
      ~trace:(Trace.context_to_string (Trace.context s))
      ~envelope write;
    Trace.finish t.tracer s

(* [finish] has checked the reply's arity against the batch's. *)
let batch_reply k = function
  | Error e -> k (Error e)
  | Ok reply -> (
    match parts_of reply with Some parts -> k (Ok parts) | None -> k (Error Timeout))

let call_batch_frame t ~src ~dst ~service ?(breaker = false) writes k =
  let n = List.length writes in
  if n = 0 then invalid_arg "Rpc.call_batch_frame: empty batch";
  let series = series_for t service in
  if breaker && not (breaker_admit t ~src dst) then k (Error (Circuit_open dst))
  else begin
    Metrics.inc (Lazy.force series.calls);
    Metrics.inc (Lazy.force series.batches);
    Metrics.inc ~by:n (Lazy.force series.batch_parts);
    Metrics.observe (Lazy.force series.batch_size) (float_of_int n);
    issue t series ~src ~dst ~service ~timeout:1.0 ~span_label:"rpc-batch:" ~batch:n ~kind:K_batch
      ~traced:K_traced_batch ~guarded:breaker ~envelope:bare
      (fun buf -> List.iter (add_written_part t buf) writes)
      (batch_reply k)
  end

let calls_in_flight t = t.pending.p_count

(* Ids are collected first and failed in ascending order: slot order is
   not id order, and a continuation may issue new calls — those are not
   this expiry's to fail. *)
let expire t dst =
  let p = t.pending in
  let ids = ref [] in
  Array.iteri (fun slot id -> if id >= 0 && String.equal p.p_dst.(slot) dst then ids := id :: !ids) p.p_ids;
  List.iter (fun id -> time_out t id) (List.sort Int.compare !ids)

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
   a re-send to the same missing service cannot succeed. *)
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
