module Service = Dacs_ws.Service
module Engine = Dacs_net.Engine
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Metrics = Dacs_telemetry.Metrics
module Trace = Dacs_telemetry.Trace

type stats = {
  dispatched : int;
  batches : int;
  failovers : int;
  rebalances : int;
  exhausted : int;
  expiries : int;
}

(* One queued authorisation query: its point (the hash of its routing
   key, computed once) survives re-routing, [excluded] accumulates the
   shards that already failed it so a remap never bounces back to a dead
   replica, [tries] counts the frames carrying it that its current
   shard has lost, and [flags] holds what its provenance reports of its
   trip: the bits below. *)
type item = {
  point : int;
  ctx : Context.t;
  deliver : (Decision.result, string) result -> Provenance.t -> unit;
  excluded : Dacs_net.Net.node_id list;
  tries : int;
  mutable flags : int;
}

(* The tier re-sent this query after a failed frame. *)
let flag_retried = 1

(* Its route skipped a shard for its breaker, or a frame carrying it
   was refused by a breaker or failed leaving the shard's breaker open. *)
let flag_breaker = 2

(* Slots of a shard's [timing] array: the Jacobson/Karels smoothed
   round trip and its mean deviation over the shard's answered frames,
   and the instant the shard last went from idle to busy. *)
let srtt = 0
let rttvar = 1
let busy_since = 2

(* The RTO floor, deliberately not settable: Linux's TCP_RTO_MIN.  The
   cap is the tier's frame timeout, which is also the RTO before the
   first answer (RFC 6298 §2). *)
let rto_min = 0.2

type shard_state = {
  mutable queue : item list;  (** newest first *)
  mutable queued : int;
  mutable flush_pending : bool;
  (* The failure detector's state: frames in flight, whether an RTT
     sample exists, whether a silence check is scheduled, the check
     itself (built once), and [timing] — floats kept unboxed so a frame
     allocates none. *)
  mutable outstanding : int;
  mutable sampled : bool;
  mutable armed : bool;
  mutable check : unit -> unit;
  mutable flush : unit -> unit;  (** this shard's end-of-instant flush, built once *)
  answered_by : Dacs_net.Net.node_id option;  (** [Some shard], built once for every answer *)
  timing : float array;
  (* Per-shard counter handles, resolved once per shard instead of
     re-registering (label sort + table lookup) on every dispatch. *)
  sc_batches : Metrics.counter;
  sc_dispatch : Metrics.counter;
}

type t = {
  services : Service.t;
  node : Dacs_net.Net.node_id;
  batch : int;
  ordered : bool;  (** placement is list order, not rendezvous *)
  timeout : float;  (** every frame's timeout, and the RTO cap *)
  mutable retry : Dacs_net.Rpc.retry_policy;
  (* The authz-query declaration whose replies are read at the bus's
     current instant, given the trust store once [require_signed_decisions]
     is called.  Built then, not per frame. *)
  mutable authz : (Context.t, Decision.result * int) Service.call;
  c_batches : Dacs_net.Net.node_id -> Metrics.counter;
  c_dispatch : Dacs_net.Net.node_id -> Metrics.counter;
  c_failovers : Metrics.counter;
  c_rebalances : Metrics.counter;
  c_exhausted : Metrics.counter;
  c_expiries : Metrics.counter Lazy.t;
  h_batch_size : Metrics.histogram;
  mutable shards : Dacs_net.Net.node_id list;
  mutable seeded : (Dacs_net.Net.node_id * int) array;  (** each shard with its seed *)
  states : (Dacs_net.Net.node_id, shard_state) Hashtbl.t;
}

let shards t = t.shards
let tracer t = Service.tracer t.services

(* --- rendezvous placement ------------------------------------------------ *)

(* A 64-bit finaliser (MurmurHash3's fmix64, constants cut to OCaml's
   63-bit ints): every input bit reaches every output bit. *)
let mix h =
  let h = h lxor (h lsr 32) in
  let h = h * 0x7f51afd7ed558ccd in
  let h = h lxor (h lsr 29) in
  let h = h * 0x44ceb9fe1a85ec53 in
  h lxor (h lsr 32)
[@@inline]

let point_of key = mix (Hashtbl.hash key)

(* Each shard paired with its seed, fixed by its name. *)
let seeded_of shards = Array.of_list (List.map (fun shard -> (shard, point_of shard)) shards)

(* Rendezvous (highest-random-weight) hashing: a key belongs to the shard
   whose [mix (point lxor seed)] is highest, ties to the lesser name, so
   the answer does not depend on the order of the shard list.  Removing a
   shard only remaps the keys it owned — each of them to its next-highest
   shard — and adding one only takes keys onto the new shard: what keeps
   decision caches and policy working sets warm across membership
   changes (§3.1 scale).  An ordered tier ranks every key by list
   position instead: the first shard is everyone's primary, the next its
   successor (Fig. 3's failover list).  Shards in [excluded] are passed
   over; [None] when every shard is. *)
let owner t ~excluded point =
  let seeded = t.seeded in
  let best = ref (-1) and best_score = ref 0 in
  for i = 0 to Array.length seeded - 1 do
    let shard, seed = seeded.(i) in
    if not (List.mem shard excluded) then begin
      let score = if t.ordered then -i else mix (point lxor seed) in
      if
        !best < 0 || score > !best_score
        || (score = !best_score && String.compare shard (fst seeded.(!best)) < 0)
      then begin
        best := i;
        best_score := score
      end
    end
  done;
  if !best < 0 then None else Some (fst seeded.(!best))

let shard_for t key = owner t ~excluded:[] (point_of key)

(* The highest-ranked shard for the item's point outside [excluded]
   whose breaker would admit a call now.  A shard passed over for its
   breaker counts once as a call shed by it, under the tier's node,
   flags the item's breaker bit, and costs no frame. *)
let rec route t ~excluded item =
  match owner t ~excluded item.point with
  | Some shard when Dacs_net.Rpc.breaker_sheds (Service.rpc t.services) shard ->
    Dacs_net.Rpc.record_shed (Service.rpc t.services) ~src:t.node shard;
    item.flags <- item.flags lor flag_breaker;
    route t ~excluded:(shard :: excluded) item
  | found -> found

(* Rendezvous placement ignores the list's order, so only a different
   set is a rebalance; on an ordered tier the order is the placement. *)
let placement t shards = if t.ordered then shards else List.sort String.compare shards

let set_shards t shards =
  if placement t shards <> placement t t.shards then begin
    t.shards <- shards;
    t.seeded <- seeded_of shards;
    Metrics.inc t.c_rebalances;
    Trace.record (tracer t)
      (Printf.sprintf "tier:rebalance to %d shards" (List.length shards))
  end

(* --- failure detection --------------------------------------------------- *)

(* A shard with frames outstanding that has answered nobody for one
   retransmission timeout is suspected, and every frame waiting on it
   fails over then rather than at the frame timeout.  Silence — not a
   per-frame deadline — is the evidence: a saturated shard keeps
   answering someone every service time, so its slow round trips never
   look like death.  The breaker still trips only on its own rule, via
   the timeouts the expiry delivers. *)

let current_rto t s =
  if not s.sampled then t.timeout
  else Float.min t.timeout (Float.max rto_min (s.timing.(srtt) +. (4.0 *. s.timing.(rttvar))))
[@@inline]

(* RFC 6298 §2: the first sample R sets SRTT = R and RTTVAR = R/2; later
   ones move RTTVAR by 1/4 of |SRTT - R| and SRTT by 1/8 of R. *)
let sample_rtt s ~sent ~now =
  let r = now -. sent in
  let tm = s.timing in
  if s.sampled then begin
    tm.(rttvar) <- (0.75 *. tm.(rttvar)) +. (0.25 *. Float.abs (tm.(srtt) -. r));
    tm.(srtt) <- (0.875 *. tm.(srtt)) +. (0.125 *. r)
  end
  else begin
    s.sampled <- true;
    tm.(srtt) <- r;
    tm.(rttvar) <- r /. 2.0
  end

let engine t = Dacs_net.Net.engine (Service.net t.services)

(* The instant the shard's silence began: its last answer to anyone, or
   the start of the current busy period if that is later. *)
let silent_since t shard s =
  Float.max (Dacs_net.Rpc.heard_from (Service.rpc t.services) shard) s.timing.(busy_since)

let arm t s ~at =
  s.armed <- true;
  Engine.schedule_at (engine t) ~at s.check

let check t shard s =
  s.armed <- false;
  if s.outstanding > 0 then begin
    let deadline = silent_since t shard s +. current_rto t s in
    if Engine.now (engine t) >= deadline then begin
      Metrics.inc (Lazy.force t.c_expiries);
      (* Spend the silence that raised this suspicion: later frames get an RTO. *)
      s.timing.(busy_since) <- Engine.now (engine t);
      Dacs_net.Rpc.expire (Service.rpc t.services) shard
    end
    else
      (* An absolute deadline strictly in the future: rounding cannot
         re-arm at the same instant. *)
      arm t s ~at:deadline
  end

(* --- batching and dispatch ---------------------------------------------- *)

(* The provenance record of a query's trip, built when the tier
   delivers: [Live] with the answering shard, or [Fail_closed] with
   none. *)
let delivered t ~stage ~shard ~batch ~epoch item =
  {
    Provenance.stage;
    shard;
    batch;
    coalesced = false;
    failovers = List.length item.excluded;
    retried = item.flags land flag_retried <> 0;
    breaker_tripped = item.flags land flag_breaker <> 0;
    stale_age = 0.0;
    epoch;
    at = Engine.now (engine t);
    log_head = None;
  }

(* The shard's state, made at its first query. *)
let rec state_of t shard =
  match Hashtbl.find t.states shard with
  | s -> s
  | exception Not_found ->
    let s =
      {
        queue = [];
        queued = 0;
        flush_pending = false;
        outstanding = 0;
        sampled = false;
        armed = false;
        check = ignore;
        flush = ignore;
        answered_by = Some shard;
        timing = [| 0.0; 0.0; 0.0 |];
        sc_batches = t.c_batches shard;
        sc_dispatch = t.c_dispatch shard;
      }
    in
    s.check <- (fun () -> check t shard s);
    s.flush <- (fun () -> flush t shard s);
    Hashtbl.replace t.states shard s;
    s

and fail_closed t item =
  Metrics.inc t.c_exhausted;
  item.deliver (Error "pdp tier exhausted: no shard reachable")
    (delivered t ~stage:Provenance.Fail_closed ~shard:None ~batch:0 ~epoch:0 item)

(* One query's answer from a shard that answered.  An undecodable or
   untrusted answer, or a SOAP fault, is that PDP's Indeterminate at the
   unknown epoch: an answer, not a health failure, so no remap.  A
   pull PEP's tier reports batch 0, a plain frame's; a sharded tier
   reports the queries its flush carried, plain frame or not. *)
and answered t s ~batch item part =
  let decision, epoch =
    match part with
    | Ok (Ok answer) -> answer
    | Ok (Error e) -> (Decision.indeterminate ("unacceptable PDP response: " ^ e), 0)
    | Error e -> (Decision.indeterminate ("PDP fault: " ^ Service.error_to_string e), 0)
  in
  item.deliver (Ok decision)
    (delivered t ~stage:Provenance.Live ~shard:s.answered_by
       ~batch:(if t.batch = 1 then 0 else batch)
       ~epoch item)

(* Re-route every query to the next shard in its own key's ranking —
   replica loss only remaps its own keys. *)
and fail_over t shard items =
  if Trace.enabled (tracer t) then Trace.record (tracer t) ("tier:failover from " ^ shard);
  List.iter
    (fun item ->
      let excluded = shard :: item.excluded in
      match route t ~excluded item with
      | Some next ->
        Metrics.inc t.c_failovers;
        enqueue t next { item with excluded; tries = 0 }
      | None -> fail_closed t item)
    items

(* The whole frame failed.  After a timeout or a breaker rejection, the
   queries with attempts left on this shard go to it again after one
   backoff, through [enqueue]: the retry is a frame like any other,
   outstanding, watched by the silence clock, with its own RTO.  The
   rest fail over.  A frame refused by the breaker, or whose failure
   left it open, flags every query it carried. *)
and frame_failed t shard err items =
  if Dacs_net.Rpc.breaker_state (Service.rpc t.services) shard <> Dacs_net.Rpc.Closed then
    List.iter (fun i -> i.flags <- i.flags lor flag_breaker) items;
  match err with
  | Service.Transport err when t.retry.attempts > 1 ->
    let again, spent = List.partition (fun i -> i.tries + 1 < t.retry.attempts) items in
    let failures = List.fold_left (fun n i -> Int.max n (i.tries + 1)) 0 again in
    if
      again <> []
      && Dacs_net.Rpc.retry_after (Service.rpc t.services) ~src:t.node ~dst:shard t.retry ~failures
           err (fun () ->
             List.iter
               (fun i ->
                 enqueue t shard { i with tries = i.tries + 1; flags = i.flags lor flag_retried })
               again)
    then (if spent <> [] then fail_over t shard spent)
    else fail_over t shard items
  | _ -> fail_over t shard items

and enqueue t shard item =
  let s = state_of t shard in
  s.queue <- item :: s.queue;
  s.queued <- s.queued + 1;
  Metrics.inc s.sc_dispatch;
  if s.queued >= t.batch then flush t shard s
  else if not s.flush_pending then begin
    (* A partial batch flushes at the end of the current instant: the
       flush runs after the current event cascade, so every query issued
       at this virtual instant rides the same frame. *)
    s.flush_pending <- true;
    Engine.schedule (engine t) ~delay:0.0 s.flush
  end

(* The frame's round trip is over; a reply is an RTT sample. *)
and frame_over t s ~sent ~replied =
  s.outstanding <- s.outstanding - 1;
  if replied then sample_rtt s ~sent ~now:(Engine.now (engine t))

(* One query in this flush rides Fig. 3's plain query frame, which waits
   the tier's timeout; only a flush of several needs the batch envelope.
   An ordered tier has batch limit 1 and never sends a batch, so a batch
   frame's fixed 1 s timeout is always a sharded tier's own. *)
and send_plain t shard s ~sent item =
  Service.call t.services ~src:t.node ~dst:shard ~timeout:t.timeout ~breaker:true t.authz
    (fun buf -> Wire.write_authz_query buf item.ctx)
    (function
      | Error (Service.Transport _ as e) ->
        frame_over t s ~sent ~replied:false;
        frame_failed t shard e [ item ]
      | part ->
        frame_over t s ~sent ~replied:true;
        answered t s ~batch:1 item part)

and send_batch t shard s ~sent ~n items =
  Service.call_batch t.services ~src:t.node ~dst:shard ~breaker:true t.authz
    (List.map (fun i buf -> Wire.write_authz_query buf i.ctx) items)
    (function
      | Ok parts ->
        frame_over t s ~sent ~replied:true;
        List.iter2 (answered t s ~batch:n) items parts
      | Error e ->
        frame_over t s ~sent ~replied:false;
        frame_failed t shard e items)

and flush t shard s =
  s.flush_pending <- false;
  if s.queued > 0 then begin
    let n = s.queued in
    let queue = s.queue in
    s.queue <- [];
    s.queued <- 0;
    Metrics.inc s.sc_batches;
    Metrics.observe t.h_batch_size (float_of_int n);
    let sent = Engine.now (engine t) in
    if s.outstanding = 0 then s.timing.(busy_since) <- sent;
    s.outstanding <- s.outstanding + 1;
    (match queue with
    | [ item ] -> send_plain t shard s ~sent item
    | _ -> send_batch t shard s ~sent ~n (List.rev queue));
    (* A frame shed by the breaker has already failed over by now. *)
    if s.outstanding > 0 && not s.armed then
      arm t s ~at:(Float.max sent (silent_since t shard s +. current_rto t s))
  end

let decide ?key t ctx deliver =
  (* A PEP that already built the request key for its own caches passes
     it down; only key-less callers pay the build here. *)
  let key = match key with Some k -> k | None -> Decision_cache.request_key ctx in
  let item = { point = point_of key; ctx; deliver; excluded = []; tries = 0; flags = 0 } in
  if Array.length t.seeded = 0 then begin
    Metrics.inc t.c_exhausted;
    deliver (Error "pdp tier is empty")
      (delivered t ~stage:Provenance.Fail_closed ~shard:None ~batch:0 ~epoch:0 item)
  end
  else
    match route t ~excluded:[] item with
    | Some shard -> enqueue t shard item
    | None ->
      (* Every shard's breaker is open: fail closed now, so the caller
         degrades at once instead of waiting out a timeout. *)
      fail_closed t item

let rto t shard =
  match Hashtbl.find_opt t.states shard with Some s -> current_rto t s | None -> t.timeout

let require_signed_decisions t trust =
  t.authz <- Wire.Services.authz_query_checked ~trust (Service.net t.services)

let set_retry_policy t retry =
  Dacs_net.Rpc.validate_retry retry;
  t.retry <- retry

(* --- construction ------------------------------------------------------- *)

let make services ~node ~shards ~batch ~ordered ~timeout =
  let metrics = Service.metrics services in
  let own ?help name = Metrics.counter metrics ?help ~labels:[ ("node", node) ] name in
  let per_shard ?help name shard =
    Metrics.counter metrics ?help ~labels:[ ("node", node); ("shard", shard) ] name
  in
  {
    services;
    node;
    batch;
    ordered;
    timeout;
    retry = Dacs_net.Rpc.no_retry;
    authz = Wire.Services.authz_query_checked (Service.net services);
    c_batches =
      per_shard "pdp_tier_batches_total" ~help:"Batched frames flushed to this shard";
    c_dispatch =
      per_shard "pdp_tier_dispatch_total" ~help:"Authorisation queries routed to this shard";
    c_failovers = own "pdp_tier_failovers_total" ~help:"Queries re-routed after a shard failure";
    c_rebalances = own "pdp_tier_rebalance_total" ~help:"Shard-set changes";
    c_exhausted =
      own "pdp_tier_exhausted_total" ~help:"Queries failed closed with every shard excluded";
    (* Registered at the first expiry, so a run that never suspects a
       shard exports the same series as before detection existed. *)
    c_expiries =
      lazy
        (own "pdp_tier_expiries_total" ~help:"Silent-shard suspicions that expired waiting frames");
    h_batch_size =
      Metrics.histogram metrics ~help:"Queries per flushed tier batch"
        ~labels:[ ("node", node) ] "pdp_tier_batch_size";
    shards;
    seeded = seeded_of shards;
    states = Hashtbl.create 8;
  }

let create services ~node ~shards ?(batch = 8) () =
  if batch < 1 then invalid_arg "Pdp_tier.create: batch must be >= 1";
  make services ~node ~shards ~batch ~ordered:false ~timeout:1.0

let ordered services ~node ~pdps ~call_timeout =
  make services ~node ~shards:pdps ~batch:1 ~ordered:true ~timeout:call_timeout

let stats t =
  (* Over the current shard set; a shard never routed to counted nothing. *)
  let sum counter =
    List.fold_left
      (fun acc shard ->
        match Hashtbl.find_opt t.states shard with
        | Some s -> acc + Metrics.counter_value (counter s)
        | None -> acc)
      0 t.shards
  in
  {
    dispatched = sum (fun s -> s.sc_dispatch);
    batches = sum (fun s -> s.sc_batches);
    failovers = Metrics.counter_value t.c_failovers;
    rebalances = Metrics.counter_value t.c_rebalances;
    exhausted = Metrics.counter_value t.c_exhausted;
    expiries =
      (if Lazy.is_val t.c_expiries then Metrics.counter_value (Lazy.force t.c_expiries) else 0);
  }
