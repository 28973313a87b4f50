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
  hedges : int;
}

type answer = Decided of Decision.result | Exhausted of string | Suspected

(* One authorisation query, one record for its whole trip: its point
   (the hash of its routing key, computed once) survives re-routing,
   [excluded] accumulates the shards that already failed it so a remap
   never bounces back to a dead replica, and [flags] holds the bits
   below and, above them, the frames carrying it that its current shard
   has lost.  A hedge is one more record whose [origin] is the query:
   every flag and answer is the query's, read and set in one place. *)
type item = {
  point : int;
  ctx : Context.t;
  deliver : answer -> Provenance.t -> bool;
  origin : item option;  (** [Some query] for a hedge *)
  mutable excluded : Dacs_net.Net.node_id list;
  mutable flags : int;
}

(* The tier re-sent this query after a failed frame. *)
let flag_retried = 1

(* Its route skipped a shard for its breaker, or a frame carrying it
   was refused by a breaker or failed leaving the shard's breaker open. *)
let flag_breaker = 2

(* It moved on from a suspected shard: re-sent to the next shard, routed
   past the suspected one, or answered by a lower rung.  A query is
   re-sent by suspicion at most once. *)
let flag_hedged = 4

(* It was offered to the caller's lower rungs; it is offered once. *)
let flag_offered = 8

(* It was answered: a later answer, failure or re-send of a frame
   carrying it is dropped. *)
let flag_settled = 16

(* Its hedge is in flight, on a shard not suspected since. *)
let flag_hedge_live = 32

(* Its own frames failed over while its hedge was in flight: the hedge
   took the failover's place, so its failure is now the query's. *)
let flag_handed = 64

(* Above the bits, [flags] counts lost frames in this unit. *)
let try_unit = 128

let tries item = item.flags lsr 7 [@@inline]

(* The query a record carries: itself, or a hedge's original. *)
let query item = match item.origin with Some q -> q | None -> item [@@inline]

(* Slots of a shard's [timing] array: the Jacobson/Karels smoothed
   round trip and its mean deviation over the shard's answered frames,
   the instant the shard last went from idle to busy, the smoothed
   queries per answered frame, and the instant of its suspicion. *)
let srtt = 0
let rttvar = 1
let busy_since = 2
let frame_size = 3
let suspected_at = 4

(* The RTO floor, deliberately not settable: Linux's TCP_RTO_MIN.  The
   cap is the tier's frame timeout, which is also the RTO before the
   first answer (RFC 6298 §2). *)
let rto_min = 0.2

(* The suspicion threshold's granularity term, RFC 6298's G: a floor on
   its variance term, so a shard whose round trips never vary is not
   suspected for the rounding of its own estimate. *)
let granularity = 0.005

type shard_state = {
  mutable queue : item list;  (** newest first *)
  mutable queued : int;
  mutable flush_pending : bool;
  (* The failure detector's state: frames in flight, whether an RTT
     sample exists, whether a silence check is scheduled, whether the
     shard is suspected, the check itself (built once), and [timing] —
     floats kept unboxed so a frame allocates none. *)
  mutable outstanding : int;
  mutable sampled : bool;
  mutable armed : bool;
  mutable suspected : bool;
  mutable check : unit -> unit;
  mutable flush : unit -> unit;  (** this shard's end-of-instant flush, built once *)
  answered_by : Dacs_net.Net.node_id option;  (** [Some shard], built once for every answer *)
  timing : float array;
  (* The frames in flight, by slot: each one's queries ([[]] for a free
     slot) and send instant.  The reply closure holds only the slot. *)
  mutable frames : item list array;
  mutable sent_at : float array;
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
  c_hedges : Metrics.counter Lazy.t;
  h_batch_size : Metrics.histogram;
  mutable shards : Dacs_net.Net.node_id list;
  mutable seeded : (Dacs_net.Net.node_id * int) array;  (** each shard with its seed *)
  states : (Dacs_net.Net.node_id, shard_state) Hashtbl.t;
  mutable suspects : int;  (** shards whose [suspected] is set *)
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

(* --- suspicion ------------------------------------------------------------- *)

let clear_suspicion t s =
  if s.suspected then begin
    s.suspected <- false;
    t.suspects <- t.suspects - 1
  end

(* A suspicion lasts while the shard stays silent: any answer it gives
   anyone on the bus after it ends it. *)
let is_suspected t shard s =
  if s.suspected && Dacs_net.Rpc.heard_from (Service.rpc t.services) shard > s.timing.(suspected_at)
  then clear_suspicion t s;
  s.suspected

let suspected t shard =
  t.suspects > 0
  && match Hashtbl.find t.states shard with s -> is_suspected t shard s | exception Not_found -> false

(* The highest-ranked shard for the item's point outside [excluded]
   whose breaker would admit a call now.  A shard passed over for its
   breaker counts once as a call shed by it, under the tier's node,
   flags the item's breaker bit, and costs no frame.  A suspected shard
   is passed over too, at no cost, and is the answer only when no
   healthy shard is left (the caller tells by [suspected]); a query
   routed past one to a healthy shard is flagged hedged. *)
let rec route_from t ~excluded ~suspect item =
  match owner t ~excluded item.point with
  | Some shard when Dacs_net.Rpc.breaker_sheds (Service.rpc t.services) shard ->
    Dacs_net.Rpc.record_shed (Service.rpc t.services) ~src:t.node shard;
    item.flags <- item.flags lor flag_breaker;
    route_from t ~excluded:(shard :: excluded) ~suspect item
  | Some shard as found when suspected t shard ->
    route_from t ~excluded:(shard :: excluded)
      ~suspect:(if suspect = None then found else suspect)
      item
  | Some _ as found ->
    if suspect <> None then item.flags <- item.flags lor flag_hedged;
    found
  | None -> suspect

let route t ~excluded item = route_from t ~excluded ~suspect:None item

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

(* Two thresholds watch a shard with frames outstanding, both measured
   from the start of its silence.  Silence — not a per-frame deadline —
   is the evidence: a saturated shard keeps answering someone every
   service time, so its slow round trips never look like death.

   At the suspicion threshold the shard is suspected: routing passes
   over it, and each query waiting on it moves on once, to the next
   shard in its key's ranking or, with none left, to the caller's lower
   rungs.  Its frames stay in flight, and whichever answer comes first
   settles the query.  At the retransmission timeout every frame still
   waiting on it expires, and its queries are re-sent or fail over.  The
   breaker trips only on its own rule, via the timeouts the expiry
   delivers. *)

let current_rto t s =
  if not s.sampled then t.timeout
  else Float.min t.timeout (Float.max rto_min (s.timing.(srtt) +. (4.0 *. s.timing.(rttvar))))
[@@inline]

(* The suspicion threshold: [srtt + max(G, 4·rttvar)] with no floor,
   its [srtt] scaled by how much larger the oldest frame in flight is
   than the frames it was measured over, since a shard works through a
   frame's queries one at a time.  Infinite before the first RTT
   sample. *)
let suspicion_threshold s =
  if not s.sampled then infinity
  else begin
    let oldest = ref (-1) in
    for i = 0 to Array.length s.frames - 1 do
      if s.frames.(i) != [] && (!oldest < 0 || s.sent_at.(i) < s.sent_at.(!oldest)) then oldest := i
    done;
    let n = if !oldest < 0 then 1 else List.length s.frames.(!oldest) in
    let tm = s.timing in
    (tm.(srtt) *. Float.max 1.0 (float_of_int n /. tm.(frame_size)))
    +. Float.max granularity (4.0 *. tm.(rttvar))
  end
[@@inline]

(* RFC 6298 §2: the first sample R sets SRTT = R and RTTVAR = R/2; later
   ones move RTTVAR by 1/4 of |SRTT - R| and SRTT by 1/8 of R.  The
   frame's size is smoothed as SRTT is. *)
let sample_rtt s ~slot ~n ~now =
  let r = now -. s.sent_at.(slot) in
  let tm = s.timing in
  if s.sampled then begin
    tm.(rttvar) <- (0.75 *. tm.(rttvar)) +. (0.25 *. Float.abs (tm.(srtt) -. r));
    tm.(srtt) <- (0.875 *. tm.(srtt)) +. (0.125 *. r);
    tm.(frame_size) <- (0.875 *. tm.(frame_size)) +. (0.125 *. float_of_int n)
  end
  else begin
    s.sampled <- true;
    tm.(srtt) <- r;
    tm.(rttvar) <- r /. 2.0;
    tm.(frame_size) <- float_of_int n
  end
[@@inline]

let engine t = Dacs_net.Net.engine (Service.net t.services)

(* The instant the shard's silence began: its last answer to anyone, or
   the start of the current busy period if that is later. *)
let silent_since t shard s =
  Float.max (Dacs_net.Rpc.heard_from (Service.rpc t.services) shard) s.timing.(busy_since)
[@@inline]

(* The next threshold the shard's silence can cross: suspicion until it
   is suspected, then the RTO. *)
let next_deadline t shard s =
  let since = silent_since t shard s and rto = current_rto t s in
  let threshold = if is_suspected t shard s then infinity else suspicion_threshold s in
  since +. Float.min threshold rto
[@@inline]

let arm t s ~at =
  s.armed <- true;
  Engine.schedule_at (engine t) ~at s.check

(* A free slot of the shard's in-flight table, now holding [items] sent
   at this instant; the table doubles when full. *)
let take_slot t s items =
  let i = ref 0 in
  while !i < Array.length s.frames && s.frames.(!i) != [] do
    incr i
  done;
  if !i = Array.length s.frames then begin
    let n = Array.length s.frames in
    s.frames <- Array.append s.frames (Array.make n []);
    s.sent_at <- Array.append s.sent_at (Array.make n 0.0)
  end;
  s.frames.(!i) <- items;
  s.sent_at.(!i) <- Engine.now (engine t);
  !i

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
    hedged = item.flags land flag_hedged <> 0;
    stale_age = 0.0;
    epoch;
    at = Engine.now (engine t);
    log_head = None;
  }

(* The one delivery of query [q]'s answer; any later one is dropped. *)
let settle q answer p =
  if q.flags land flag_settled = 0 then begin
    q.flags <- q.flags lor flag_settled;
    ignore (q.deliver answer p)
  end

let fail_closed t q =
  Metrics.inc t.c_exhausted;
  settle q (Exhausted "pdp tier exhausted: no shard reachable")
    (delivered t ~stage:Provenance.Fail_closed ~shard:None ~batch:0 ~epoch:0 q)

(* Offer query [q], once and only while unanswered, to the caller's
   lower rungs (a PEP's bounded-stale L1, then its offline log): [true]
   when one answered it.  Unanswered, it keeps waiting for its frames. *)
let offer t q =
  q.flags land (flag_offered lor flag_settled) = 0
  && begin
       q.flags <- q.flags lor flag_offered;
       let p = delivered t ~stage:Provenance.Fail_closed ~shard:None ~batch:0 ~epoch:0 q in
       q.deliver Suspected { p with Provenance.hedged = true }
       && begin
            q.flags <- q.flags lor flag_settled lor flag_hedged;
            true
          end
     end

(* One query's answer from a shard that answered, unless the query is
   already answered.  An undecodable or untrusted answer, or a SOAP
   fault, is that PDP's Indeterminate at the unknown epoch: an answer,
   not a health failure, so no remap.  A pull PEP's tier reports batch
   0, a plain frame's; a sharded tier reports the queries its flush
   carried, plain frame or not. *)
let answered t s ~batch item part =
  let q = query item in
  if q.flags land flag_settled = 0 then begin
    let decision, epoch =
      match part with
      | Ok (Ok answer) -> answer
      | Ok (Error e) -> (Decision.indeterminate ("unacceptable PDP response: " ^ e), 0)
      | Error e -> (Decision.indeterminate ("PDP fault: " ^ Service.error_to_string e), 0)
    in
    settle q (Decided decision)
      (delivered t ~stage:Provenance.Live ~shard:s.answered_by
         ~batch:(if t.batch = 1 then 0 else batch)
         ~epoch q)
  end

(* The query whose failure a failed frame's record reports: none for an
   answered query, nor for a hedge whose query still has frames of its
   own; a hedge that took its query's failover reports the query.
   Either way the hedge is no longer in flight. *)
let carrier item =
  let q = query item in
  if q.flags land flag_settled <> 0 then None
  else if item == q then Some q
  else begin
    let handed = q.flags land flag_handed <> 0 in
    q.flags <- q.flags land lnot (flag_hedge_live lor flag_handed);
    if handed then Some q else None
  end

(* The frame in [slot] is over: its slot is freed and its queries
   returned.  A reply is an RTT sample and ends the shard's suspicion;
   so does its last frame ending. *)
let frame_over t s ~slot ~replied =
  let items = s.frames.(slot) in
  s.frames.(slot) <- [];
  s.outstanding <- s.outstanding - 1;
  if replied then sample_rtt s ~slot ~n:(List.length items) ~now:(Engine.now (engine t));
  if replied || s.outstanding = 0 then clear_suspicion t s;
  items

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
        suspected = false;
        check = ignore;
        flush = ignore;
        answered_by = Some shard;
        timing = [| 0.0; 0.0; 0.0; 0.0; 0.0 |];
        frames = Array.make 4 [];
        sent_at = Array.make 4 0.0;
        sc_batches = t.c_batches shard;
        sc_dispatch = t.c_dispatch shard;
      }
    in
    s.check <- (fun () -> check t shard s);
    s.flush <- (fun () -> flush t shard s);
    Hashtbl.replace t.states shard s;
    s

(* Send the query where [route] puts it, outside [excluded].  With only
   suspected shards left it is offered to the lower rungs first, and
   goes to the best of them unanswered, as it would without suspicion.
   A re-route counts as a failover when a frame takes it. *)
and place t ~excluded ~failover item =
  match route t ~excluded item with
  | Some shard when suspected t shard ->
    if not (offer t item) then send_to t shard ~excluded ~failover item
  | Some shard -> send_to t shard ~excluded ~failover item
  | None -> fail_closed t item

and send_to t shard ~excluded ~failover item =
  if failover then Metrics.inc t.c_failovers;
  item.excluded <- excluded;
  enqueue t shard item

(* Re-route every query to the next shard in its own key's ranking —
   replica loss only remaps its own keys.  A query whose hedge is in
   flight on a shard not suspected since is not sent again: the hedge
   takes the failover's place, and counts as one. *)
and fail_over t shard qs =
  if Trace.enabled (tracer t) then Trace.record (tracer t) ("tier:failover from " ^ shard);
  List.iter
    (fun q ->
      q.flags <- q.flags land (try_unit - 1);
      if q.flags land flag_hedge_live = 0 then
        place t ~excluded:(shard :: q.excluded) ~failover:true q
      else begin
        Metrics.inc t.c_failovers;
        q.excluded <- shard :: q.excluded;
        q.flags <- q.flags lor flag_handed
      end)
    qs

(* The whole frame failed, and so did each query its records report as
   [carrier].  After a timeout or a breaker rejection, the queries with
   attempts left on this shard go to it again after one backoff, through
   [enqueue], unless answered meanwhile: the retry is a frame like any
   other, outstanding, watched by the silence clock, with its own RTO.
   The rest fail over.  A frame refused by the breaker, or whose failure
   left it open, flags every query it carried. *)
and frame_failed t shard err items =
  match List.filter_map carrier items with
  | [] -> ()
  | items -> (
    if Dacs_net.Rpc.breaker_state (Service.rpc t.services) shard <> Dacs_net.Rpc.Closed then
      List.iter (fun i -> i.flags <- i.flags lor flag_breaker) items;
    match err with
    | Service.Transport err when t.retry.attempts > 1 ->
      let again, spent = List.partition (fun i -> tries i + 1 < t.retry.attempts) items in
      let failures = List.fold_left (fun n i -> Int.max n (tries i + 1)) 0 again in
      if
        again <> []
        && Dacs_net.Rpc.retry_after (Service.rpc t.services) ~src:t.node ~dst:shard t.retry
             ~failures err (fun () ->
               List.iter
                 (fun i ->
                   if i.flags land flag_settled = 0 then begin
                     i.flags <- (i.flags lor flag_retried) + try_unit;
                     enqueue t shard i
                   end)
                 again)
      then (if spent <> [] then fail_over t shard spent)
      else fail_over t shard items
    | _ -> fail_over t shard items)

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

(* One query in this flush rides Fig. 3's plain query frame, which waits
   the tier's timeout; only a flush of several needs the batch envelope.
   An ordered tier has batch limit 1 and never sends a batch, so a batch
   frame's fixed 1 s timeout is always a sharded tier's own. *)
and send_plain t shard s ~slot item =
  Service.call t.services ~src:t.node ~dst:shard ~timeout:t.timeout ~breaker:true t.authz
    (fun buf -> Wire.write_authz_query buf item.ctx)
    (function
      | Error (Service.Transport _ as e) ->
        frame_failed t shard e (frame_over t s ~slot ~replied:false)
      | part ->
        ignore (frame_over t s ~slot ~replied:true);
        answered t s ~batch:1 item part)

and send_batch t shard s ~slot ~n items =
  Service.call_batch t.services ~src:t.node ~dst:shard t.authz
    (List.map (fun i buf -> Wire.write_authz_query buf i.ctx) items)
    (function
      | Ok parts ->
        ignore (frame_over t s ~slot ~replied:true);
        List.iter2 (answered t s ~batch:n) items parts
      | Error e -> frame_failed t shard e (frame_over t s ~slot ~replied:false))

and flush t shard s =
  s.flush_pending <- false;
  if s.queued > 0 then begin
    let n = s.queued in
    let queue = s.queue in
    s.queue <- [];
    s.queued <- 0;
    Metrics.inc s.sc_batches;
    Metrics.observe t.h_batch_size (float_of_int n);
    let items = match queue with [ _ ] -> queue | _ -> List.rev queue in
    if s.outstanding = 0 then s.timing.(busy_since) <- Engine.now (engine t);
    s.outstanding <- s.outstanding + 1;
    let slot = take_slot t s items in
    (match items with
    | [ item ] -> send_plain t shard s ~slot item
    | _ -> send_batch t shard s ~slot ~n items);
    (* A frame shed by the breaker has already failed over by now. *)
    if s.outstanding > 0 && not s.armed then
      arm t s ~at:(Float.max (Engine.now (engine t)) (next_deadline t shard s))
  end

(* A query waiting on [shard], which the tier now suspects, in a frame
   of its own or as a hedge, moves on once: hedged to the next shard in
   its ranking that is neither suspected nor breaker-open, or, with none
   left or its one hedge spent, offered to the lower rungs.  Its own
   frames stay in flight and fail, re-send or fail over as they would
   unhedged. *)
and move_on t shard item =
  let q = query item in
  (* A hedge waiting on a suspected shard is presumed lost: its query's
     failover re-sends instead of handing over to it. *)
  if item != q then q.flags <- q.flags land lnot flag_hedge_live;
  if q.flags land (flag_settled lor flag_offered) = 0 then
    if q.flags land flag_hedged <> 0 then ignore (offer t q)
    else
      match route t ~excluded:(shard :: q.excluded) q with
      | Some next when not (suspected t next) ->
        q.flags <- q.flags lor flag_hedged lor flag_hedge_live;
        Metrics.inc (Lazy.force t.c_hedges);
        enqueue t next { q with origin = Some q }
      | Some _ | None -> ignore (offer t q)

and suspect t shard s =
  s.suspected <- true;
  t.suspects <- t.suspects + 1;
  s.timing.(suspected_at) <- Engine.now (engine t);
  if Trace.enabled (tracer t) then Trace.record (tracer t) ("tier:suspect " ^ shard);
  (* A copy: moving a query on may flush onto this shard, growing its table. *)
  Array.iter (List.iter (move_on t shard)) (Array.copy s.frames)

and check t shard s =
  s.armed <- false;
  if s.outstanding > 0 then begin
    let now = Engine.now (engine t) in
    let since = silent_since t shard s and rto = current_rto t s in
    let threshold = suspicion_threshold s in
    (* A check that finds the RTO passed too expires at once: the
       expiry's failover moves the queries, and a hedge would only send
       each one twice. *)
    if now >= since +. threshold && now < since +. rto && not (is_suspected t shard s) then
      suspect t shard s;
    if now >= since +. rto then begin
      Metrics.inc (Lazy.force t.c_expiries);
      (* Spend the silence that raised this expiry: later frames get an RTO. *)
      s.timing.(busy_since) <- now;
      Dacs_net.Rpc.expire (Service.rpc t.services) shard
    end
    else
      (* An absolute deadline strictly in the future: rounding cannot
         re-arm at the same instant. *)
      arm t s ~at:(next_deadline t shard s)
  end

let decide ~key t ctx deliver =
  let item = { point = point_of key; ctx; deliver; origin = None; excluded = []; flags = 0 } in
  if Array.length t.seeded = 0 then begin
    Metrics.inc t.c_exhausted;
    settle item (Exhausted "pdp tier is empty")
      (delivered t ~stage:Provenance.Fail_closed ~shard:None ~batch:0 ~epoch:0 item)
  end
  else
    (* With every shard's breaker open this fails closed now, so the
       caller degrades at once instead of waiting out a timeout. *)
    place t ~excluded:[] ~failover:false item

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
    (* Registered at the first hedge, likewise. *)
    c_hedges =
      lazy
        (own "pdp_tier_hedges_total"
           ~help:"Queries re-sent to the next shard when theirs was suspected");
    h_batch_size =
      Metrics.histogram metrics ~help:"Queries per flushed tier batch"
        ~labels:[ ("node", node) ] "pdp_tier_batch_size";
    shards;
    seeded = seeded_of shards;
    states = Hashtbl.create 8;
    suspects = 0;
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
    hedges = (if Lazy.is_val t.c_hedges then Metrics.counter_value (Lazy.force t.c_hedges) else 0);
  }
