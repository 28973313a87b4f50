module Service = Dacs_ws.Service
module Engine = Dacs_net.Engine
module Xml = Dacs_xml.Xml
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

(* Serving metadata delivered with each answer: which shard decided,
   how big the frame was, how many shards were skipped first, and the
   deciding PDP's compilation epoch — the raw material of a provenance
   record. *)
type meta = {
  shard : Dacs_net.Net.node_id option;
  batch : int;
  failovers : int;
  epoch : int;
}

(* One queued authorisation query: its point (the hash of its routing
   key, computed once) survives re-routing, and [excluded] accumulates
   the shards that already failed it so a remap never bounces back to a
   dead replica. *)
type item = {
  point : int;
  ctx : Context.t;
  deliver : (Decision.result, string) result -> meta -> unit;
  excluded : Dacs_net.Net.node_id list;
}

(* Slots of a shard's [timing] array: the Jacobson/Karels smoothed
   round trip and its mean deviation over the shard's answered frames,
   and the instant the shard last went from idle to busy. *)
let srtt = 0
let rttvar = 1
let busy_since = 2

(* RTO bounds, deliberately not settable.  200 ms is Linux's
   TCP_RTO_MIN; 1 s is the call timeout of every tier frame, which stays
   the hard cap and is the RTO before the first answer (RFC 6298 §2). *)
let rto_min = 0.2
let rto_max = 1.0

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
  (* The per-query answer decoder: [Wire.read_authz_answer], given the
     trust store once [require_signed_decisions] is called. *)
  mutable read_answer : now:float -> Xml.Cursor.t -> (Decision.result * int, string) result;
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
   changes (§3.1 scale).  Shards in [excluded] are passed over; [None]
   when every shard is. *)
let owner t ~excluded point =
  let seeded = t.seeded in
  let best = ref (-1) and best_score = ref 0 in
  for i = 0 to Array.length seeded - 1 do
    let shard, seed = seeded.(i) in
    if not (List.mem shard excluded) then begin
      let score = mix (point lxor seed) in
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

(* The highest-ranked shard for [point] outside [excluded] whose breaker
   would admit a call now.  A shard passed over for its breaker counts
   once as a call shed by it, under the tier's node — what the PEP's
   provenance reads as "breaker tripped" — and costs no frame. *)
let rec route t ~excluded point =
  match owner t ~excluded point with
  | Some shard when Dacs_net.Rpc.breaker_sheds (Service.rpc t.services) shard ->
    Dacs_net.Rpc.record_shed (Service.rpc t.services) ~src:t.node shard;
    route t ~excluded:(shard :: excluded) point
  | found -> found

let set_shards t shards =
  (* Placement ignores the list's order, so only a different set is a
     rebalance. *)
  if List.sort String.compare shards <> List.sort String.compare t.shards then begin
    t.shards <- shards;
    t.seeded <- seeded_of shards;
    Metrics.inc t.c_rebalances;
    Trace.record (tracer t)
      (Printf.sprintf "tier:rebalance to %d shards" (List.length shards))
  end

(* --- failure detection --------------------------------------------------- *)

(* A shard with frames outstanding that has answered nobody for one
   retransmission timeout is suspected, and every frame waiting on it
   fails over then rather than at the 1 s call timeout.  Silence — not a
   per-frame deadline — is the evidence: a saturated shard keeps
   answering someone every service time, so its slow round trips never
   look like death.  The breaker still trips only on its own rule, via
   the timeouts the expiry delivers. *)

let current_rto s =
  if not s.sampled then rto_max
  else Float.min rto_max (Float.max rto_min (s.timing.(srtt) +. (4.0 *. s.timing.(rttvar))))
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
    let deadline = silent_since t shard s +. current_rto s in
    if Engine.now (engine t) >= deadline then begin
      Metrics.inc (Lazy.force t.c_expiries);
      Dacs_net.Rpc.expire (Service.rpc t.services) shard
    end
    else
      (* An absolute deadline strictly in the future: rounding cannot
         re-arm at the same instant. *)
      arm t s ~at:deadline
  end

(* --- batching and dispatch ---------------------------------------------- *)

let state_of t shard =
  match Hashtbl.find_opt t.states shard with
  | Some s -> s
  | None ->
    let s =
      {
        queue = [];
        queued = 0;
        flush_pending = false;
        outstanding = 0;
        sampled = false;
        armed = false;
        check = ignore;
        timing = [| 0.0; 0.0; 0.0 |];
        sc_batches = t.c_batches shard;
        sc_dispatch = t.c_dispatch shard;
      }
    in
    s.check <- (fun () -> check t shard s);
    Hashtbl.replace t.states shard s;
    s

let fail_closed t item =
  Metrics.inc t.c_exhausted;
  item.deliver (Error "pdp tier exhausted: no shard reachable")
    { shard = None; batch = 0; failovers = List.length item.excluded; epoch = 0 }

let rec enqueue t shard item =
  let s = state_of t shard in
  s.queue <- item :: s.queue;
  s.queued <- s.queued + 1;
  Metrics.inc s.sc_dispatch;
  if s.queued >= t.batch then flush t shard
  else if not s.flush_pending then begin
    (* A partial batch flushes at the end of the current instant: the
       flush runs after the current event cascade, so every query issued
       at this virtual instant rides the same frame. *)
    s.flush_pending <- true;
    Engine.schedule (Dacs_net.Net.engine (Service.net t.services)) ~delay:0.0 (fun () -> flush t shard)
  end

and flush t shard =
  let s = state_of t shard in
  s.flush_pending <- false;
  if s.queued > 0 then begin
    let items = List.rev s.queue in
    s.queue <- [];
    s.queued <- 0;
    let n = List.length items in
    Metrics.inc s.sc_batches;
    Metrics.observe t.h_batch_size (float_of_int n);
    let sent = Engine.now (engine t) in
    if s.outstanding = 0 then s.timing.(busy_since) <- sent;
    s.outstanding <- s.outstanding + 1;
    Service.call_batch_frame t.services ~src:t.node ~dst:shard ~service:"authz-query"
      ~resilient:Dacs_net.Rpc.no_retry
      ~read:(fun c ->
        t.read_answer ~now:(Dacs_net.Net.now (Service.net t.services)) c)
      (List.map (fun i buf -> Wire.write_authz_query buf i.ctx) items)
      (fun result ->
        s.outstanding <- s.outstanding - 1;
        match result with
        | Ok parts ->
          sample_rtt s ~sent ~now:(Engine.now (engine t));
          List.iter2
            (fun item part ->
              let meta ~epoch =
                { shard = Some shard; batch = n; failovers = List.length item.excluded; epoch }
              in
              match part with
              | Ok (Ok (decision, epoch)) -> item.deliver (Ok decision) (meta ~epoch)
              | Ok (Error e) ->
                item.deliver (Ok (Decision.indeterminate ("unacceptable PDP response: " ^ e))) (meta ~epoch:0)
              | Error e ->
                (* The shard answered: an application-level fault, not a
                   health failure — no remap. *)
                item.deliver
                  (Ok (Decision.indeterminate ("PDP fault: " ^ Service.error_to_string e)))
                  (meta ~epoch:0))
            items parts
        | Error _ ->
          (* The whole frame failed: the shard is unreachable (or its
             breaker is open).  Re-route every query to the next shard in
             its own key's ranking — replica loss only remaps its own keys. *)
          if Trace.enabled (tracer t) then Trace.record (tracer t) ("tier:failover from " ^ shard);
          List.iter
            (fun item ->
              let excluded = shard :: item.excluded in
              match route t ~excluded item.point with
              | Some next ->
                Metrics.inc t.c_failovers;
                enqueue t next { item with excluded }
              | None -> fail_closed t item)
            items);
    (* A frame shed by the breaker has already failed over by now. *)
    if s.outstanding > 0 && not s.armed then
      arm t s ~at:(Float.max sent (silent_since t shard s +. current_rto s))
  end

let decide_meta ?key t ctx deliver =
  (* A PEP that already built the request key for its own caches passes
     it down; only key-less callers pay the build here. *)
  let key = match key with Some k -> k | None -> Decision_cache.request_key ctx in
  if Array.length t.seeded = 0 then begin
    Metrics.inc t.c_exhausted;
    deliver (Error "pdp tier is empty") { shard = None; batch = 0; failovers = 0; epoch = 0 }
  end
  else
    let item = { point = point_of key; ctx; deliver; excluded = [] } in
    match route t ~excluded:[] item.point with
    | Some shard -> enqueue t shard item
    | None ->
      (* Every shard's breaker is open: fail closed now, so the caller
         degrades at once instead of waiting out a timeout. *)
      fail_closed t item

let rto t shard =
  match Hashtbl.find_opt t.states shard with Some s -> current_rto s | None -> rto_max

let decide t ctx deliver = decide_meta t ctx (fun outcome _meta -> deliver outcome)

let require_signed_decisions t trust = t.read_answer <- Wire.read_authz_answer ~trust

(* --- construction ------------------------------------------------------- *)

let create services ~node ~shards:initial ?(batch = 8) () =
  if batch < 1 then invalid_arg "Pdp_tier.create: batch must be >= 1";
  let metrics = Service.metrics services in
  let own ?help name = Metrics.counter metrics ?help ~labels:[ ("node", node) ] name in
  let per_shard ?help name shard =
    Metrics.counter metrics ?help ~labels:[ ("node", node); ("shard", shard) ] name
  in
  {
    services;
    node;
    batch;
    read_answer = Wire.read_authz_answer ?trust:None;
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
    shards = initial;
    seeded = seeded_of initial;
    states = Hashtbl.create 8;
  }

let stats t =
  let metrics = Service.metrics t.services in
  let sum name =
    (* Sum over this tier's shard-labelled series only. *)
    List.fold_left
      (fun acc shard ->
        acc
        + Metrics.counter_value
            (Metrics.counter metrics ~labels:[ ("node", t.node); ("shard", shard) ] name))
      0 t.shards
  in
  {
    dispatched = sum "pdp_tier_dispatch_total";
    batches = sum "pdp_tier_batches_total";
    failovers = Metrics.counter_value t.c_failovers;
    rebalances = Metrics.counter_value t.c_rebalances;
    exhausted = Metrics.counter_value t.c_exhausted;
    expiries =
      (if Lazy.is_val t.c_expiries then Metrics.counter_value (Lazy.force t.c_expiries) else 0);
  }
