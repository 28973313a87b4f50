module Service = Dacs_ws.Service
module Context = Dacs_policy.Context
module Delta = Dacs_policy.Delta
module Value = Dacs_policy.Value
module Metrics = Dacs_telemetry.Metrics
module Trace = Dacs_telemetry.Trace

(* ===================================================================== *)
(* PDP-side attribute cache                                              *)
(* ===================================================================== *)

module Attr_cache = struct
  type entry = { bag : Value.bag; expires : float }

  type t = {
    ttl : float;
    (* Packed (pair sym, subject sym) word — see Intern.pack2.  An
       int-keyed table hashes one machine word per probe instead of a
       three-string tuple. *)
    table : (int, entry) Hashtbl.t;
    c_hits : Metrics.counter;
    c_misses : Metrics.counter;
    c_invalidations : Metrics.counter;
  }

  let create metrics ~node ~ttl () =
    if ttl <= 0.0 then invalid_arg "Attr_cache.create: ttl must be positive";
    let own ?help name = Metrics.counter metrics ?help ~labels:[ ("node", node) ] name in
    {
      ttl;
      table = Hashtbl.create 1024;
      c_hits = own "pdp_attr_cache_hits_total" ~help:"Attribute bags served from the PDP cache";
      c_misses = own "pdp_attr_cache_misses_total" ~help:"Attribute-cache lookups that missed";
      c_invalidations =
        own "pdp_attr_cache_invalidations_total"
          ~help:"Cached attribute bags dropped on PIP invalidation";
    }

  let pair_sym category id = Intern.pair Intern.global category id
  let subject_sym subject = Intern.string Intern.global subject
  let key ~pair ~subject_sym = Intern.pack2 pair subject_sym

  let find_key t ~now k =
    match Hashtbl.find_opt t.table k with
    | Some e when now < e.expires ->
      Metrics.inc t.c_hits;
      Some e.bag
    | Some _ ->
      Hashtbl.remove t.table k;
      Metrics.inc t.c_misses;
      None
    | None ->
      Metrics.inc t.c_misses;
      None

  let find_sym t ~now ~pair ~subject_sym = find_key t ~now (key ~pair ~subject_sym)

  let store t ~now ~category ~id ~subject bag =
    Hashtbl.replace t.table
      (key ~pair:(pair_sym category id) ~subject_sym:(subject_sym subject))
      { bag; expires = now +. t.ttl }

  let invalidate_subject t ~subject ~id =
    let k = key ~pair:(pair_sym Context.Subject id) ~subject_sym:(subject_sym subject) in
    if Hashtbl.mem t.table k then begin
      Hashtbl.remove t.table k;
      Metrics.inc t.c_invalidations
    end
end

(* ===================================================================== *)
(* Single-flight coalescing                                              *)
(* ===================================================================== *)

module Single_flight = struct
  type 'w flight = { key : string; mutable waiters : 'w list  (** newest first *) }

  type 'w t = {
    inflight : (string, 'w flight) Hashtbl.t;
    c_coalesced : Metrics.counter;
  }

  let create metrics ~node =
    {
      inflight = Hashtbl.create 16;
      c_coalesced =
        Metrics.counter metrics ~labels:[ ("node", node) ]
          ~help:"Identical in-flight queries folded onto one upstream call" "coalesced_total";
    }

  let find t ~key = Hashtbl.find_opt t.inflight key

  let wait t flight w =
    flight.waiters <- w :: flight.waiters;
    Metrics.inc t.c_coalesced

  let lead t ~key =
    let flight = { key; waiters = [] } in
    Hashtbl.replace t.inflight key flight;
    flight

  (* Unregister before anyone is answered: a continuation issuing the
     same query again must start a new flight, not join a finished one. *)
  let settle t flight =
    Hashtbl.remove t.inflight flight.key;
    match flight.waiters with [] -> [] | waiters -> List.rev waiters

  let coalesced t = Metrics.counter_value t.c_coalesced
end

(* ===================================================================== *)
(* Cache summaries                                                       *)
(* ===================================================================== *)

let fingerprint key = Hashtbl.hash key

(* A PEP's summary of what its L2 has announced (Fan et al.'s Summary
   Cache): two Bloom filters of about 8 bits per L2 entry.  Fingerprints
   go into the current one; once it holds [capacity] of them it becomes
   the previous one and the old previous one is cleared for reuse, so
   the last [capacity] announcements are always listed and the summary
   never grows.  It only answers "worth asking the L2"; a wrong answer
   costs a round trip, never a decision. *)
module Summary = struct
  type t = {
    capacity : int;
    mask : int;  (** bits per filter, less one *)
    mutable current : Bytes.t;
    mutable previous : Bytes.t;
    mutable count : int;  (** fingerprints in [current] *)
  }

  (* The largest L2 a summary is sized for: a digest claiming more is
     summarised at this size, at a higher false-positive rate. *)
  let max_capacity = 1 lsl 18

  (* Bit positions per fingerprint: 4 at 8 bits per entry lists a full
     filter's absent keys about 2.4 % of the time. *)
  let probes = 4

  let create ~capacity =
    let capacity = Int.max 1 (Int.min capacity max_capacity) in
    let bits = ref 64 in
    while !bits < 8 * capacity do
      bits := 2 * !bits
    done;
    let filter () = Bytes.make (!bits / 8) '\000' in
    { capacity; mask = !bits - 1; current = filter (); previous = filter (); count = 0 }

  let capacity t = t.capacity

  (* Double hashing: probe [i] is [fp + i·step], [step] odd and drawn
     from the fingerprint's high bits. *)
  let step fp = (fp lsr 17) lor 1 [@@inline]

  let add t fp =
    if t.count = t.capacity then begin
      let spare = t.previous in
      Bytes.fill spare 0 (Bytes.length spare) '\000';
      t.previous <- t.current;
      t.current <- spare;
      t.count <- 0
    end;
    t.count <- t.count + 1;
    let step = step fp in
    for i = 0 to probes - 1 do
      let bit = (fp + (i * step)) land t.mask in
      let byte = Char.code (Bytes.unsafe_get t.current (bit lsr 3)) in
      Bytes.unsafe_set t.current (bit lsr 3) (Char.unsafe_chr (byte lor (1 lsl (bit land 7))))
    done

  let rec listed_in filter ~mask fp ~step i =
    i = probes
    ||
    let bit = (fp + (i * step)) land mask in
    Char.code (Bytes.unsafe_get filter (bit lsr 3)) land (1 lsl (bit land 7)) <> 0
    && listed_in filter ~mask fp ~step (i + 1)

  let mem t fp =
    let step = step fp in
    listed_in t.current ~mask:t.mask fp ~step 0 || listed_in t.previous ~mask:t.mask fp ~step 0
end

(* ===================================================================== *)
(* Domain-level shared L2 decision cache                                 *)
(* ===================================================================== *)

module L2 = struct
  (* How often, at most, an L2 casts its batch of accepted puts to its
     subscribers.  Like [Pdp_tier.rto_min], deliberately not settable:
     it trades a digest frame per subscriber against how long a new
     entry stays unknown to the other PEPs, and an entry unknown to them
     costs a tier query, never a wrong answer. *)
  let digest_period = 0.1

  type t = {
    services : Service.t;
    node : Dacs_net.Net.node_id;
    max_entries : int;
    cache : Decision_cache.t;
    mutable purged_at : float;
        (** when the last purge was applied — puts sent before it are
            rejected rather than resurrected *)
    mutable subscribers : Dacs_net.Net.node_id list;  (** in subscription order *)
    mutable pending : int list;  (** fingerprints of puts accepted since the last digest, newest first *)
    mutable digest_due : bool;  (** a digest is scheduled *)
    c_lookups : Metrics.counter;
    c_hits : Metrics.counter;
    c_puts : Metrics.counter;
    c_invalidations : Metrics.counter;
    c_rejected_puts : Metrics.counter;
  }

  type stats = { lookups : int; hits : int; puts : int; invalidations : int; size : int }

  let node t = t.node
  let rejected_puts t = Metrics.counter_value t.c_rejected_puts
  let now t = Dacs_net.Net.now (Service.net t.services)
  let tracer t = Service.tracer t.services

  let stats t =
    {
      lookups = Metrics.counter_value t.c_lookups;
      hits = Metrics.counter_value t.c_hits;
      puts = Metrics.counter_value t.c_puts;
      invalidations = Metrics.counter_value t.c_invalidations;
      size = Decision_cache.size t.cache;
    }

  (* Drop what the region covers and stamp the purge, so a put composed
     before it cannot land after it.  [Empty] is no purge at all. *)
  let invalidate_region t region =
    if not (Delta.is_empty region) then begin
      Trace.record (tracer t)
        ((if Delta.is_unbounded region then "l2:invalidate-all " else "l2:invalidate-region ") ^ t.node);
      ignore (Decision_cache.invalidate_region t.cache region);
      t.purged_at <- now t;
      Metrics.inc t.c_invalidations
    end

  let cast_digest t dst fingerprints =
    Service.cast t.services ~src:t.node ~dst Wire.Services.cache_digest (fun buf ->
        Wire.write_cache_digest buf ~capacity:t.max_entries fingerprints)

  (* One digest per subscriber carries every put accepted since the last. *)
  let send_digest t () =
    t.digest_due <- false;
    let fingerprints = List.rev t.pending in
    t.pending <- [];
    List.iter (fun dst -> cast_digest t dst fingerprints) t.subscribers

  (* Queue an accepted put's fingerprint for the next digest, scheduling
     it when none is due.  With no subscriber there is no one to tell. *)
  let announce t flush key =
    if t.subscribers <> [] then begin
      t.pending <- fingerprint key :: t.pending;
      if not t.digest_due then begin
        t.digest_due <- true;
        Dacs_net.Engine.schedule (Dacs_net.Net.engine (Service.net t.services)) ~delay:digest_period flush
      end
    end

  let create services ~node ?(max_entries = 4096) ~ttl () =
    let registry = Service.metrics services in
    let own ?help name = Metrics.counter registry ?help ~labels:[ ("node", node) ] name in
    let t =
      {
        services;
        node;
        max_entries;
        cache = Decision_cache.create ~metrics:registry ~owner:node ~max_entries ~ttl ();
        purged_at = neg_infinity;
        subscribers = [];
        pending = [];
        digest_due = false;
        c_lookups = own "l2_lookups_total" ~help:"Shared-cache lookups served";
        c_hits = own "l2_hits_total" ~help:"Shared-cache lookups answered with a fresh decision";
        c_puts = own "l2_puts_total" ~help:"Decisions stored into the shared cache";
        c_invalidations = own "l2_invalidations_total" ~help:"Invalidation rounds applied";
        c_rejected_puts =
          own "l2_rejected_puts_total"
            ~help:"Puts sent before the last purge, dropped instead of resurrected";
      }
    in
    Service.serve services ~node Wire.Services.cache_lookup
      (fun ~caller:_ ~headers:_ key reply ->
        Metrics.inc t.c_lookups;
        let answer = Decision_cache.get t.cache ~now:(now t) ~key in
        if answer <> None then Metrics.inc t.c_hits;
        reply (fun buf -> Wire.write_cache_answer buf answer));
    let flush = send_digest t in
    Service.serve_cast services ~node Wire.Services.cache_put
      (fun ~caller:_ (key, result, sent_at) ->
        (* The put/invalidate race: a put composed before a purge must not land
           after it and resurrect its entry.  The reader drops unstamped puts. *)
        if sent_at < t.purged_at then Metrics.inc t.c_rejected_puts
        else begin
          Metrics.inc t.c_puts;
          Decision_cache.put t.cache ~now:(now t) ~key result;
          (* The cache stores no Indeterminate: announce none. *)
          match result.Dacs_policy.Decision.decision with
          | Dacs_policy.Decision.Indeterminate _ -> ()
          | Dacs_policy.Decision.Permit | Dacs_policy.Decision.Deny | Dacs_policy.Decision.Not_applicable ->
            announce t flush key
        end);
    (* A new subscriber learns every live key at once; a repeated
       subscription (a PEP re-attached) learns them again. *)
    Service.serve_cast services ~node Wire.Services.cache_subscribe (fun ~caller () ->
        if not (List.mem caller t.subscribers) then t.subscribers <- t.subscribers @ [ caller ];
        cast_digest t caller
          (Decision_cache.fold_live t.cache ~now:(now t) (fun key fps -> fingerprint key :: fps) []));
    t

  (* --- client side (what a PEP calls) ---------------------------------- *)

  let remote_lookup services ~src ~l2 ~key k =
    Service.call services ~src ~dst:l2 Wire.Services.cache_lookup
      (fun buf -> Wire.write_cache_lookup buf ~key)
      (fun reply ->
        match reply with
        | Ok (Ok answer) -> k answer
        | Ok (Error _) -> k None
        | Error _ ->
          (* An unreachable shared cache is a miss, never a failure: the
             caller continues down the ladder to the live tier. *)
          k None)

  let subscribe services ~src ~l2 =
    Service.cast services ~src ~dst:l2 Wire.Services.cache_subscribe Wire.write_cache_subscribe

  let remote_put services ~src ~l2 ~key result =
    let sent_at = Dacs_net.Net.now (Service.net services) in
    Service.cast services ~src ~dst:l2 Wire.Services.cache_put (fun buf ->
        Wire.write_cache_put ~sent_at buf ~key result)
end
