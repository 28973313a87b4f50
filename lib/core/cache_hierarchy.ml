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

  let clear t = Hashtbl.reset t.table
  let size t = Hashtbl.length t.table
  let hits t = Metrics.counter_value t.c_hits
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
  let counter t = t.c_coalesced
end

(* ===================================================================== *)
(* Domain-level shared L2 decision cache                                 *)
(* ===================================================================== *)

module L2 = struct
  type t = {
    services : Service.t;
    node : Dacs_net.Net.node_id;
    cache : Decision_cache.t;
    mutable purged_at : float;
        (** when the last purge was applied — puts sent before it are
            rejected rather than resurrected *)
    c_lookups : Metrics.counter;
    c_hits : Metrics.counter;
    c_puts : Metrics.counter;
    c_invalidations : Metrics.counter;
    c_rejected_puts : Metrics.counter;
  }

  type stats = { lookups : int; hits : int; puts : int; invalidations : int; size : int }

  let node t = t.node
  let size t = Decision_cache.size t.cache
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

  let create services ~node ?metrics ?(max_entries = 4096) ~ttl () =
    let registry = match metrics with Some m -> m | None -> Service.metrics services in
    let own ?help name = Metrics.counter registry ?help ~labels:[ ("node", node) ] name in
    let t =
      {
        services;
        node;
        cache = Decision_cache.create ~metrics:registry ~owner:node ~max_entries ~ttl ();
        purged_at = neg_infinity;
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
    Service.serve_cast services ~node Wire.Services.cache_put
      (fun ~caller:_ (key, result, sent_at) ->
        (* The put/invalidate race: a put composed before a purge must not land
           after it and resurrect its entry.  The reader drops unstamped puts. *)
        if sent_at < t.purged_at then Metrics.inc t.c_rejected_puts
        else begin
          Metrics.inc t.c_puts;
          Decision_cache.put t.cache ~now:(now t) ~key result
        end);
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

  let remote_put services ~src ~l2 ~key result =
    let sent_at = Dacs_net.Net.now (Service.net services) in
    Service.cast services ~src ~dst:l2 Wire.Services.cache_put (fun buf ->
        Wire.write_cache_put ~sent_at buf ~key result)
end
