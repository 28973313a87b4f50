module Service = Dacs_ws.Service
module Engine = Dacs_net.Engine
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
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

  let find t ~now ~category ~id ~subject =
    find_sym t ~now ~pair:(pair_sym category id) ~subject_sym:(subject_sym subject)

  let store_sym t ~now ~pair ~subject_sym bag =
    Hashtbl.replace t.table (key ~pair ~subject_sym) { bag; expires = now +. t.ttl }

  let store t ~now ~category ~id ~subject bag =
    store_sym t ~now ~pair:(pair_sym category id) ~subject_sym:(subject_sym subject) bag

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
    mutable parent : Dacs_net.Net.node_id option;
        (** the one node whose purges this cache applies *)
    mutable children : Dacs_net.Net.node_id list;
    mutable epoch : int;  (** purges applied here *)
    mutable parent_epoch : int;  (** parent's epoch as last pushed/polled *)
    mutable purged_at : float;
        (** when the last purge was applied — puts sent before it are
            rejected rather than resurrected *)
    mutable on_region : Dacs_policy.Delta.t -> unit;
    c_lookups : Metrics.counter;
    c_hits : Metrics.counter;
    c_puts : Metrics.counter;
    c_invalidations : Metrics.counter;
    c_rejected_puts : Metrics.counter;
    h_latency : Metrics.histogram;
  }

  type stats = { lookups : int; hits : int; puts : int; invalidations : int; size : int; epoch : int }

  let node t = t.node
  let epoch (t : t) = t.epoch
  let size t = Decision_cache.size t.cache
  let set_on_region t f = t.on_region <- f
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
      epoch = t.epoch;
    }

  let subscribe t ~child =
    child.parent <- Some t.node;
    if not (List.mem child.node t.children) then t.children <- child.node :: t.children

  (* Fan a purge down the syndication hierarchy (Fig. 5 in reverse:
     purges flow parent -> child, the same edges policy updates flow).
     The frame carries the sender's post-purge epoch, so a delivered push
     satisfies the next anti-entropy poll and a lost one is repaired by
     it (as a full purge).  Each child ack is a sample of the
     invalidation latency — how long a revoked grant can still be served
     from that child. *)
  let fan_out t region =
    let started = now t in
    List.iter
      (fun child ->
        Service.call_frame t.services ~src:t.node ~dst:child ~service:"cache-region"
          ~read:Wire.read_cache_epoch
          (fun buf -> Wire.write_cache_region buf ~epoch:t.epoch region)
          (fun reply ->
            match reply with
            | Ok _ -> Metrics.observe t.h_latency (now t -. started)
            | Error _ -> ()))
      t.children

  (* The one purge every path runs: drop what the region covers, bump
     the epoch, run the hook (a domain purges its PEPs' L1s there), fan
     out.  [Empty] is no purge at all — no epoch bump, so no poll-driven
     flush follows it. *)
  let apply t region =
    if not (Dacs_policy.Delta.is_empty region) then begin
      ignore (Decision_cache.invalidate_region t.cache region);
      t.purged_at <- now t;
      t.epoch <- t.epoch + 1;
      Metrics.inc t.c_invalidations;
      t.on_region region;
      fan_out t region
    end

  let invalidate_region t region =
    (match region with
    | Dacs_policy.Delta.Empty -> ()
    | Dacs_policy.Delta.Unbounded -> Trace.record (tracer t) ("l2:invalidate-all " ^ t.node)
    | Dacs_policy.Delta.Zones _ -> Trace.record (tracer t) ("l2:invalidate-region " ^ t.node));
    apply t region

  (* Anti-entropy backstop: poll the parent's epoch; any purge we missed
     (down at push time, partitioned, ...) is applied within one round as
     a full purge, so a revocation bounds every descendant's staleness by
     the polling period. *)
  let enable_anti_entropy t ~parent ~period =
    if period <= 0.0 then invalid_arg "L2.enable_anti_entropy: period must be positive";
    t.parent <- Some parent;
    let engine = Dacs_net.Net.engine (Service.net t.services) in
    let rec poll () =
      Service.call_frame t.services ~src:t.node ~dst:parent ~service:"cache-sync" ~read:Wire.read_cache_epoch
        (fun buf -> Wire.write_cache_sync buf ~known_epoch:t.parent_epoch)
        (fun reply ->
          (match reply with
          | Ok (Ok epoch) when epoch > t.parent_epoch ->
            t.parent_epoch <- epoch;
            apply t Dacs_policy.Delta.unbounded
          | Ok _ | Error _ -> ());
          Engine.schedule engine ~delay:period poll)
    in
    poll ()

  let create services ~node ?metrics ?(max_entries = 4096) ~ttl () =
    let registry = match metrics with Some m -> m | None -> Service.metrics services in
    let own ?help name = Metrics.counter registry ?help ~labels:[ ("node", node) ] name in
    let t =
      {
        services;
        node;
        cache = Decision_cache.create ~metrics:registry ~owner:node ~max_entries ~ttl ();
        parent = None;
        children = [];
        epoch = 0;
        parent_epoch = 0;
        purged_at = neg_infinity;
        on_region = (fun _ -> ());
        c_lookups = own "l2_lookups_total" ~help:"Shared-cache lookups served";
        c_hits = own "l2_hits_total" ~help:"Shared-cache lookups answered with a fresh decision";
        c_puts = own "l2_puts_total" ~help:"Decisions stored into the shared cache";
        c_invalidations = own "l2_invalidations_total" ~help:"Invalidation rounds applied";
        c_rejected_puts =
          own "l2_rejected_puts_total"
            ~help:"Puts sent before the last purge, dropped instead of resurrected";
        h_latency =
          Metrics.histogram registry
            ~help:"Virtual seconds from an invalidation to each child's ack"
            ~labels:[ ("node", node) ] "l2_invalidation_latency_seconds";
      }
    in
    Service.serve_frame services ~node ~service:"cache-lookup" ~read:Wire.read_cache_lookup
      (fun ~caller:_ ~headers:_ key reply ->
        Metrics.inc t.c_lookups;
        let answer = Decision_cache.get t.cache ~now:(now t) ~key in
        if answer <> None then Metrics.inc t.c_hits;
        reply (fun buf -> Wire.write_cache_answer buf answer));
    Service.serve_frame services ~node ~service:"cache-put" ~read:Wire.read_cache_put
      (fun ~caller:_ ~headers:_ (key, result, sent_at) reply ->
        (* The put/invalidate race: a fire-and-forget put composed
           before a purge must not land after it and resurrect the
           entry it carried.  The reader refuses unstamped puts. *)
        if sent_at < t.purged_at then Metrics.inc t.c_rejected_puts
        else begin
          Metrics.inc t.c_puts;
          Decision_cache.put t.cache ~now:(now t) ~key result
        end;
        reply Wire.write_cache_put_ack);
    (* Purges and polls are all answered with this cache's epoch. *)
    let answer_epoch reply = reply (fun buf -> Wire.write_cache_epoch buf ~epoch:t.epoch) in
    (* A purge is accepted only from this cache's parent: any other node
       could otherwise flush a domain's caches at will, or poison the
       parent epoch the anti-entropy poll compares against. *)
    Service.serve_frame services ~node ~service:"cache-region" ~read:Wire.read_cache_region
      (fun ~caller ~headers:_ (sender_epoch, region) reply ->
        if t.parent <> Some caller then
          reply (Service.sender_fault "cache purges are accepted only from the parent cache")
        else begin
          t.parent_epoch <- max t.parent_epoch sender_epoch;
          apply t region;
          answer_epoch reply
        end);
    Service.serve_frame services ~node ~service:"cache-sync" ~read:Wire.read_cache_sync
      (fun ~caller:_ ~headers:_ _ reply -> answer_epoch reply);
    t

  (* --- client side (what a PEP calls) ---------------------------------- *)

  let remote_lookup services ~src ~l2 ~key k =
    Service.call_frame services ~src ~dst:l2 ~service:"cache-lookup" ~read:Wire.read_cache_answer
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
    Service.call_frame services ~src ~dst:l2 ~service:"cache-put"
      ~read:Wire.read_cache_put_ack
      (fun buf -> Wire.write_cache_put ~sent_at buf ~key result)
      (fun _ -> ())
end
