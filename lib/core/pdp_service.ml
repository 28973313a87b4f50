module Service = Dacs_ws.Service
module Engine = Dacs_net.Engine
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Policy = Dacs_policy.Policy
module Compiled = Dacs_policy.Compiled
module Metrics = Dacs_telemetry.Metrics
module Trace = Dacs_telemetry.Trace

type policy_refresh =
  | Never
  | Every_query
  | Ttl of float

type stats = {
  queries : int;
  permits : int;
  denies : int;
  pip_fetches : int;
  pap_fetches : int;
  pap_refresh_hits : int;
  overloads : int;
}

(* Like the PEP, all stats live in the bus-wide registry under this PDP's
   node label; the old record is a thin read over them. *)
type counters = {
  c_queries : Metrics.counter;
  c_permits : Metrics.counter;
  c_denies : Metrics.counter;
  c_pip_fetches : Metrics.counter;
  c_pap_fetches : Metrics.counter;
  c_pap_refresh_hits : Metrics.counter;
  c_overloads : Metrics.counter;
}

let make_counters metrics ~node =
  let own ?help name = Metrics.counter metrics ?help ~labels:[ ("node", node) ] name in
  {
    c_queries = own "pdp_queries_total" ~help:"Authorisation queries evaluated";
    c_permits = own "pdp_permits_total" ~help:"Queries decided Permit";
    c_denies = own "pdp_denies_total" ~help:"Queries decided Deny";
    c_pip_fetches = own "pdp_pip_fetches_total" ~help:"Attribute queries issued to PIPs";
    c_pap_fetches = own "pdp_pap_fetches_total" ~help:"Policy queries issued to the PAP";
    c_pap_refresh_hits = own "pdp_pap_refresh_hits_total" ~help:"PAP refreshes answered 'current'";
    c_overloads = own "pdp_overload_total" ~help:"Queries rejected by the max-inflight bound";
  }

type t = {
  services : Service.t;
  node : Dacs_net.Net.node_id;
  pap : Dacs_net.Net.node_id option;
  refresh : policy_refresh;
  pips : Dacs_net.Net.node_id list;
  signer : (Dacs_crypto.Rsa.private_key * Dacs_crypto.Cert.t) option;
  counters : counters;
  service_time : float;
  rule_cost : float;
  max_inflight : int option;
  attr_cache : Cache_hierarchy.Attr_cache.t option;
  h_batch_size : Metrics.histogram;
  h_eval : Metrics.histogram;
  h_pip_fetch : Metrics.histogram;
  busy_until : float array;  (** one slot, unboxed: the FIFO's next free instant *)
  mutable inflight : int;
  mutable resolve_ref : Policy.ref_resolver;  (** [local_ref_resolver t], built once *)
  mutable policy : Compiled.t option;  (* its [Compiled.source] is the installed tree *)
  mutable version : int;
  mutable fetched_at : float;
}

let node t = t.node
let attr_cache t = t.attr_cache
let tracer t = Service.tracer t.services

let now t = Dacs_net.Net.now (Service.net t.services)

(* Every installed or fetched tree is compiled; recompilation is
   incremental, so policy refreshes that only touch part of the tree stay
   cheap, and an unchanged tree keeps its epoch. *)
let sync_compiled t root =
  t.policy <-
    Some (match t.policy with None -> Compiled.compile root | Some prev -> Compiled.recompile prev root)

let install_policy t root =
  sync_compiled t root;
  t.fetched_at <- now t

let compiled_enabled _ = true

let compilation_epoch t =
  match t.policy with None -> 0 | Some c -> Compiled.epoch c

let policy_version t = t.version

let stats t =
  let v = Metrics.counter_value in
  let c = t.counters in
  {
    queries = v c.c_queries;
    permits = v c.c_permits;
    denies = v c.c_denies;
    pip_fetches = v c.c_pip_fetches;
    pap_fetches = v c.c_pap_fetches;
    pap_refresh_hits = v c.c_pap_refresh_hits;
    overloads = v c.c_overloads;
  }

let reset_stats t =
  let c = t.counters in
  List.iter Metrics.reset_counter
    [
      c.c_queries;
      c.c_permits;
      c.c_denies;
      c.c_pip_fetches;
      c.c_pap_fetches;
      c.c_pap_refresh_hits;
      c.c_overloads;
    ]

(* Resolve a policy reference against the locally cached tree: a direct
   child of the cached root set. *)
let local_ref_resolver t id =
  match Option.map Compiled.source t.policy with
  | Some (Policy.Inline_set s) ->
    List.find_opt (fun c -> Policy.child_id c = id) s.Policy.children
  | Some _ | None -> None

(* --- policy freshness -------------------------------------------------- *)

let needs_refresh t =
  match (t.pap, t.policy, t.refresh) with
  | None, _, _ -> false
  | Some _, None, _ -> true
  | Some _, Some _, Never -> false
  | Some _, Some _, Every_query -> true
  | Some _, Some _, Ttl ttl -> now t -. t.fetched_at >= ttl

let ensure_policy t k =
  if not (needs_refresh t) then k ()
  else begin
    match t.pap with
    | None -> k ()
    | Some pap ->
      Metrics.inc t.counters.c_pap_fetches;
      Service.call t.services ~src:t.node ~dst:pap ~breaker:true Wire.Services.policy_query
        (fun buf -> Wire.write_policy_query buf ~scope:"" ~known_version:t.version)
        (fun result ->
          (match result with
          | Ok (Ok (version, Some child)) ->
            sync_compiled t child;
            t.version <- version;
            t.fetched_at <- now t
          | Ok (Ok (_, None)) ->
            Metrics.inc t.counters.c_pap_refresh_hits;
            t.fetched_at <- now t
          | Ok (Error _) | Error _ -> () (* keep whatever we have; staleness over unavailability *));
          k ())
  end

(* --- attribute gathering -------------------------------------------------- *)

let store_attr t ~subject (category, id) bag =
  match t.attr_cache with
  | None -> ()
  | Some ac -> Cache_hierarchy.Attr_cache.store ac ~now:(now t) ~category ~id ~subject bag

(* One evaluation pass, recording the designator lookups that found
   nothing.  The attribute cache answers first — including negatively: a
   cached empty bag means no PIP had the attribute recently, so it is
   neither resolved nor refetched.  [attempted] holds the positions a
   PIP round already asked for within this evaluation, so they are not
   refetched; it stays empty until the first miss. *)
let evaluate_pass t ~subject_sym ctx attempted =
  let misses = ref [] in
  let resolve category id =
    let cached =
      match t.attr_cache with
      | None -> None
      | Some ac ->
        (* The subject was interned once per evaluation; the (category,
           id) position interns to a dense pair sym (a string-table hit),
           so the probe hashes one packed word. *)
        Cache_hierarchy.Attr_cache.find_sym ac ~now:(now t)
          ~pair:(Cache_hierarchy.Attr_cache.pair_sym category id)
          ~subject_sym:(Lazy.force subject_sym)
    in
    match cached with
    | Some [] -> None
    | Some bag -> Some bag
    | None ->
      if not (List.mem (category, id) !attempted) then misses := (category, id) :: !misses;
      None
  in
  let result =
    match t.policy with
    | None -> Decision.indeterminate "no policy installed"
    | Some c -> Compiled.evaluate ~resolve ~resolve_ref:t.resolve_ref ctx c
  in
  (result, match !misses with [] -> [] | misses -> List.sort_uniq compare misses)

(* Every outstanding miss rides one multi-part frame to the PIP — one
   correlation id, one timeout, one retry/breaker envelope for the whole
   attribute round (the B/BT envelope of the tier).  PIPs are tried in
   order and the first non-empty answer wins: only attributes a PIP
   answered empty (or a failed frame) move on to the next PIP. *)
let fetch_batched t ~subject misses ctx k =
  let rec go misses ctx pips =
    match (misses, pips) with
    | [], _ -> k ctx
    | misses, [] ->
      (* No PIP holds these: negative-cache the absence so the next
         decision skips the round trip entirely. *)
      List.iter (fun miss -> store_attr t ~subject miss []) misses;
      k ctx
    | misses, pip :: rest ->
      let handle parts =
        let ctx, unresolved =
          List.fold_left2
            (fun (ctx, unresolved) ((category, id) as miss) part ->
              match part with
              | Ok (Ok (_ :: _ as bag)) ->
                store_attr t ~subject miss bag;
                (Context.add_bag ctx category id bag, unresolved)
              | Ok (Ok [] | Error _) | Error _ -> (ctx, miss :: unresolved))
            (ctx, []) misses parts
        in
        go (List.rev unresolved) ctx rest
      in
      Metrics.inc t.counters.c_pip_fetches;
      Metrics.observe t.h_batch_size (float_of_int (List.length misses));
      let bodies =
        List.map
          (fun (category, id) buf -> Wire.write_attribute_query buf ~category ~attribute_id:id ~subject)
          misses
      in
      (match bodies with
      | [ single ] ->
        (* A batch of one needs no envelope. *)
        Service.call t.services ~src:t.node ~dst:pip ~breaker:true Wire.Services.attribute_query single
          (fun result -> handle [ result ])
      | _ ->
        Service.call_batch t.services ~src:t.node ~dst:pip ~breaker:true Wire.Services.attribute_query
          bodies (fun result ->
            match result with
            | Ok parts -> handle parts
            | Error e -> handle (List.map (fun _ -> Error e) misses)))
  in
  go misses ctx t.pips

let fetch_all t ~subject misses attempted ctx k =
  attempted := misses @ !attempted;
  let started = now t in
  let tag = Trace.exemplar_tag (tracer t) in
  let k ctx =
    Metrics.observe_exemplar t.h_pip_fetch (now t -. started) ~trace:tag ~at:(now t);
    k ctx
  in
  fetch_batched t ~subject misses ctx k

(* Every evaluation ends here: counted, observed and its span closed. *)
let evaluated t ~span ~started ~tag result =
  Metrics.inc t.counters.c_queries;
  if Decision.is_permit result then Metrics.inc t.counters.c_permits;
  if Decision.is_deny result then Metrics.inc t.counters.c_denies;
  Metrics.observe_exemplar t.h_eval (now t -. started) ~trace:tag ~at:(now t);
  let tr = tracer t in
  if Trace.enabled tr then
    Trace.annotate span "decision" (Decision.decision_to_string result.Decision.decision);
  Trace.finish tr span

(* The general evaluation: one span covering the PAP refresh and every
   PIP round of the context-handler loop — all nested client spans
   parent onto it through the ambient context. *)
let evaluate_gathering t ctx k =
  let tr = tracer t in
  let span = Trace.start_span tr "pdp:evaluate" in
  Trace.annotate span "node" t.node;
  let started = now t in
  let saved = Trace.current tr in
  if Trace.enabled tr then Trace.set_current tr (Some (Trace.context span));
  let tag = Trace.exemplar_tag tr in
  ensure_policy t (fun () ->
      let subject = Option.value (Context.subject_id ctx) ~default:"" in
      let subject_sym = lazy (Cache_hierarchy.Attr_cache.subject_sym subject) in
      let attempted = ref [] in
      (* The context-handler loop: evaluate, fetch what was missing,
         re-evaluate; bounded to keep pathological policies finite. *)
      let rec loop ctx rounds =
        let result, misses = evaluate_pass t ~subject_sym ctx attempted in
        if misses = [] || t.pips = [] || rounds >= 4 then begin
          evaluated t ~span ~started ~tag result;
          k result
        end
        else fetch_all t ~subject misses attempted ctx (fun ctx -> loop ctx (rounds + 1))
      in
      loop ctx 0);
  Trace.set_current tr saved

let unresolved _ _ = None

(* Whether an evaluation can run synchronously: the policy is current,
   no PIP could be asked and no attribute cache consulted — so one pass
   decides — and no span is to be kept. *)
let at_once t =
  t.pips = [] && Option.is_none t.attr_cache && (not (needs_refresh t))
  && not (Trace.enabled (tracer t))

(* The at-once evaluation, which allocates only what evaluating the
   policy does. *)
let evaluate_now t ctx =
  let started = now t in
  let result =
    match t.policy with
    | None -> Decision.indeterminate "no policy installed"
    | Some c -> Compiled.evaluate ~resolve:unresolved ~resolve_ref:t.resolve_ref ctx c
  in
  evaluated t ~span:(Trace.start_span (tracer t) "pdp:evaluate") ~started
    ~tag:(Trace.exemplar_tag (tracer t)) result;
  result

let evaluate_local t ctx k =
  if at_once t then k (evaluate_now t ctx) else evaluate_gathering t ctx k

(* Capacity model: with a positive [service_time] each evaluation occupies
   the PDP for that long in virtual time, queueing FIFO behind whatever is
   already in progress — which is what makes a single decision point a
   measurable bottleneck and a sharded tier a measurable win (E16).  The
   default of 0 keeps the historical instantaneous-evaluation behaviour
   with no extra engine events, so seeded runs stay byte-identical.
   With a positive [rule_cost] the occupancy grows with the number of
   rules evaluation actually scans: only the candidates target-indexed
   dispatch selects for the request.  A query that found no ambient
   trace context is scheduled as it is, with nothing built for tracing. *)
let when_capacity_free t ctx f =
  let occupancy =
    match t.policy with
    | Some c when t.rule_cost > 0.0 ->
      t.service_time +. (t.rule_cost *. float_of_int (Compiled.candidate_count c ctx))
    | Some _ | None -> t.service_time
  in
  if occupancy <= 0.0 then f ()
  else begin
    let now = now t in
    let start = Float.max now t.busy_until.(0) in
    let finish = start +. occupancy in
    t.busy_until.(0) <- finish;
    let engine = Dacs_net.Net.engine (Service.net t.services) in
    let tr = tracer t in
    match Trace.current tr with
    | None -> Engine.schedule engine ~delay:(finish -. now) f
    | ambient ->
      Engine.schedule engine ~delay:(finish -. now) (fun () ->
          let saved = Trace.current tr in
          Trace.set_current tr ambient;
          f ();
          Trace.set_current tr saved)
  end

(* The max-inflight bound on top of the FIFO capacity model: [inflight]
   counts queries accepted off the wire but not yet answered — the FIFO
   backlog plus whatever is mid-evaluation (PIP rounds included).  Past
   the bound the query is rejected {e now}, with an Indeterminate the
   requester can only treat as a deny: a saturated decision point sheds
   load instead of growing an unbounded queue of doomed work. *)
let overloaded t =
  match t.max_inflight with Some m -> t.inflight >= m | None -> false

let overload_reason = "pdp overloaded"

(* The answer to one authorisation query, off the FIFO. *)
let reply_decision t reply result =
  t.inflight <- t.inflight - 1;
  let epoch = compilation_epoch t in
  match t.signer with
  | None -> reply (fun buf -> Wire.write_authz_response ~epoch buf result)
  | Some (key, cert) ->
    reply (fun buf -> Wire.write_signed_authz_response ~epoch ~key ~cert buf result)

let serve_query t ctx reply =
  if at_once t then reply_decision t reply (evaluate_now t ctx)
  else evaluate_gathering t ctx (fun result -> reply_decision t reply result)

let create services ~node ~name:_ ?root ?pap ?refresh ?(pips = []) ?signer ?(service_time = 0.0)
    ?(rule_cost = 0.0) ?max_inflight ?attr_cache_ttl () =
  let refresh =
    match refresh with
    | Some r -> r
    | None -> (match pap with Some _ -> Every_query | None -> Never)
  in
  let metrics = Service.metrics services in
  let attr_cache =
    Option.map (fun ttl -> Cache_hierarchy.Attr_cache.create metrics ~node ~ttl ()) attr_cache_ttl
  in
  let t =
    {
      services;
      node;
      pap;
      refresh;
      pips;
      signer;
      counters = make_counters metrics ~node;
      service_time;
      rule_cost;
      max_inflight;
      attr_cache;
      h_batch_size =
        Metrics.histogram metrics ~help:"Missing attributes fetched per PIP round trip"
          ~labels:[ ("node", node) ] "pdp_attr_batch_size";
      h_eval =
        Metrics.histogram metrics ~help:"Policy evaluation latency (PAP/PIP rounds included)"
          ~labels:[ ("node", node) ] "pdp_eval_seconds";
      h_pip_fetch =
        Metrics.histogram metrics ~help:"PIP attribute fetch round latency"
          ~labels:[ ("node", node) ] "pdp_pip_fetch_seconds";
      busy_until = [| 0.0 |];
      inflight = 0;
      resolve_ref = (fun _ -> None);
      policy = Option.map Compiled.compile root;
      version = 0;
      fetched_at = -.infinity;
    }
  in
  t.resolve_ref <- local_ref_resolver t;
  (match attr_cache with
  | None -> ()
  | Some ac ->
    (* Explicit invalidation path: the PIP pushes when an attribute is
       removed, so revocation never waits out the cache TTL.  Only this
       PDP's own PIPs may push: a drop from anyone else is ignored. *)
    Service.serve_cast services ~node Wire.Services.attribute_invalidate
      (fun ~caller (subject, id) ->
        if List.mem caller pips then Cache_hierarchy.Attr_cache.invalidate_subject ac ~subject ~id);
    List.iter
      (fun pip ->
        Service.cast services ~src:node ~dst:pip Wire.Services.attribute_subscribe
          Wire.write_attribute_subscribe)
      pips);
  Service.serve services ~node Wire.Services.authz_query
    (fun ~caller:_ ~headers:_ ctx reply ->
      if overloaded t then begin
        Metrics.inc t.counters.c_overloads;
        reply (fun buf -> Wire.write_authz_response buf (Decision.indeterminate overload_reason))
      end
      else begin
        t.inflight <- t.inflight + 1;
        when_capacity_free t ctx (fun () -> serve_query t ctx reply)
      end);
  t
