module Xml = Dacs_xml.Xml
module Service = Dacs_ws.Service
module Context = Dacs_policy.Context
module Value = Dacs_policy.Value
module Decision = Dacs_policy.Decision
module Obligation = Dacs_policy.Obligation
module Assertion = Dacs_saml.Assertion
module Metrics = Dacs_telemetry.Metrics
module Trace = Dacs_telemetry.Trace

type mode =
  | Pull of {
      pdps : Dacs_net.Net.node_id list;
      cache : Decision_cache.t option;
      call_timeout : float;
    }
  | Sharded of { tier : Pdp_tier.t; cache : Decision_cache.t option }
  | Push of {
      trusted_issuer : string -> Dacs_crypto.Rsa.public_key option;
      check_revocation : Dacs_net.Net.node_id option;
      local_pdp : Pdp_service.t option;
    }
  | Agent of Pdp_service.t

(* A mode as the PEP keeps it: a pull PEP's failover list becomes an
   ordered tier at [create], so every decision that crosses the wire is
   one [Pdp_tier] call, under one trust store and one retry policy. *)
type serving =
  | Tier of { tier : Pdp_tier.t; cache : Decision_cache.t option }
  | Capability of {
      trusted_issuer : string -> Dacs_crypto.Rsa.public_key option;
      check_revocation : Dacs_net.Net.node_id option;
      local_pdp : Pdp_service.t option;
    }
  | Local of Pdp_service.t

type admission = { max_inflight : int; max_queue : int }

type stats = {
  requests : int;
  granted : int;
  denied : int;
  pdp_calls : int;
  failovers : int;
  retries : int;
  breaker_trips : int;
  breaker_rejections : int;
  cache_hits : int;
  l2_hits : int;
  coalesced : int;
  stale_serves : int;
  offline_serves : int;
  shed : int;
  assertion_rejections : int;
  revocation_checks : int;
  obligations_fulfilled : int;
}

(* Every stat lives in the bus-wide registry, labelled by this PEP's node
   — the resilience trio on the very series the RPC layer increments
   ([rpc_*_total{src=node}]), so one reset is consistent everywhere. *)
let shed_reason = "overload: admission queue full"

type counters = {
  c_requests : Metrics.counter;
  c_granted : Metrics.counter;
  c_denied : Metrics.counter;
  c_pdp_calls : Metrics.counter;
  c_retries : Metrics.counter;
  c_breaker_trips : Metrics.counter;
  c_breaker_rejections : Metrics.counter;
  c_cache_hits : Metrics.counter;
  c_l2_hits : Metrics.counter;
  c_stale_serves : Metrics.counter;
  c_offline_serves : Metrics.counter;
  c_shed : Metrics.counter;
  (* The admission-shed cell, resolved once: the shed path must not pay a
     label-set registration per rejected request. *)
  c_shed_admission : Metrics.counter;
  c_assertion_rejections : Metrics.counter;
  c_revocation_checks : Metrics.counter;
  c_obligations_fulfilled : Metrics.counter;
  h_decide : Provenance.stage -> Metrics.histogram;
      (* stage-labelled ladder latency; handles memoised per stage so an
         observation is one array read, not a registry lookup *)
  h_queue_wait : Metrics.histogram;
  h_l2_lookup : Metrics.histogram;
  h_live_call : Metrics.histogram;
}

let make_counters metrics ~node =
  let own ?help name = Metrics.counter metrics ?help ~labels:[ ("node", node) ] name in
  let rpc name = Metrics.counter metrics ~labels:[ ("src", node) ] name in
  let c_shed_admission =
    Metrics.counter metrics ~help:"Shed requests by reason"
      ~labels:[ ("node", node); ("reason", shed_reason) ]
      "pep_shed_reason_total"
  in
  let h_decide =
    (* One histogram handle per ladder stage, resolved on first use so
       the exposed series set is unchanged (a stage never served never
       registers), then cached — no per-observe label-list rebuild. *)
    let memo = Array.make Provenance.stage_count None in
    fun stage ->
      let i = Provenance.stage_index stage in
      match memo.(i) with
      | Some h -> h
      | None ->
        let h =
          Metrics.histogram metrics ~help:"Decision-ladder latency by serving stage"
            ~labels:[ ("node", node); ("stage", Provenance.stage_name stage) ]
            "pep_decide_seconds"
        in
        memo.(i) <- Some h;
        h
  in
  {
    c_requests = own "pep_requests_total" ~help:"Access requests received by the PEP";
    c_granted = own "pep_granted_total" ~help:"Requests answered with access granted";
    c_denied = own "pep_denied_total" ~help:"Requests answered with access denied";
    c_pdp_calls = own "pep_pdp_calls_total" ~help:"Authorisation queries issued to PDP replicas";
    c_retries = rpc "rpc_retries_total";
    c_breaker_trips = rpc "rpc_breaker_trips_total";
    c_breaker_rejections = rpc "rpc_breaker_rejections_total";
    c_cache_hits = own "pep_cache_hits_total" ~help:"Decisions served fresh from cache";
    c_l2_hits = own "pep_l2_hits_total" ~help:"Decisions served fresh from the shared L2 cache";
    c_stale_serves = own "pep_stale_serves_total" ~help:"Degraded answers served from expired cache";
    c_offline_serves =
      own "pep_offline_serves_total" ~help:"Decisions served from the domain's offline event log";
    c_shed = own "pep_shed_total" ~help:"Requests shed by the bounded admission queue";
    c_shed_admission;
    c_assertion_rejections =
      own "pep_assertion_rejections_total" ~help:"Capability assertions rejected";
    c_revocation_checks = own "pep_revocation_checks_total" ~help:"Revocation-status queries issued";
    c_obligations_fulfilled = own "pep_obligations_fulfilled_total" ~help:"Obligations fulfilled";
    h_decide;
    h_queue_wait =
      Metrics.histogram metrics ~help:"Admission-queue wait of parked requests"
        ~labels:[ ("node", node) ] "pep_queue_wait_seconds";
    h_l2_lookup =
      Metrics.histogram metrics ~help:"Shared L2 cache lookup round-trip latency"
        ~labels:[ ("node", node) ] "pep_l2_lookup_seconds";
    h_live_call =
      Metrics.histogram metrics ~help:"Live decision-tier call latency (failovers included)"
        ~labels:[ ("node", node) ] "pep_live_call_seconds";
  }

type t = {
  services : Service.t;
  node : Dacs_net.Net.node_id;
  domain : string;
  resource : string;
  content : string;
  audit : Audit.t;
  encryption_key : string option;
  nonces : Dacs_crypto.Rng.t;  (* draws the nonce of every encrypted response *)
  counters : counters;
  sf : (Decision.result -> Provenance.t -> unit) Cache_hierarchy.Single_flight.t;
  serving : serving;
  mutable stale_window : float;
  mutable offline : Offline.t option;
  mutable l2 : Dacs_net.Net.node_id option;
  mutable admission : admission option;
  mutable inflight : int;
  waiting : (unit -> unit) Queue.t;
}

let node t = t.node
let resource t = t.resource
let audit t = t.audit
let tracer t = Service.tracer t.services

let stats t =
  let v = Metrics.counter_value in
  let c = t.counters in
  {
    requests = v c.c_requests;
    granted = v c.c_granted;
    denied = v c.c_denied;
    pdp_calls = v c.c_pdp_calls;
    failovers =
      (match t.serving with
      | Tier { tier; _ } -> (Pdp_tier.stats tier).Pdp_tier.failovers
      | Capability _ | Local _ -> 0);
    retries = v c.c_retries;
    breaker_trips = v c.c_breaker_trips;
    breaker_rejections = v c.c_breaker_rejections;
    cache_hits = v c.c_cache_hits;
    l2_hits = v c.c_l2_hits;
    coalesced = Cache_hierarchy.Single_flight.coalesced t.sf;
    stale_serves = v c.c_stale_serves;
    offline_serves = v c.c_offline_serves;
    shed = v c.c_shed;
    assertion_rejections = v c.c_assertion_rejections;
    revocation_checks = v c.c_revocation_checks;
    obligations_fulfilled = v c.c_obligations_fulfilled;
  }

let reset_stats t =
  let c = t.counters in
  List.iter Metrics.reset_counter
    [
      c.c_requests;
      c.c_granted;
      c.c_denied;
      c.c_pdp_calls;
      c.c_retries;
      c.c_breaker_trips;
      c.c_breaker_rejections;
      c.c_cache_hits;
      c.c_l2_hits;
      Cache_hierarchy.Single_flight.counter t.sf;
      c.c_stale_serves;
      c.c_offline_serves;
      c.c_shed;
      c.c_shed_admission;
      c.c_assertion_rejections;
      c.c_revocation_checks;
      c.c_obligations_fulfilled;
    ]

let now t = Dacs_net.Net.now (Service.net t.services)

let invalidate_region t region =
  match t.serving with
  | Tier { cache = Some cache; _ } -> Decision_cache.invalidate_region cache region
  | Tier _ | Capability _ | Local _ -> 0

let set_l2 t l2 = t.l2 <- l2

let set_admission t a =
  (match a with
  | Some { max_inflight; max_queue } when max_inflight <= 0 || max_queue < 0 ->
    invalid_arg "Pep.set_admission: max_inflight must be positive and max_queue non-negative"
  | _ -> ());
  t.admission <- a;
  (* Removing the bound admits everything that was waiting.  Each job
     still releases its slot when it completes, so take one first. *)
  if a = None then begin
    let drained = Queue.fold (fun acc job -> job :: acc) [] t.waiting in
    Queue.clear t.waiting;
    List.iter
      (fun job ->
        t.inflight <- t.inflight + 1;
        job ())
      (List.rev drained)
  end

let admission t = t.admission
let admission_inflight t = t.inflight
let admission_queue_length t = Queue.length t.waiting

let require_signed_decisions t trust =
  match t.serving with
  | Tier { tier; _ } -> Pdp_tier.require_signed_decisions tier trust
  | Capability _ | Local _ ->
    invalid_arg "Pep.require_signed_decisions: no decision crosses the wire in push or agent mode"

let set_retry_policy t retry =
  match t.serving with
  | Tier { tier; _ } -> Pdp_tier.set_retry_policy tier (Option.value retry ~default:Dacs_net.Rpc.no_retry)
  | Capability _ | Local _ ->
    invalid_arg "Pep.set_retry_policy: no decision call to re-send in push or agent mode"

let set_stale_window t window =
  if window < 0.0 then invalid_arg "Pep.set_stale_window: negative window";
  t.stale_window <- window

let set_offline_replica t o = t.offline <- o

(* Discovery-driven rebinding reshapes the tier: lapsed replicas drop
   out, new ones join, and only their keys remap. *)
let set_pull_pdps t pdps =
  match t.serving with
  | Tier { tier; _ } -> Pdp_tier.set_shards tier pdps
  | Capability _ | Local _ -> ()

let pull_pdps t =
  match t.serving with Tier { tier; _ } -> Pdp_tier.shards tier | Capability _ | Local _ -> []

(* --- enforcement -------------------------------------------------------- *)

let fulfil_obligations t (result : Decision.result) =
  (* Returns the content (possibly encrypted) and whether encryption was
     applied.  Unknown obligations are a PEP error in XACML; here they
     deny (the PEP "must understand" its obligations, §2.3). *)
  let rec go content encrypted fulfilled = function
    | [] -> Ok (content, encrypted, fulfilled)
    | (o : Obligation.t) :: rest -> (
      match o.Obligation.id with
      | "urn:dacs:obligation:audit" -> go content encrypted (fulfilled + 1) rest
      | "urn:dacs:obligation:content-filter" -> (
        (* Content-based access (§3.1): inspect the representation that
           would be provisioned; refuse when the forbidden marker occurs. *)
        match List.assoc_opt "forbidden" o.Obligation.parameters with
        | Some (Value.String forbidden) ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
            nn = 0 || go 0
          in
          (* Always inspect the original representation, even if an
             earlier obligation already encrypted the response. *)
          if contains t.content forbidden then
            Error (Printf.sprintf "content filter matched %S" forbidden)
          else go content encrypted (fulfilled + 1) rest
        | _ -> Error "content-filter obligation lacks its forbidden parameter")
      | "urn:dacs:obligation:encrypt-response" -> (
        match t.encryption_key with
        | None -> Error "obligation to encrypt, but the PEP has no key"
        | Some key ->
          let cipher = Dacs_crypto.Stream_cipher.encrypt t.nonces ~key content in
          go (Dacs_crypto.Encoding.base64_encode cipher) true (fulfilled + 1) rest)
      | _ -> Error (Printf.sprintf "unknown obligation %s" o.Obligation.id))
  in
  go t.content false 0 result.Decision.obligations

let enforce t ~subject ~action ?provenance (result : Decision.result) reply =
  let record decision =
    Audit.record t.audit
      {
        Audit.at = now t;
        domain = t.domain;
        subject;
        resource = t.resource;
        action;
        decision;
        provenance;
      }
  in
  let deny decision reason =
    record decision;
    Metrics.inc t.counters.c_denied;
    Wire.Denied reason
  in
  let outcome =
    match result.Decision.decision with
    | Decision.Permit -> (
      match fulfil_obligations t result with
      | Ok (content, encrypted, fulfilled) ->
        record Decision.Permit;
        Metrics.inc t.counters.c_granted;
        Metrics.inc ~by:fulfilled t.counters.c_obligations_fulfilled;
        Wire.Granted { content; encrypted }
      | Error reason ->
        (* An unfulfillable obligation forbids granting access. *)
        deny Decision.Deny reason)
    | Decision.Deny -> deny Decision.Deny "denied by policy"
    | Decision.Not_applicable ->
      (* Deny-biased PEP: no applicable policy means no access. *)
      deny Decision.Deny "no applicable policy"
    | Decision.Indeterminate m -> deny (Decision.Indeterminate m) (Printf.sprintf "authorisation error: %s" m)
  in
  reply (fun buf -> Wire.write_access_outcome buf outcome)

(* --- the decision ladder ---------------------------------------------------- *)

let build_context t ~subject_attrs ~action =
  Context.make ~subject:subject_attrs
    ~resource:[ ("resource-id", Value.String t.resource) ]
    ~action:[ ("action-id", Value.String action) ]
    ~environment:[ ("time", Value.Time (now t)) ]
    ()

(* One ladder serves every tier, ordered (pull) or sharded: L1 fresh ->
   L2 fresh -> live -> bounded-stale L1 -> offline log -> fail closed.
   Identical concurrent queries (same request key) are coalesced onto one
   descent.  Every exit answers with a provenance record naming the rung
   that answered: a cache hit makes its own, and every exit below it
   carries the tier's record of the query's trip.  The ladder is written
   as plain functions over one [descent] record: a cold decision
   allocates that record, one closure per rung that waits on the wire,
   and its answer. *)

let l1_put ?since t cache ~key result =
  match cache with
  | Some cache -> Decision_cache.put ?since cache ~now:(now t) ~key result
  | None -> ()

let l2_put t ~key result =
  match t.l2 with
  | Some l2 -> Cache_hierarchy.L2.remote_put t.services ~src:t.node ~l2 ~key result
  | None -> ()

(* A finished descent frees its slot; the oldest waiter (if any) takes it
   immediately — the admission queue drains in arrival order. *)
let release_slot t =
  t.inflight <- t.inflight - 1;
  match t.admission with
  | Some a when t.inflight < a.max_inflight -> (
    match Queue.take_opt t.waiting with
    | Some job ->
      t.inflight <- t.inflight + 1;
      job ()
    | None -> ())
  | Some _ | None -> ()

(* Every answer a caller receives leaves through here: an admitted
   request frees its admission slot first, then the ladder latency is
   observed under the rung that answered. *)
let answer t ~admitted ~started ~tag k result (p : Provenance.t) =
  if admitted then release_slot t;
  Metrics.observe_exemplar
    (t.counters.h_decide p.Provenance.stage)
    (now t -. started) ~trace:tag ~at:(now t);
  k result p

(* The leader's flight settles: the leader is answered, then every waiter
   folded onto it, with the leader's record re-flagged as coalesced —
   theirs was not a descent of its own.  The leader's record is made at
   {e completion}, so a waiter that parked before a partition transition
   still observes the rung that actually answered (e.g. [Offline] when
   the tier vanished mid-flight), never the rung the ladder would have
   chosen at join time. *)
let settle t flight ~admitted ~started ~tag k result prov =
  let waiters = Cache_hierarchy.Single_flight.settle t.sf flight in
  answer t ~admitted ~started ~tag k result prov;
  match waiters with [] -> () | waiters -> List.iter (fun w -> w result prov) waiters

(* A leader's descent past a fresh-L1 miss: everything its remaining
   exits need, so each rung that waits on the wire closes over this
   record alone. *)
type descent = {
  pep : t;
  tier : Pdp_tier.t;
  ctx : Context.t;
  key : string;
  cache : Decision_cache.t option;
  found : Decision_cache.lookup;
  since : int option;
      (** L1 purges before the live query: a publish landing meanwhile keeps its answer out *)
  flight : (Decision.result -> Provenance.t -> unit) Cache_hierarchy.Single_flight.flight;
  admitted : bool;
  started : float;
  tag : string;
  k : Decision.result -> Provenance.t -> unit;
}

let settle_descent d result prov =
  settle d.pep d.flight ~admitted:d.admitted ~started:d.started ~tag:d.tag d.k result prov

(* The offline rung: below bounded-stale, above fail-closed.  With every
   live authority unreachable and no servable stale entry, a PEP holding
   an offline replica decides from the signed local event log.  The
   answer is deliberately NOT written to L1/L2 — it reflects partition-
   local knowledge and must not outlive the partition in caches that
   reconciliation would then have to chase; contradicted decisions are
   instead invalidated by deny-wins replay on heal.  Its record is the
   tier's, re-staged. *)
let offline_serve d (p : Provenance.t) =
  let t = d.pep in
  match t.offline with
  | None -> false
  | Some o -> (
    (* Reaching the degrade path means the live tier is unreachable: this
       starts (or continues) an offline episode, so the epoch stamped on
       events and provenance is consistent across the whole episode. *)
    Offline.set_offline o true;
    match Offline.decide o d.ctx with
    | None -> false
    | Some (result, head) ->
      Metrics.inc t.counters.c_offline_serves;
      Trace.record (tracer t) "pep:offline-serve";
      settle_descent d result
        { p with Provenance.stage = Offline; epoch = Offline.epoch o; log_head = Some head };
      true)

(* Degraded availability (§ dependability): with every replica down, a
   decision expired by at most [stale_window] seconds is still served —
   the last answer the policy actually gave — in preference to denying
   all access.  Beyond the bound, and with no offline log to decide
   from, we fail closed.  [p] is the tier's [Fail_closed] record; each
   exit keeps its trip and names its own rung. *)
let degrade d (p : Provenance.t) reason =
  let t = d.pep in
  match d.found with
  | Decision_cache.Stale { result; age } when t.stale_window > 0.0 ->
    Metrics.inc t.counters.c_stale_serves;
    Trace.record (tracer t) "pep:stale-serve";
    settle_descent d result { p with Provenance.stage = Stale; stale_age = age }
  | Decision_cache.Stale _ | Decision_cache.Fresh _ | Decision_cache.Absent ->
    if not (offline_serve d p) then settle_descent d (Decision.indeterminate reason) p

(* The live rung is one tier call: the tier routes, fails over, checks
   signatures and records the query's trip itself. *)
let live_answer d ~started ~tag outcome p =
  let t = d.pep in
  Metrics.observe_exemplar t.counters.h_live_call (now t -. started) ~trace:tag ~at:(now t);
  match outcome with
  | Ok result ->
    l1_put ?since:d.since t d.cache ~key:d.key result;
    (* The L2 drops an Indeterminate anyway: do not send it. *)
    (match result.Decision.decision with
    | Decision.Indeterminate _ -> ()
    | Decision.Permit | Decision.Deny | Decision.Not_applicable -> l2_put t ~key:d.key result);
    settle_descent d result p
  | Error reason -> degrade d p reason

let live d =
  let t = d.pep in
  let started = now t in
  let tag = Trace.exemplar_tag (tracer t) in
  Metrics.inc t.counters.c_pdp_calls;
  Pdp_tier.decide ~key:d.key d.tier d.ctx (fun outcome p -> live_answer d ~started ~tag outcome p)

(* Consult the domain's shared cache between an L1 miss and the live
   tier.  A hit also warms L1, so the replica that asked converges to
   answering locally.  An unreachable or malformed L2 is a miss. *)
let consult_l2 d l2 =
  let t = d.pep in
  let started = now t in
  let tag = Trace.exemplar_tag (tracer t) in
  Cache_hierarchy.L2.remote_lookup t.services ~src:t.node ~l2 ~key:d.key (fun found ->
      Metrics.observe_exemplar t.counters.h_l2_lookup (now t -. started) ~trace:tag ~at:(now t);
      match found with
      | Some result ->
        Metrics.inc t.counters.c_l2_hits;
        Trace.record (tracer t) "pep:l2-hit";
        l1_put t d.cache ~key:d.key result;
        settle_descent d result (Provenance.make ~at:(now t) Provenance.L2)
      | None -> live d)

let ladder t ~cache tier ctx ~admitted ~started ~tag k =
  let key = Decision_cache.request_key ctx in
  match Cache_hierarchy.Single_flight.find t.sf ~key with
  | Some flight ->
    (* Only [at] is re-stamped to the waiter's own delivery instant. *)
    Cache_hierarchy.Single_flight.wait t.sf flight (fun result (p : Provenance.t) ->
        answer t ~admitted ~started ~tag k result
          { p with Provenance.coalesced = true; at = now t });
    Trace.record (tracer t) "pep:coalesced"
  | None -> (
    let found =
      match cache with
      | None -> Decision_cache.Absent
      | Some cache -> Decision_cache.lookup cache ~now:(now t) ~max_stale:t.stale_window ~key
    in
    match found with
    | Decision_cache.Fresh result ->
      (* A fresh hit answers at once: no flight is led, so none is
         registered or removed, and no waiter can have joined one. *)
      Metrics.inc t.counters.c_cache_hits;
      Trace.record (tracer t) "pep:cache-hit";
      answer t ~admitted ~started ~tag k result (Provenance.make ~at:(now t) Provenance.L1)
    | Decision_cache.Stale _ | Decision_cache.Absent -> (
      let flight = Cache_hierarchy.Single_flight.lead t.sf ~key in
      let d =
        {
          pep = t;
          tier;
          ctx;
          key;
          cache;
          found;
          since = Option.map Decision_cache.purges cache;
          flight;
          admitted;
          started;
          tag;
          k;
        }
      in
      match t.l2 with None -> live d | Some l2 -> consult_l2 d l2))

(* --- push mode --------------------------------------------------------------- *)

let find_assertion headers =
  (* Capabilities arrive either as SAML assertions (CAS style) or X.509
     attribute certificates (VOMS style); both decode to the same logical
     capability. *)
  List.find_map
    (fun h ->
      match Xml.local_name (Xml.tag h) with
      | "Assertion" -> (
        match Assertion.of_xml h with Ok a -> Some a | Error _ -> None)
      | name when name = Dacs_saml.Attribute_cert.element_name -> (
        match Dacs_saml.Attribute_cert.of_xml h with Ok a -> Some a | Error _ -> None)
      | _ -> None)
    headers

let push_decide t ~trusted_issuer ~check_revocation ~local_pdp ~headers ~action ctx k =
  let deny_with reason =
    Metrics.inc t.counters.c_assertion_rejections;
    Trace.record (tracer t) ("pep:assertion-rejected: " ^ reason);
    k { Decision.decision = Decision.Indeterminate reason; obligations = [] }
  in
  match find_assertion headers with
  | None -> deny_with "no capability assertion presented"
  | Some assertion -> (
    match Assertion.validate ~trusted_key:trusted_issuer ~now:(now t) assertion with
    | Error failure -> deny_with (Assertion.failure_to_string failure)
    | Ok () ->
      if not (Assertion.permits assertion ~resource:t.resource ~action) then
        deny_with "capability does not cover this access"
      else begin
        let continue_after_revocation () =
          (* The resource provider may still impose its own restrictions
             (the paper: the capability service only pre-screens). *)
          match local_pdp with
          | None -> k Decision.permit
          | Some pdp -> Pdp_service.evaluate_local pdp ctx k
        in
        match check_revocation with
        | None -> continue_after_revocation ()
        | Some authority ->
          Metrics.inc t.counters.c_revocation_checks;
          let assertion_id = assertion.Assertion.id in
          Service.call t.services ~src:t.node ~dst:authority Wire.Services.revocation_check ~breaker:true
            (fun buf -> Wire.write_revocation_check buf ~assertion_id)
            (function
              | Ok (Ok true) -> deny_with "capability has been revoked"
              | Ok (Ok false) -> continue_after_revocation ()
              | Ok (Error e) -> deny_with ("malformed revocation status: " ^ e)
              | Error _ ->
                (* Fail closed: cannot check revocation, do not honour. *)
                deny_with "revocation authority unreachable")
      end)

(* --- deciding without the wire ----------------------------------------------- *)

(* The full decision ladder for a context, minus the inbound access RPC
   and enforcement — what the differential oracle drives to prove that no
   cache level (L1, L2, attribute cache, coalescing) can change a
   decision.  Push mode decides from presented capabilities, which only
   exist on the wire, so it is out of scope here. *)
let decide_admitted t ctx ~admitted ~started ~tag k =
  match t.serving with
  | Tier { tier; cache } -> ladder t ~cache tier ctx ~admitted ~started ~tag k
  | Local pdp ->
    Pdp_service.evaluate_local pdp ctx (fun result ->
        answer t ~admitted ~started ~tag k result
          (Provenance.make ~epoch:(Pdp_service.compilation_epoch pdp) ~at:(now t) Provenance.Local))
  | Capability _ ->
    answer t ~admitted ~started ~tag k
      (Decision.indeterminate "push-mode PEP decides from presented capabilities")
      (Provenance.make ~at:(now t) Provenance.Capability)

(* Bounded admission (overload protection): at most [max_inflight]
   concurrent ladder descents, at most [max_queue] requests parked behind
   them.  Anything beyond that is shed immediately — it fails closed with
   an Indeterminate (the enforcement layer denies it) rather than growing
   an unbounded backlog, so the latency of *admitted* requests stays
   bounded by the queue it can actually wait in.  An admitted request
   frees its slot when it is answered. *)
let decide_explained t ctx k =
  let started = now t in
  let tag = Trace.exemplar_tag (tracer t) in
  match t.admission with
  | None -> decide_admitted t ctx ~admitted:false ~started ~tag k
  | Some a ->
    if t.inflight < a.max_inflight then begin
      t.inflight <- t.inflight + 1;
      decide_admitted t ctx ~admitted:true ~started ~tag k
    end
    else if Queue.length t.waiting < a.max_queue then begin
      let parked_at = now t in
      Queue.add
        (fun () ->
          Metrics.observe_exemplar t.counters.h_queue_wait (now t -. parked_at) ~trace:tag
            ~at:(now t);
          decide_admitted t ctx ~admitted:true ~started ~tag k)
        t.waiting
    end
    else begin
      Metrics.inc t.counters.c_shed;
      Metrics.inc t.counters.c_shed_admission;
      Trace.record (tracer t) "pep:shed";
      answer t ~admitted:false ~started ~tag k (Decision.indeterminate shed_reason)
        (Provenance.make ~at:(now t) Provenance.Shed)
    end

let decide t ctx k = decide_explained t ctx (fun result _prov -> k result)

(* --- service wiring --------------------------------------------------------------- *)

let create services ~node ~domain ~resource ?(content = "resource-content") ?audit
    ?encryption_key mode =
  let serving =
    match mode with
    | Pull { pdps; cache; call_timeout } ->
      Tier { tier = Pdp_tier.ordered services ~node ~pdps ~call_timeout; cache }
    | Sharded { tier; cache } -> Tier { tier; cache }
    | Push { trusted_issuer; check_revocation; local_pdp } ->
      Capability { trusted_issuer; check_revocation; local_pdp }
    | Agent pdp -> Local pdp
  in
  let t =
    {
      services;
      node;
      domain;
      resource;
      content;
      audit = (match audit with Some a -> a | None -> Audit.create ());
      encryption_key;
      (* One stream per PEP, seeded from its node id rather than drawn
         from the engine's RNG, so no other stream moves. *)
      nonces = Dacs_crypto.Rng.create (String.get_int64_be (Dacs_crypto.Sha256.digest node) 0);
      counters = make_counters (Service.metrics services) ~node;
      sf = Cache_hierarchy.Single_flight.create (Service.metrics services) ~node;
      serving;
      stale_window = 0.0;
      offline = None;
      l2 = None;
      admission = None;
      inflight = 0;
      waiting = Queue.create ();
    }
  in
  Service.serve services ~node Wire.Services.access
    (fun ~caller:_ ~headers (subject_attrs, action) reply ->
      Metrics.inc t.counters.c_requests;
      let subject =
        match List.assoc_opt "subject-id" subject_attrs with
        | Some v -> Value.to_string v
        | None -> "anonymous"
      in
      let ctx = build_context t ~subject_attrs ~action in
      (* One span per enforcement, a child of the RPC server span; the
         decision machinery below it (PDP calls, cache events) hangs off
         this span via the ambient context. *)
      let tr = tracer t in
      let span = Trace.start_span tr "pep:enforce" in
      Trace.annotate span "node" t.node;
      Trace.annotate span "subject" subject;
      Trace.annotate span "action" action;
      let finish result (p : Provenance.t) =
        Trace.annotate span "decision" (Decision.decision_to_string result.Decision.decision);
        Trace.annotate span "stage" (Provenance.stage_name p.Provenance.stage);
        enforce t ~subject ~action ~provenance:p result (fun response ->
            Trace.finish tr span;
            reply response)
      in
      let saved = Trace.current tr in
      if Trace.enabled tr then Trace.set_current tr (Some (Trace.context span));
      (match t.serving with
      | Capability { trusted_issuer; check_revocation; local_pdp } ->
        push_decide t ~trusted_issuer ~check_revocation ~local_pdp ~headers ~action ctx
          (fun result -> finish result (Provenance.make ~at:(now t) Provenance.Capability))
      | Tier _ | Local _ -> decide_explained t ctx finish);
      Trace.set_current tr saved);
  t
