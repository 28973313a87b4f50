(* The per-layer half of the traced pass: replay each layer's public
   functions, in path order, on the inputs the traced repetition captured
   (every [Live.sample]-th request), and weigh each layer's measured cost
   by how often the live repetition's registry counters say it ran. *)

module Decision = Dacs_policy.Decision
module Policy = Dacs_policy.Policy
module Delta = Dacs_policy.Delta
module Metrics = Dacs_telemetry.Metrics
module Xml = Dacs_xml.Xml
module Soap = Dacs_ws.Soap
module Rpc = Dacs_net.Rpc
open Dacs_core

type row = {
  layer : string;
  ns_per_call : float;
  words_per_call : float;
  calls_per_decision : float;
  share : float;
}

type span = { name : string; start_ns : int64; end_ns : int64; calls : int }

(* Median over [passes] of (wall ns, minor words) for [calls] calls;
   [prepare] builds fresh state for a pass and is not measured. *)
let measure ?(passes = 3) ~calls ~prepare spans name run =
  let one () =
    let st = prepare () in
    let w0 = Gc.minor_words () in
    let t0 = Live.now_ns () in
    run st;
    let t1 = Live.now_ns () in
    let w1 = Gc.minor_words () in
    spans := { name = "replay:" ^ name; start_ns = t0; end_ns = t1; calls } :: !spans;
    (Int64.to_float (Int64.sub t1 t0), w1 -. w0)
  in
  let runs = List.init passes (fun _ -> one ()) in
  let per x = if calls = 0 then 0.0 else x /. float_of_int calls in
  (per (Stats.median (List.map fst runs)), per (Stats.median (List.map snd runs)))

let no_state () = ()

(* The publishes a workload made, each with the mean L1 size it purged;
   a workload that never publishes is priced on the same churn
   generations over its own policy and its final L1 size (1024 entries
   without an L1) — every layer is priced on every workload, and only
   its calls differ. *)
let publishes_of (w : Spec.workload) (r : Live.rep) (c : Live.capture) =
  match c.publishes with
  | [] ->
    let size = if w.l1 = None then 1024 else Live.mean_l1_size r.deployment in
    List.init 8 (fun g -> (Live.policy w g, Live.policy w (g + 1), size))
  | l -> List.rev l

let rows (w : Spec.workload) (r : Live.rep) (c : Live.capture) ~e2e_ns spans =
  let dep = r.deployment in
  let ctxs = Array.of_seq (Seq.map snd (Queue.to_seq c.sampled)) in
  let n = Array.length ctxs in
  let root = Live.policy w 0 in
  let keys = Array.map Decision_cache.request_key ctxs in
  let results = Array.map (fun ctx -> Policy.evaluate_child ctx root) ctxs in
  let queries = Array.map Wire.authz_query ctxs in
  let responses = Array.map Wire.authz_response results in
  let envelopes = Array.map (fun q -> Soap.envelope q) queries in
  let soaps = Array.map (fun q -> Soap.to_string { Soap.headers = []; body = q }) queries in
  let publishes = publishes_of w r c in
  let pairs = List.map (fun (a, b, _) -> (a, b)) publishes in
  let cnt = Live.counter r in
  let offered = float_of_int (max 1 r.offered) in
  let batch =
    max 1 (int_of_float (Float.round (Stats.ratio (cnt "pdp_tier_dispatch_total") (cnt "pdp_tier_batches_total"))))
  in
  let frames =
    List.init ((n + batch - 1) / batch) (fun k ->
        Array.to_list (Array.sub soaps (k * batch) (min batch (n - (k * batch)))))
  in
  let compiled_on = match dep.shards with s :: _ -> Pdp_service.compiled_enabled s | [] -> false in
  let l1_peps = if w.l1 = None then 0 else w.peps in
  let fresh_replica () =
    let o = Offline.create ~key:Live.mesh_key ~author:"replay" () in
    Offline.publish o root;
    Offline.set_offline o true;
    o
  in
  let layer name ~calls ~ns_words:(ns, words) =
    let cpd = float_of_int calls /. offered in
    { layer = name; ns_per_call = ns; words_per_call = words; calls_per_decision = cpd;
      share = cpd *. ns /. e2e_ns }
  in
  let served_all = cnt "rpc_requests_served_total" and calls_all = cnt "rpc_calls_total" in
  let client_parts = calls_all - cnt "rpc_batches_total" + cnt "rpc_batch_parts_total" in
  let soap_calls = client_parts + (3 * served_all) in
  let measure_plain name calls run = measure ~calls ~prepare:no_state spans name run in
  let intern =
    measure_plain "intern" n (fun () -> Array.iter (fun ctx -> ignore (Sys.opaque_identity (Decision_cache.request_key ctx))) ctxs)
  in
  let cache =
    measure ~calls:n spans "decision_cache"
      ~prepare:(fun () ->
        let dc = Decision_cache.create ~metrics:(Metrics.create ()) ~max_entries:4096 ~ttl:Spec.l1_ttl () in
        Array.iteri (fun i key -> Decision_cache.put dc ~now:0.0 ~key results.(i)) keys;
        dc)
      (fun dc ->
        Array.iter (fun key -> ignore (Sys.opaque_identity (Decision_cache.lookup dc ~now:1.0 ~max_stale:0.0 ~key))) keys)
  in
  let wire =
    measure_plain "wire" (4 * n) (fun () ->
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (Wire.authz_query ctxs.(i)));
          ignore (Sys.opaque_identity (Wire.parse_authz_query queries.(i)));
          ignore (Sys.opaque_identity (Wire.authz_response results.(i)));
          ignore (Sys.opaque_identity (Wire.parse_authz_response responses.(i)))
        done)
  in
  let soap =
    measure_plain "soap" (2 * n) (fun () ->
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (Soap.to_string { Soap.headers = []; body = queries.(i) }));
          ignore (Sys.opaque_identity (Soap.parse soaps.(i)))
        done)
  in
  let xml =
    measure_plain "xml" (2 * n) (fun () ->
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (Xml.to_string envelopes.(i)));
          ignore (Sys.opaque_identity (Xml.of_string soaps.(i)))
        done)
  in
  let rpc =
    measure_plain "rpc" (2 * List.length frames) (fun () ->
        List.iteri
          (fun id parts ->
            ignore (Sys.opaque_identity (Rpc.decode (Rpc.encode_batch_request id "authz-query" parts))))
          frames)
  in
  let evaluate = measure_plain "policy" n (fun () -> Array.iter (fun ctx -> ignore (Sys.opaque_identity (Policy.evaluate_child ctx root))) ctxs) in
  let compiled =
    let comp = Dacs_policy.Compiled.compile root in
    measure_plain "compiled" n (fun () ->
        Array.iter (fun ctx -> ignore (Sys.opaque_identity (Dacs_policy.Compiled.evaluate ctx comp))) ctxs)
  in
  let delta =
    measure_plain "delta" (List.length pairs) (fun () ->
        List.iter (fun (a, b) -> ignore (Sys.opaque_identity (Delta.between (Some a) (Some b)))) pairs)
  in
  (* Each publish's purge, on an L1 holding as many entries of the
     captured key stream as the live L1s held then (filled, not measured,
     before each purge). *)
  let invalidate =
    let distinct = Array.of_list (List.sort_uniq compare (Array.to_list keys)) in
    let runs =
      List.map
        (fun (a, b, size) ->
          let region = Delta.between (Some a) (Some b) in
          let dc = Decision_cache.create ~max_entries:(max 1 size) ~ttl:Spec.l1_ttl () in
          Array.iteri
            (fun i key -> if i < size then Decision_cache.put dc ~now:0.0 ~key Decision.permit)
            distinct;
          measure ~passes:1 ~calls:1 ~prepare:(fun () -> dc) spans "invalidate_region" (fun dc ->
              ignore (Decision_cache.invalidate_region dc region)))
        publishes
    in
    (Stats.median (List.map fst runs), Stats.median (List.map snd runs))
  in
  let offline =
    measure ~calls:n spans "offline" ~prepare:fresh_replica (fun o ->
        Array.iter (fun ctx -> ignore (Sys.opaque_identity (Offline.decide o ctx))) ctxs)
  in
  (* A heal syncs two logs as large as the live ones were (each half of
     the captured requests when the workload never went offline). *)
  let offline_sync =
    let per_domain = Metrics.sum_counter_by dep.metrics "offline_decides_total" ~label:"domain" in
    let sizes =
      match List.map snd per_domain with
      | a :: b :: _ when a + b > 0 -> (a, b)
      | _ -> (n / 2, n - (n / 2))
    in
    measure ~passes:1 ~calls:1 spans "offline_sync"
      ~prepare:(fun () ->
        let side k =
          let o = fresh_replica () in
          for i = 0 to k - 1 do ignore (Offline.decide o ctxs.(i mod max 1 n)) done;
          o
        in
        (side (fst sizes), side (snd sizes)))
      (fun (a, b) -> ignore (Offline.sync_pair a b))
  in
  let hmac =
    let digests = Array.map Dacs_crypto.Sha256.digest keys in
    measure_plain "hmac" n (fun () ->
        Array.iter (fun d -> ignore (Sys.opaque_identity (Dacs_crypto.Hmac.sha256 ~key:Live.mesh_key d))) digests)
  in
  let queries_served = cnt "pdp_queries_total" in
  [
    layer "intern" ~calls:(r.offered - cnt "pep_shed_total") ~ns_words:intern;
    layer "decision_cache" ~calls:(cnt "decision_cache_hits_total" + cnt "decision_cache_misses_total") ~ns_words:cache;
    layer "wire" ~calls:(cnt "pep_pdp_calls_total" + (3 * cnt "served_authz")) ~ns_words:wire;
    layer "soap" ~calls:soap_calls ~ns_words:soap;
    layer "xml" ~calls:soap_calls ~ns_words:xml;
    layer "rpc" ~calls:(2 * ((2 * calls_all) - cnt "rpc_errors_total")) ~ns_words:rpc;
    layer "policy" ~calls:(if compiled_on then 0 else queries_served) ~ns_words:evaluate;
    layer "compiled" ~calls:(if compiled_on then queries_served else 0) ~ns_words:compiled;
    layer "delta" ~calls:r.publishes ~ns_words:delta;
    layer "invalidate_region" ~calls:(r.publishes * l1_peps) ~ns_words:invalidate;
    layer "offline" ~calls:(cnt "offline_decides_total") ~ns_words:offline;
    layer "offline_sync" ~calls:r.heals ~ns_words:offline_sync;
    layer "hmac" ~calls:(cnt "offline_events_total" + r.moved) ~ns_words:hmac;
  ]

let residual rows =
  1.0
  -. List.fold_left
       (fun acc row -> if List.mem row.layer Spec.sub_layers then acc else acc +. row.share)
       0.0 rows
