module Decision = Dacs_policy.Decision
module Metrics = Dacs_telemetry.Metrics
module Loghist = Dacs_telemetry.Loghist
module Trace = Dacs_telemetry.Trace

let telemetry services =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let m = Dacs_ws.Service.metrics services in
  let tr = Dacs_ws.Service.tracer services in
  line "telemetry:";
  line "  registry: %d series" (Metrics.series_count m);
  line "  rpc: %d calls, %d errors, %d retries, %d breaker trips (%d rejections)"
    (Metrics.sum_counter m "rpc_calls_total")
    (Metrics.sum_counter m "rpc_errors_total")
    (Metrics.sum_counter m "rpc_retries_total")
    (Metrics.sum_counter m "rpc_breaker_trips_total")
    (Metrics.sum_counter m "rpc_breaker_rejections_total");
  (if Trace.enabled tr then
     line "  tracing: on, %d spans across %d traces" (Trace.span_count tr)
       (List.length (Trace.trace_ids tr))
   else line "  tracing: off");
  Buffer.contents buf

(* --- latency attribution ------------------------------------------------- *)

(* Per-stage breakdown of the serving path's latency histograms: one line
   per (metric, label set) with count, p50/p99 and the exemplars linking
   buckets back to trace ids. *)
let attribution_metrics =
  [
    ("pep_decide_seconds", "decision ladder");
    ("pep_queue_wait_seconds", "admission queue wait");
    ("pep_l2_lookup_seconds", "L2 round trip");
    ("pep_live_call_seconds", "live tier call");
    ("pdp_eval_seconds", "policy evaluation");
    ("pdp_pip_fetch_seconds", "PIP batch fetch");
  ]

let attribution services =
  let m = Dacs_ws.Service.metrics services in
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "latency attribution:";
  let any = ref false in
  List.iter
    (fun sample ->
      match List.assoc_opt sample.Metrics.name attribution_metrics with
      | None -> ()
      | Some what -> (
        match sample.Metrics.value with
        | Metrics.Histogram { count; _ } when count > 0 ->
          any := true;
          let h =
            Metrics.histogram m ~labels:sample.Metrics.labels sample.Metrics.name
          in
          let labels =
            String.concat ","
              (List.map (fun (k, v) -> k ^ "=" ^ v) sample.Metrics.labels)
          in
          let quantile q = Loghist.quantile (Metrics.loghist h) q *. 1000.0 in
          line "  %-24s {%s} %d obs, p50 %.1fms, p99 %.1fms  (%s)" sample.Metrics.name
            labels count (quantile 0.5) (quantile 0.99) what;
          List.iter
            (fun (le, e) ->
              line "    le=%s exemplar trace=%s value=%.1fms @%.3fs"
                (if le = infinity then "+Inf" else Printf.sprintf "%g" le)
                e.Metrics.e_trace (e.Metrics.e_value *. 1000.0) e.Metrics.e_at)
            (Metrics.histogram_exemplars h)
        | _ -> ()))
    (Metrics.snapshot m);
  if not !any then line "  (no serving-path observations)";
  Buffer.contents buf

let critical_path services =
  let tr = Dacs_ws.Service.tracer services in
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  match Trace.critical_path tr with
  | [] -> "critical path: (no spans recorded)\n"
  | path ->
    let root = List.hd path in
    let dur (s : Trace.span_view) =
      match s.Trace.v_end with Some e -> e -. s.Trace.v_start | None -> 0.0
    in
    line "critical path (trace %Lx, %.1fms end to end):" root.Trace.v_trace_id
      (dur root *. 1000.0);
    List.iter
      (fun (s : Trace.span_view) ->
        line "  %-28s +%.1fms %.1fms" s.Trace.v_name
          ((s.Trace.v_start -. root.Trace.v_start) *. 1000.0)
          (dur s *. 1000.0))
      path;
    Buffer.contents buf

let domain d =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "domain %s" (Domain.name d);
  line "  PAP %-24s version %d, %d queries served, %d/%d updates accepted/rejected"
    (Pap.node (Domain.pap d)) (Pap.version (Domain.pap d))
    (Pap.queries_served (Domain.pap d))
    (Pap.updates_accepted (Domain.pap d))
    (Pap.updates_rejected (Domain.pap d));
  let s = Pdp_service.stats (Domain.pdp d) in
  line "  PDP %-24s %d queries (%d permit / %d deny), %d PIP fetches, %d PAP fetches"
    (Pdp_service.node (Domain.pdp d)) s.Pdp_service.queries s.Pdp_service.permits s.Pdp_service.denies
    s.Pdp_service.pip_fetches s.Pdp_service.pap_fetches;
  line "  PIP %-24s %d lookups served" (Pip.node (Domain.pip d)) (Pip.lookups_served (Domain.pip d));
  line "  IdP %-24s %d assertions issued" (Idp.node (Domain.idp d)) (Idp.issued_count (Domain.idp d));
  List.iter
    (fun pep ->
      let ps = Pep.stats pep in
      line "  PEP %-24s %d requests: %d granted, %d denied (%d cache hits, %d failovers)"
        (Pep.node pep) ps.Pep.requests ps.Pep.granted ps.Pep.denied ps.Pep.cache_hits
        ps.Pep.failovers;
      if ps.Pep.retries + ps.Pep.breaker_trips + ps.Pep.stale_serves > 0 then
        line "  %-28s resilience: %d retries, %d breaker trips (%d rejections), %d stale serves"
          "" ps.Pep.retries ps.Pep.breaker_trips ps.Pep.breaker_rejections ps.Pep.stale_serves)
    (Domain.peps d);
  line "  audit: %d entries" (Audit.size (Domain.audit d));
  Buffer.contents buf

let vo v =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "virtual organisation %s: %d domains" (Vo.name v) (List.length (Vo.domains v));
  line "  VO PAP version %d (%d subscribers)"
    (Pap.version (Vo.vo_pap v))
    (List.length (Pap.subscribers (Vo.vo_pap v)));
  line "  capability service: %d issued" (Capability_service.issued_count (Vo.capability_service v));
  Buffer.add_char buf '\n';
  List.iter (fun d -> Buffer.add_string buf (domain d)) (Vo.domains v);
  (* Consolidated audit summary. *)
  let merged = Vo.merged_audit v in
  line "\nconsolidated audit (%d entries):" (Audit.size merged);
  List.iter
    (fun d ->
      let per_domain = List.filter (fun e -> e.Audit.domain = Domain.name d) (Audit.entries merged) in
      let permits = List.length (List.filter (fun e -> e.Audit.decision = Decision.Permit) per_domain) in
      line "  %-16s %4d decisions (%d permits, %d others)" (Domain.name d)
        (List.length per_domain) permits
        (List.length per_domain - permits))
    (Vo.domains v);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (telemetry (Vo.services v));
  Buffer.contents buf
