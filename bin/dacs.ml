(* dacs: command-line front end for the DACS policy engine.

     dacs validate  POLICY.xml              check a policy document
     dacs evaluate  POLICY.xml REQUEST.xml  decide one request
     dacs conflicts POLICY.xml...           static conflict analysis
     dacs demo                              run a built-in end-to-end scenario
     dacs chaos                             replay the demo under a fault schedule
     dacs trace                             render the span tree of one pull-flow request
     dacs metrics                           dump the metrics registry after one request *)

module Policy = Dacs_policy.Policy
module Decision = Dacs_policy.Decision
module Combine = Dacs_policy.Combine
module Xacml = Dacs_policy.Xacml_xml
module Validate = Dacs_policy.Validate
module Experiment = Dacs_experiment.Experiment
open Dacs_core

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s
  with Sys_error e -> Error e

let load_policy path =
  match read_file path with
  | Error e -> Error e
  | Ok content -> Xacml.child_of_string content

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* --- validate ---------------------------------------------------------- *)

let validate_cmd path =
  match load_policy path with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok child -> (
    (* Non-blocking lint: unreachable rules under first-applicable. *)
    (match child with
    | Policy.Inline_policy p ->
      List.iter
        (fun (by, dead) ->
          Printf.printf "%s: warning: rule %s is unreachable (shadowed by %s)\n" path dead by)
        (Validate.shadowed_rules p)
    | Policy.Inline_set _ | Policy.Policy_ref _ -> ());
    match Validate.check_child child with
    | [] ->
      Printf.printf "%s: OK (%s)\n" path (Policy.child_id child);
      0
    | problems ->
      List.iter (fun p -> Printf.printf "%s: %s\n" path (Validate.problem_to_string p)) problems;
      1)

(* --- evaluate ------------------------------------------------------------ *)

let evaluate_cmd policy_path request_path explain =
  match (load_policy policy_path, Result.bind (read_file request_path) Xacml.request_of_string) with
  | Error e, _ | _, Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok child, Ok ctx ->
    let result =
      if explain then begin
        let tree, result = Dacs_policy.Explain.explain ctx child in
        print_string (Dacs_policy.Explain.to_string tree);
        print_newline ();
        result
      end
      else Policy.evaluate_child ctx child
    in
    Printf.printf "decision: %s\n" (Decision.decision_to_string result.Decision.decision);
    (match result.Decision.decision with
    | Decision.Indeterminate m -> Printf.printf "status:   %s\n" m
    | _ -> ());
    List.iter
      (fun o -> Printf.printf "obligation: %s\n" (Format.asprintf "%a" Dacs_policy.Obligation.pp o))
      result.Decision.obligations;
    (match result.Decision.decision with Decision.Permit -> 0 | _ -> 1)

(* --- conflicts ------------------------------------------------------------- *)

let conflicts_cmd paths =
  let children =
    List.filter_map
      (fun path ->
        match load_policy path with
        | Ok c -> Some c
        | Error e ->
          Printf.eprintf "warning: skipping %s: %s\n" path e;
          None)
      paths
  in
  if children = [] then begin
    Printf.eprintf "error: no loadable policies\n";
    2
  end
  else begin
    let set = Policy.make_set ~id:"cli" children in
    match Conflict.find_in_set set with
    | [] ->
      print_endline "no modality conflicts found";
      0
    | conflicts ->
      List.iter
        (fun c ->
          Printf.printf "conflict%s: %s/%s (Permit) vs %s/%s (Deny) on %s\n"
            (if c.Conflict.cross_authority then " [cross-authority]" else "")
            c.Conflict.permit.Conflict.policy_id c.Conflict.permit.Conflict.rule_id
            c.Conflict.deny.Conflict.policy_id c.Conflict.deny.Conflict.rule_id c.Conflict.witness;
          List.iter
            (fun a ->
              Printf.printf "    %-26s -> %s\n" (Combine.name a)
                (Decision.decision_to_string (Conflict.resolution a c)))
            Combine.[ Deny_overrides; Permit_overrides; First_applicable ])
        conflicts;
      Printf.printf "%d conflict(s)\n" (List.length conflicts);
      1
  end

(* --- rbac-compile ------------------------------------------------------------ *)

let rbac_compile_cmd path identity =
  match read_file path with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok text -> (
    match Dacs_rbac.Textual.parse text with
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      1
    | Ok model ->
      let policy =
        if identity then Dacs_rbac.Compile.to_identity_policy model
        else Dacs_rbac.Compile.to_policy model
      in
      print_string
        (Dacs_xml.Xml.to_pretty_string (Xacml.policy_to_xml policy));
      0)

(* --- demo ------------------------------------------------------------------- *)

let demo_cmd () =
  let module Net = Dacs_net.Net in
  let module Value = Dacs_policy.Value in
  let net = Net.create () in
  let services = Dacs_ws.Service.create (Dacs_net.Rpc.create net) in
  let domain = Domain.create services ~name:"demo" () in
  Domain.set_local_policy domain
    (Policy.Inline_policy
       (Policy.make ~id:"demo-policy" ~rule_combining:Combine.First_applicable
          [
            Dacs_policy.Rule.permit
              ~target:
                Dacs_policy.Target.(
                  any |> subject_is "role" "admin" |> action_is "action-id" "read")
              "admins-read";
            Dacs_policy.Rule.deny "default-deny";
          ]));
  let pep = Domain.expose_resource domain ~resource:"demo-resource" ~content:"42" () in
  Net.add_node net "cli";
  let admin =
    Client.create services ~node:"cli"
      ~subject:[ ("subject-id", Value.String "admin1"); ("role", Value.String "admin") ]
  in
  let outcome = ref "" in
  Client.request admin ~pep:(Pep.node pep) ~action:"read" (fun r ->
      outcome :=
        (match r with
        | Ok (Wire.Granted { content; _ }) -> "GRANTED: " ^ content
        | Ok (Wire.Denied reason) -> "DENIED: " ^ reason
        | Error e -> "ERROR: " ^ Dacs_ws.Service.error_to_string e));
  Net.run net;
  Printf.printf "demo request as role=admin -> %s\n" !outcome;
  let sent = Net.total_sent net in
  Printf.printf "(%d messages, %d bytes over the simulated network)\n" sent.Net.count sent.Net.bytes;
  0

(* --- trace / metrics ------------------------------------------------------------ *)

(* One pull-flow request (Fig. 3) through a full domain: the client sends
   only its subject-id, so the PDP must fetch the role attribute from the
   PIP, and (refreshing on every query) the policy from the PAP — giving
   the trace its PEP -> PDP -> PIP/PAP shape. *)
let observability_scenario ~seed ~tracing =
  let module Net = Dacs_net.Net in
  let module Rpc = Dacs_net.Rpc in
  let module Value = Dacs_policy.Value in
  let net = Net.create ~seed:(Int64.of_int seed) () in
  let rpc = Rpc.create net in
  let services = Dacs_ws.Service.create rpc in
  if tracing then Rpc.set_tracing rpc true;
  let domain = Domain.create services ~name:"demo" () in
  Domain.set_local_policy domain
    (Policy.Inline_policy
       (Policy.make ~id:"demo-policy" ~rule_combining:Combine.First_applicable
          [
            Dacs_policy.Rule.permit
              ~target:
                Dacs_policy.Target.(
                  any |> subject_is "role" "admin" |> action_is "action-id" "read")
              "admins-read";
            Dacs_policy.Rule.deny "default-deny";
          ]));
  let cache =
    Decision_cache.create ~metrics:(Rpc.metrics rpc) ~owner:"demo-resource" ~ttl:2.0 ()
  in
  let pep = Domain.expose_resource domain ~resource:"demo-resource" ~content:"42" ~cache () in
  Domain.register_user domain ~user:"admin1" [ ("role", Value.String "admin") ];
  Net.add_node net "cli";
  let client =
    Client.create services ~node:"cli" ~subject:[ ("subject-id", Value.String "admin1") ]
  in
  let outcome = ref None in
  Client.request client ~pep:(Pep.node pep) ~action:"read" (fun r -> outcome := Some r);
  Net.run net;
  (rpc, !outcome)

let outcome_to_string = function
  | None -> "NO ANSWER"
  | Some (Ok (Wire.Granted { content; _ })) -> "GRANTED: " ^ content
  | Some (Ok (Wire.Denied reason)) -> "DENIED: " ^ reason
  | Some (Error e) -> "ERROR: " ^ Dacs_ws.Service.error_to_string e

let trace_cmd seed =
  let module Rpc = Dacs_net.Rpc in
  let module Trace = Dacs_telemetry.Trace in
  let rpc, outcome = observability_scenario ~seed ~tracing:true in
  Printf.printf "one pull-flow request (seed %d) -> %s\n\n" seed (outcome_to_string outcome);
  print_string (Trace.render_tree (Rpc.tracer rpc));
  match outcome with Some (Ok (Wire.Granted _)) -> 0 | _ -> 1

let metrics_cmd seed json =
  let module Rpc = Dacs_net.Rpc in
  let module Metrics = Dacs_telemetry.Metrics in
  let rpc, outcome = observability_scenario ~seed ~tracing:false in
  let m = Rpc.metrics rpc in
  if json then print_endline (Metrics.render_json m) else print_string (Metrics.render m);
  match outcome with Some (Ok (Wire.Granted _)) -> 0 | _ -> 1

(* --- chaos ------------------------------------------------------------------- *)

let chaos_cmd seed json =
  let module Net = Dacs_net.Net in
  let module Engine = Dacs_net.Engine in
  let module Rpc = Dacs_net.Rpc in
  let module Faults = Dacs_net.Faults in
  let module Value = Dacs_policy.Value in
  let net = Net.create ~seed:(Int64.of_int seed) () in
  let rpc = Rpc.create net in
  let services = Dacs_ws.Service.create rpc in
  List.iter (Net.add_node net) [ "pep"; "pdp0"; "pdp1"; "cli" ];
  let policy =
    Policy.Inline_policy
      (Policy.make ~id:"chaos-policy" ~rule_combining:Combine.First_applicable
         [
           Dacs_policy.Rule.permit
             ~target:
               Dacs_policy.Target.(any |> subject_is "role" "admin" |> action_is "action-id" "read")
             "admins-read";
           Dacs_policy.Rule.deny "default-deny";
         ])
  in
  List.iter
    (fun node -> ignore (Pdp_service.create services ~node ~name:node ~root:policy ()))
    [ "pdp0"; "pdp1" ];
  let cache = Decision_cache.create ~ttl:2.0 () in
  let pep =
    Pep.create services ~node:"pep" ~domain:"demo" ~resource:"demo-resource" ~content:"42"
      (Pep.Pull { pdps = [ "pdp0"; "pdp1" ]; cache = Some cache; call_timeout = 0.4 })
  in
  Pep.set_retry_policy pep (Some Rpc.default_retry);
  Pep.set_stale_window pep 10.0;
  let rng = Dacs_crypto.Rng.create (Int64.of_int (seed + 1)) in
  let horizon = 8.0 in
  let schedule = Faults.random_schedule ~rng ~nodes:[ "pep"; "pdp0"; "pdp1" ] ~horizon in
  if not json then begin
    Printf.printf "fault schedule (seed %d):\n" seed;
    List.iter (fun s -> Printf.printf "  %s\n" (Faults.describe s)) schedule
  end;
  Faults.apply net schedule;
  let admin =
    Client.create services ~node:"cli"
      ~subject:[ ("subject-id", Value.String "admin1"); ("role", Value.String "admin") ]
  in
  let outcomes = ref [] in
  List.iter
    (fun at ->
      Engine.schedule_at (Net.engine net) ~at (fun () ->
          Client.request admin ~pep:"pep" ~action:"read" ~timeout:20.0 ~retry:Rpc.default_retry
            (fun r -> outcomes := (at, Net.now net, r) :: !outcomes)))
    [ 1.0; 3.0; 5.0; 7.0; horizon +. 2.0 ];
  Net.run net;
  let sorted = List.sort compare !outcomes in
  let describe_outcome r =
    match r with
    | Ok (Wire.Granted { content; _ }) -> "GRANTED: " ^ content
    | Ok (Wire.Denied reason) -> "DENIED: " ^ reason
    | Error e -> "ERROR: " ^ Dacs_ws.Service.error_to_string e
  in
  let s = Pep.stats pep in
  let last_granted =
    match sorted with
    | [] -> false
    | l -> ( match List.nth l (List.length l - 1) with _, _, Ok (Wire.Granted _) -> true | _ -> false)
  in
  if json then begin
    let schedule_json =
      String.concat ","
        (List.map (fun sp -> Printf.sprintf "%S" (json_escape (Faults.describe sp))) schedule)
    in
    let requests_json =
      String.concat ","
        (List.map
           (fun (at, finished, r) ->
             Printf.sprintf "{\"at\":%g,\"answered_at\":%g,\"outcome\":%S}" at finished
               (json_escape (describe_outcome r)))
           sorted)
    in
    Printf.printf
      "{\"seed\":%d,\"schedule\":[%s],\"requests\":[%s],\"pep\":{\"requests\":%d,\"granted\":%d,\"denied\":%d,\"retries\":%d,\"breaker_trips\":%d,\"breaker_rejections\":%d,\"stale_serves\":%d,\"failovers\":%d},\"liveness\":%b}\n"
      seed schedule_json requests_json s.Pep.requests s.Pep.granted s.Pep.denied s.Pep.retries
      s.Pep.breaker_trips s.Pep.breaker_rejections s.Pep.stale_serves s.Pep.failovers last_granted
  end
  else begin
    Printf.printf "\nrequests (role=admin, read):\n";
    List.iter
      (fun (at, finished, r) ->
        Printf.printf "  t=%5.1f  ->  %-30s (answered at %.2fs)\n" at (describe_outcome r) finished)
      sorted;
    Printf.printf
      "\nPEP stats: %d requests, %d granted, %d denied; %d retries, %d breaker trips, %d shed, %d stale serves, %d failovers\n"
      s.Pep.requests s.Pep.granted s.Pep.denied s.Pep.retries s.Pep.breaker_trips
      s.Pep.breaker_rejections s.Pep.stale_serves s.Pep.failovers;
    if last_granted then Printf.printf "liveness: request after the schedule cleared was granted\n"
    else Printf.printf "liveness: FAILED - post-schedule request was not granted\n"
  end;
  if last_granted then 0 else 1

(* --- tier -------------------------------------------------------------------- *)

(* Stand up a sharded, batched PDP tier behind one enforcement point,
   push a burst of distinct-user requests through it (so the requests
   hash across the ring and coalesce into batches), then crash a shard
   and push the same burst again to show failure remapping. *)
let tier_cmd shards batch seed requests json =
  let module Net = Dacs_net.Net in
  let module Engine = Dacs_net.Engine in
  let module Rpc = Dacs_net.Rpc in
  let module Metrics = Dacs_telemetry.Metrics in
  let module Value = Dacs_policy.Value in
  if shards < 1 then begin
    prerr_endline "tier: --shards must be >= 1";
    exit 2
  end;
  if batch < 1 then begin
    prerr_endline "tier: --batch must be >= 1";
    exit 2
  end;
  let net = Net.create ~seed:(Int64.of_int seed) () in
  let rpc = Rpc.create net in
  let services = Dacs_ws.Service.create rpc in
  let metrics = Rpc.metrics rpc in
  let policy =
    Policy.Inline_policy
      (Policy.make ~id:"tier-policy" ~rule_combining:Combine.First_applicable
         [
           Dacs_policy.Rule.permit
             ~target:
               Dacs_policy.Target.(any |> subject_is "role" "admin" |> action_is "action-id" "read")
             "admins-read";
           Dacs_policy.Rule.deny "default-deny";
         ])
  in
  let shard_nodes =
    List.init shards (fun i ->
        let node = Printf.sprintf "pdp.%d" i in
        Net.add_node net node;
        ignore (Pdp_service.create services ~node ~name:node ~root:policy ());
        node)
  in
  Net.add_node net "pep";
  let tier = Pdp_tier.create services ~node:"pep" ~shards:shard_nodes ~batch () in
  let pep =
    Pep.create services ~node:"pep" ~domain:"demo" ~resource:"demo-resource" ~content:"42"
      (Pep.Sharded { tier; cache = None })
  in
  let granted = ref 0 and answered = ref 0 in
  let burst at =
    List.iter
      (fun i ->
        Engine.schedule_at (Net.engine net) ~at (fun () ->
            let node = Printf.sprintf "cli.%d.%g" i at in
            Net.add_node net node;
            let user = Printf.sprintf "user%d" i in
            let client =
              Client.create services ~node
                ~subject:[ ("subject-id", Value.String user); ("role", Value.String "admin") ]
            in
            Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:10.0 (fun r ->
                incr answered;
                match r with Ok (Wire.Granted _) -> incr granted | _ -> ())))
      (List.init requests (fun i -> i))
  in
  burst 0.5;
  Engine.schedule_at (Net.engine net) ~at:2.0 (fun () -> Net.crash net (List.hd shard_nodes));
  burst 3.0;
  Net.run net;
  let per_shard name shard =
    Metrics.counter_value (Metrics.counter metrics ~labels:[ ("node", shard) ] name)
  in
  let dispatched shard =
    Metrics.counter_value
      (Metrics.counter metrics ~labels:[ ("node", "pep"); ("shard", shard) ]
         "pdp_tier_dispatch_total")
  in
  let s = Pdp_tier.stats tier in
  let total = 2 * requests in
  if json then begin
    let shard_json =
      String.concat ","
        (List.map
           (fun shard ->
             Printf.sprintf "{\"shard\":%S,\"dispatched\":%d,\"evaluated\":%d}" shard
               (dispatched shard) (per_shard "pdp_queries_total" shard))
           shard_nodes)
    in
    Printf.printf
      "{\"seed\":%d,\"shards\":%d,\"batch\":%d,\"requests\":%d,\"answered\":%d,\"granted\":%d,\"shard_load\":[%s],\"tier\":{\"dispatched\":%d,\"batches\":%d,\"failovers\":%d,\"exhausted\":%d}}\n"
      seed shards batch total !answered !granted shard_json s.Pdp_tier.dispatched
      s.Pdp_tier.batches s.Pdp_tier.failovers s.Pdp_tier.exhausted
  end
  else begin
    Printf.printf
      "sharded PDP tier: %d shards, batch limit %d, %d requests (burst of %d before and after \
       crashing %s)\n\n"
      shards batch total requests (List.hd shard_nodes);
    Printf.printf "%-10s %12s %12s\n" "shard" "dispatched" "evaluated";
    List.iter
      (fun shard ->
        Printf.printf "%-10s %12d %12d%s\n" shard (dispatched shard)
          (per_shard "pdp_queries_total" shard)
          (if shard = List.hd shard_nodes then "   (crashed at t=2)" else ""))
      shard_nodes;
    Printf.printf
      "\ntier: %d dispatched, %d batches, %d failovers after the crash, %d failed closed\n"
      s.Pdp_tier.dispatched s.Pdp_tier.batches s.Pdp_tier.failovers s.Pdp_tier.exhausted;
    Printf.printf "outcome: %d/%d answered, %d granted\n\n" !answered total !granted
  end;
  Experiment.checks ~quiet:json "tier"
    [ ("all-requests-granted", !granted = total, Printf.sprintf "%d/%d" !granted total) ]

(* --- cache ------------------------------------------------------------------- *)

(* Walk one workload down the full decision-cache ladder: cold requests
   that fill the caches (with the PDP batching its PIP fetches), a
   replica pass answered by the shared L2, a warm pass answered by L1,
   a concurrent duplicate pass absorbed by single-flight coalescing —
   then an invalidation round that empties every level. *)
let cache_cmd seed json =
  let module Net = Dacs_net.Net in
  let module Engine = Dacs_net.Engine in
  let module Rpc = Dacs_net.Rpc in
  let module Value = Dacs_policy.Value in
  let module Expr = Dacs_policy.Expr in
  let module Rule = Dacs_policy.Rule in
  let net = Net.create ~seed:(Int64.of_int seed) () in
  let services = Dacs_ws.Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let policy =
    Policy.Inline_policy
      (Policy.make ~id:"attr-heavy" ~rule_combining:Combine.Deny_overrides
         [
           Rule.permit ~condition:(Expr.one_of (Expr.subject_attr "role") [ "doctor" ]) "by-role";
           Rule.permit
             ~condition:(Expr.one_of (Expr.subject_attr "clearance") [ "secret" ])
             "by-clearance";
         ])
  in
  let pip = Pip.create services ~node:(add "pip") ~name:"pip" in
  let pdp =
    Pdp_service.create services ~node:(add "pdp") ~name:"pdp" ~root:policy ~pips:[ "pip" ]
      ~attr_cache_ttl:3600.0 ()
  in
  let l2 = Cache_hierarchy.L2.create services ~node:(add "l2") ~ttl:3600.0 () in
  let peps =
    List.init 2 (fun i ->
        let pep =
          Pep.create services
            ~node:(add (Printf.sprintf "pep%d" i))
            ~domain:"demo" ~resource:"demo-resource" ~content:"42"
            (Pep.Pull
               {
                 pdps = [ "pdp" ];
                 cache = Some (Decision_cache.create ~ttl:3600.0 ());
                 call_timeout = 5.0;
               })
        in
        Pep.set_l2 pep (Some (Cache_hierarchy.L2.node l2));
        pep)
  in
  Cache_hierarchy.L2.set_on_invalidate l2 (fun key ->
      List.iter
        (fun pep ->
          match key with
          | None -> Pep.invalidate_cache pep
          | Some key -> Pep.invalidate_key pep ~key)
        peps);
  let pep0 = List.nth peps 0 and pep1 = List.nth peps 1 in
  let users = 4 in
  let clients =
    List.init users (fun i ->
        let user = Printf.sprintf "user%d" i in
        List.iter
          (fun (id, v) -> Pip.add_subject_attribute pip ~subject:user ~id (Value.String v))
          [ ("role", "doctor"); ("clearance", "secret") ];
        Client.create services
          ~node:(add ("cli." ^ user))
          ~subject:[ ("subject-id", Value.String user) ])
  in
  let granted = ref 0 and total = ref 0 in
  let issue client pep ~at =
    incr total;
    Engine.schedule_at (Net.engine net) ~at (fun () ->
        Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:5.0 (fun r ->
            match r with Ok (Wire.Granted _) -> incr granted | _ -> ()))
  in
  let phase f =
    let t0 = Net.now net +. 1.0 in
    List.iteri (fun i client -> f client (t0 +. float_of_int i)) clients;
    Net.run net
  in
  (* cold at replica 0, with a same-instant duplicate for the coalescer *)
  phase (fun c at ->
      issue c pep0 ~at;
      issue c pep0 ~at);
  (* replica pass: pep1 answers from the shared L2 *)
  phase (fun c at -> issue c pep1 ~at);
  (* warm pass: both replicas answer from L1 *)
  Net.reset_stats net;
  let warm_start = !total in
  phase (fun c at ->
      issue c pep0 ~at;
      issue c pep1 ~at);
  let warm_requests = !total - warm_start in
  let warm_mpr = float_of_int (Net.total_sent net).Net.count /. float_of_int warm_requests in
  (* revocation-style invalidation round empties every level *)
  Cache_hierarchy.L2.invalidate_all l2;
  Net.run net;
  let l2_size = Cache_hierarchy.L2.size l2 in
  let stat f = List.fold_left (fun acc pep -> acc + f (Pep.stats pep)) 0 peps in
  let l1_hits = stat (fun s -> s.Pep.cache_hits) in
  let l2_hits = stat (fun s -> s.Pep.l2_hits) in
  let coalesced = stat (fun s -> s.Pep.coalesced) in
  let attr_frames = (Pdp_service.stats pdp).Pdp_service.pip_fetches in
  let attr_served = Pip.lookups_served pip in
  if json then
    Printf.printf
      "{\"seed\":%d,\"requests\":%d,\"granted\":%d,\"warm_msgs_per_req\":%.2f,\"attr_frames\":%d,\"attrs_served\":%d,\"l1_hits\":%d,\"l2_hits\":%d,\"coalesced\":%d,\"l2_size_after_invalidation\":%d}\n"
      seed !total !granted warm_mpr attr_frames attr_served l1_hits l2_hits coalesced l2_size
  else begin
    Printf.printf
      "cache hierarchy: %d users, 2 PEP replicas over one shared L2, attribute-caching PDP\n\n"
      users;
    Printf.printf "%-44s %8d\n" "requests granted" !granted;
    Printf.printf "%-44s %8d\n" "requests issued" !total;
    Printf.printf "%-44s %8.2f\n" "warm-path messages per request" warm_mpr;
    Printf.printf "%-44s %8d\n" "attribute fetch frames (batched)" attr_frames;
    Printf.printf "%-44s %8d\n" "attributes served by the PIP" attr_served;
    Printf.printf "%-44s %8d\n" "L1 hits" l1_hits;
    Printf.printf "%-44s %8d\n" "shared L2 hits" l2_hits;
    Printf.printf "%-44s %8d\n" "coalesced (single-flight)" coalesced;
    Printf.printf "%-44s %8d\n" "L2 entries after invalidation round" l2_size
  end;
  let checks =
    [
      ("all-requests-granted", !granted = !total, Printf.sprintf "%d/%d" !granted !total);
      ("warm-path-msgs-per-req", warm_mpr < 2.2, Printf.sprintf "%.2f < 2.2" warm_mpr);
      ("invalidation-empties-l2", l2_size = 0, Printf.sprintf "size %d" l2_size);
    ]
  in
  if not json then print_newline ();
  Experiment.checks ~quiet:json "cache" checks

(* --- explain ------------------------------------------------------------------ *)

(* Walk one request population down every rung of the decision ladder —
   cold (live), a same-instant duplicate (coalesced), a replica pass
   (shared L2), a warm pass (L1), then crash the decision tier for a
   bounded-stale serve and a fail-closed miss — and answer "who decided
   this and how" from the audit log: one provenance record per decision,
   plus the latency attribution and critical path of the run. *)
let explain_cmd seed json =
  let module Net = Dacs_net.Net in
  let module Engine = Dacs_net.Engine in
  let module Rpc = Dacs_net.Rpc in
  let module Value = Dacs_policy.Value in
  let net = Net.create ~seed:(Int64.of_int seed) () in
  let rpc = Rpc.create net in
  let services = Dacs_ws.Service.create rpc in
  Rpc.set_tracing rpc true;
  let add id =
    Net.add_node net id;
    id
  in
  let policy =
    Policy.Inline_policy
      (Policy.make ~id:"explain-policy" ~rule_combining:Combine.First_applicable
         [
           Dacs_policy.Rule.permit
             ~target:
               Dacs_policy.Target.(any |> subject_is "role" "admin" |> action_is "action-id" "read")
             "admins-read";
           Dacs_policy.Rule.deny "default-deny";
         ])
  in
  ignore (Pdp_service.create services ~node:(add "pdp") ~name:"pdp" ~root:policy ());
  let l2 = Cache_hierarchy.L2.create services ~node:(add "l2") ~ttl:3600.0 () in
  let audit = Audit.create () in
  let peps =
    List.init 2 (fun i ->
        let pep =
          Pep.create services
            ~node:(add (Printf.sprintf "pep%d" i))
            ~domain:"demo" ~resource:"demo-resource" ~content:"42" ~audit
            (Pep.Pull
               {
                 pdps = [ "pdp" ];
                 cache = Some (Decision_cache.create ~ttl:3.0 ());
                 call_timeout = 0.4;
               })
        in
        Pep.set_l2 pep (Some (Cache_hierarchy.L2.node l2));
        Pep.set_stale_window pep 30.0;
        pep)
  in
  let pep0 = List.nth peps 0 and pep1 = List.nth peps 1 in
  let client user node =
    Client.create services ~node:(add node)
      ~subject:[ ("subject-id", Value.String user); ("role", Value.String "admin") ]
  in
  let alice = client "alice" "cli0"
  and alice_dup = client "alice" "cli0b"
  and alice_replica = client "alice" "cli1"
  and bob = client "bob" "cli2" in
  let req client pep ~at =
    Engine.schedule_at (Net.engine net) ~at (fun () ->
        Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:10.0 (fun _ -> ()))
  in
  (* cold + same-instant duplicate: live leader, coalesced waiter *)
  req alice pep0 ~at:1.0;
  req alice_dup pep0 ~at:1.0;
  (* replica pass answered by the shared L2 *)
  req alice_replica pep1 ~at:2.0;
  (* warm pass answered fresh from L1 *)
  req alice pep0 ~at:2.5;
  (* kill the decision tier and the shared cache *)
  Engine.schedule_at (Net.engine net) ~at:4.0 (fun () ->
      Net.crash net "pdp";
      Net.crash net "l2");
  (* expired L1 entry, everything else dark: bounded-stale serve *)
  req alice pep0 ~at:8.0;
  (* never-cached subject, everything dark: fail closed *)
  req bob pep0 ~at:9.0;
  Net.run net;
  let entries = Audit.entries audit in
  let stages =
    List.filter_map
      (fun e -> Option.map (fun p -> Provenance.stage_name p.Provenance.stage) e.Audit.provenance)
      entries
  in
  let has stage = List.mem stage stages in
  let coalesced_seen =
    List.exists
      (fun e -> match e.Audit.provenance with Some p -> p.Provenance.coalesced | None -> false)
      entries
  in
  let checks =
    [
      ( "every-decision-has-provenance",
        entries <> [] && List.for_all (fun e -> e.Audit.provenance <> None) entries,
        Printf.sprintf "%d audit entries" (List.length entries) );
      ("stage-live", has "live", "cold descent reached a live PDP");
      ("stage-l2", has "l2", "replica pass served by the shared cache");
      ("stage-l1", has "l1", "warm pass served from the local cache");
      ("stage-stale", has "stale", "degraded serve from an expired entry");
      ("stage-fail-closed", has "fail-closed", "unservable request denied");
      ("coalesced-flagged", coalesced_seen, "duplicate folded onto the leader's descent");
    ]
  in
  if json then begin
    let entries_json =
      String.concat ","
        (List.map
           (fun e ->
             Printf.sprintf "{\"at\":%.6f,\"subject\":%S,\"action\":%S,\"decision\":%S,\"provenance\":%s}"
               e.Audit.at (json_escape e.Audit.subject) (json_escape e.Audit.action)
               (json_escape (Decision.decision_to_string e.Audit.decision))
               (match e.Audit.provenance with
               | Some p -> Provenance.to_json p
               | None -> "null"))
           entries)
    in
    Printf.printf "{\"seed\":%d,\"decisions\":[%s]}\n" seed entries_json
  end
  else begin
    Printf.printf "decision provenance (seed %d, %d decisions):\n" seed (List.length entries);
    List.iter
      (fun e ->
        Printf.printf "  t=%6.3f  %-6s %-5s -> %-14s %s\n" e.Audit.at e.Audit.subject
          e.Audit.action
          (Decision.decision_to_string e.Audit.decision)
          (match e.Audit.provenance with
          | Some p -> Provenance.to_string p
          | None -> "(no provenance)"))
      entries;
    print_newline ();
    print_string (Report.attribution services);
    print_newline ();
    print_string (Report.critical_path services);
    print_newline ()
  end;
  Experiment.checks ~quiet:json "explain" checks

(* --- slo ---------------------------------------------------------------------- *)

(* The SLO monitor over two workload runs off the same knobs: one inside
   the serving capacity (objectives met, burn under 1) and one offered
   far beyond it (admission control sheds, the availability budget
   burns).  The checks prove the monitor separates the two regimes. *)
let slo_cmd seed json =
  let module W = Dacs_workload.Workload in
  let module Slo = Dacs_telemetry.Slo in
  let healthy = W.run { W.default with seed } in
  let overloaded =
    W.run { W.default with seed; arrivals = W.Open_loop { rate = 2000.0 }; duration = 2.0 }
  in
  let checks =
    [
      ( "healthy-objectives-met",
        healthy.W.slo.Slo.availability_met && healthy.W.slo.Slo.latency_met,
        Printf.sprintf "availability %.3f%%, latency compliance %.3f%%"
          (healthy.W.slo.Slo.availability *. 100.0)
          (healthy.W.slo.Slo.latency_compliance *. 100.0) );
      ( "overload-violates-availability",
        not overloaded.W.slo.Slo.availability_met,
        Printf.sprintf "availability %.3f%% with %d shed"
          (overloaded.W.slo.Slo.availability *. 100.0)
          overloaded.W.shed );
      ( "overload-burns-budget",
        overloaded.W.slo.Slo.availability_burn > 1.0
        && overloaded.W.slo.Slo.availability_burn > healthy.W.slo.Slo.availability_burn,
        Printf.sprintf "burn %.1fx vs %.1fx" overloaded.W.slo.Slo.availability_burn
          healthy.W.slo.Slo.availability_burn );
    ]
  in
  if json then
    Printf.printf "{\"seed\":%d,\"healthy\":%s,\"overloaded\":%s}\n" seed (W.render_json healthy)
      (W.render_json overloaded)
  else begin
    Printf.printf "slo monitor (seed %d, objective: %.1f%% served, %.0f%% within %gs, %gs window)\n\n"
      seed
      (Slo.default_objective.Slo.availability_target *. 100.0)
      (Slo.default_objective.Slo.latency_target *. 100.0)
      Slo.default_objective.Slo.latency_threshold Slo.default_objective.Slo.window;
    Printf.printf "within capacity (%d decisions):\n" healthy.W.slo.Slo.total;
    print_string (W.render healthy);
    Printf.printf "\noffered 10x capacity (%d decisions):\n" overloaded.W.slo.Slo.total;
    print_string (W.render overloaded);
    print_newline ()
  end;
  Experiment.checks ~quiet:json "slo" checks

(* --- offline ------------------------------------------------------------------ *)

(* The offline-mode smoke: the same partitioned workload run with and
   without offline replicas (fail-closed vs served-from-log), then the
   replica-level story end to end — diverge under partition, reject a
   tampered segment, heal, deny-wins replay with conflict surfacing and
   retroactive invalidation.  Exits non-zero when an OFFLINE CHECK
   fails. *)
let offline_cmd seed json =
  let module W = Dacs_workload.Workload in
  let module O = Offline in
  let partition = Some { W.from = 1.0; until = 3.0 } in
  let base = W.run { W.default with W.seed; partition } in
  let off = W.run { W.default with W.seed; partition; offline = true } in
  (* Replica-level: two domains, a shared history, then a partition-era
     race — alpha grants carol and serves an offline Permit from that
     grant while beta, unaware, revokes her. *)
  let now = ref 0.0 in
  let tick () = now := !now +. 1.0 in
  let mk name = O.create ~now:(fun () -> !now) ~key:"dacs-offline-smoke-key" ~author:name () in
  let a = mk "alpha" and b = mk "beta" in
  let pol =
    Policy.make ~id:"offline-demo" ~rule_combining:Combine.First_applicable
      [
        Dacs_policy.Rule.permit
          ~condition:
            (Dacs_policy.Expr.one_of (Dacs_policy.Expr.subject_attr "role") [ "doctor" ])
          "doctors";
        Dacs_policy.Rule.deny "default-deny";
      ]
  in
  tick ();
  O.publish a (Policy.Inline_policy pol);
  tick ();
  O.grant a ~subject:"alice" ~attr:"role" ~value:"doctor";
  let shared_sync = match O.sync_pair a b with Ok _ -> true | Error _ -> false in
  tick ();
  O.grant a ~subject:"carol" ~attr:"role" ~value:"doctor";
  let ctx_carol =
    Dacs_policy.Context.make
      ~subject:[ ("subject-id", Dacs_policy.Value.String "carol") ]
      ~resource:[ ("resource-id", Dacs_policy.Value.String "chart") ]
      ~action:[ ("action-id", Dacs_policy.Value.String "read") ]
      ()
  in
  tick ();
  let offline_permit =
    match O.decide a ctx_carol with
    | Some (r, _) -> r.Decision.decision = Decision.Permit
    | None -> false
  in
  tick ();
  O.revoke b ~subject:"carol" ~attr:"role";
  (* A mutated copy of beta's suffix must be refused outright... *)
  let tampered =
    List.map (fun ev -> { ev with O.at = ev.O.at +. 0.5 }) (O.missing_for b ~frontier:(O.frontier a))
  in
  let known_before = (O.stats a).O.events_known in
  let tamper_rejected, tamper_error =
    match O.admit a tampered with
    | Error e -> ((O.stats a).O.events_known = known_before, O.sync_error_to_string e)
    | Ok n -> (false, Printf.sprintf "admitted %d tampered events" n)
  in
  (* ... while the honest exchange converges both replicas. *)
  let healed = match O.sync_pair a b with Ok _ -> true | Error _ -> false in
  let converged = healed && O.state_digest a = O.state_digest b in
  let deny_wins = not (List.mem ("carol", "role", "doctor") (O.surviving_grants a)) in
  let conflict_surfaced = List.exists (fun c -> c.O.c_subject = "carol") (O.conflicts a) in
  let invalidated = (O.stats a).O.invalidations >= 1 in
  let checks =
    [
      ( "partition-fails-closed-without-offline",
        base.W.errors > 0 && base.W.offline_serves = 0,
        Printf.sprintf "%d fail-closed answers during the partition window" base.W.errors );
      ( "offline-serves-during-partition",
        off.W.offline_serves > 0,
        Printf.sprintf "%d decisions served from the signed log" off.W.offline_serves );
      ( "offline-reduces-fail-closed",
        off.W.errors < base.W.errors,
        Printf.sprintf "errors %d -> %d" base.W.errors off.W.errors );
      ( "conservation",
        W.conservation_ok base && W.conservation_ok off,
        "every offered request answered exactly once in both runs" );
      ( "tampered-segment-rejected",
        tamper_rejected,
        Printf.sprintf "whole segment refused, log untouched (%s)" tamper_error );
      ( "post-heal-convergence",
        shared_sync && converged,
        Printf.sprintf "state digests byte-identical (%s)"
          (String.sub (O.state_digest a) 0 12) );
      ( "deny-wins-retroactively",
        offline_permit && deny_wins && conflict_surfaced && invalidated,
        "offline grant defeated, conflict surfaced, offline Permit invalidated" );
    ]
  in
  if json then
    Printf.printf "{\"seed\":%d,\"baseline\":%s,\"offline\":%s}\n" seed (W.render_json base)
      (W.render_json off)
  else begin
    Printf.printf "offline mode (seed %d): partition window [1s, 3s) of a %.0fs run\n\n" seed
      W.default.W.duration;
    Printf.printf "without offline replicas (fail closed):\n";
    print_string (W.render base);
    Printf.printf "\nwith offline replicas (served from the signed log):\n";
    print_string (W.render off);
    print_newline ()
  end;
  Experiment.checks ~quiet:json "offline" checks

(* --- load -------------------------------------------------------------------- *)

(* Drive the deterministic workload engine from the command line: the
   same scenario (same seed) always prints a byte-identical report, so
   two invocations can be compared with cmp(1) — the determinism gate CI
   relies on.  Exits non-zero when a LOAD CHECK fails. *)
let load_cmd seed rate clients think duration peps shards users domains zipf cache_ttl
    cache_entries service_time batch max_inflight queue pdp_max_inflight rule_cost
    churn_period churn_flush json =
  let module W = Dacs_workload.Workload in
  let arrivals =
    if clients > 0 then W.Closed_loop { clients; think_time = think } else W.Open_loop { rate }
  in
  let scenario =
    {
      W.seed;
      domains;
      peps;
      shards;
      users;
      zipf;
      arrivals;
      duration;
      cache_ttl;
      cache_capacity = cache_entries;
      service_time;
      batch;
      admission =
        (if max_inflight > 0 then Some { Pep.max_inflight; max_queue = queue } else None);
      pdp_max_inflight = (if pdp_max_inflight > 0 then Some pdp_max_inflight else None);
      rule_cost;
      partition = None;
      offline = false;
      churn =
        (if churn_period > 0.0 then
           Some { W.churn_period; churn_targeted = not churn_flush }
         else None);
    }
  in
  match W.run scenario with
  | exception Invalid_argument m ->
    prerr_endline ("load: " ^ m);
    2
  | report ->
    let checks =
      [
        ( "conservation",
          W.conservation_ok report,
          Printf.sprintf "completed %d of offered %d; %d+%d+%d+%d accounted" report.W.completed
            report.W.offered report.W.granted report.W.denied report.W.errors report.W.shed );
        ("answered", report.W.completed > 0, Printf.sprintf "%d completions" report.W.completed);
      ]
    in
    if json then print_endline (W.render_json report)
    else begin
      (match arrivals with
      | W.Open_loop { rate } ->
        Printf.printf
          "workload (seed %d): open-loop %.0f req/s for %.1f s, %d PEPs x %d shards, %d users, \
           zipf %.2f, cache ttl %.1f\n\n"
          seed rate duration peps shards users zipf cache_ttl
      | W.Closed_loop { clients; think_time } ->
        Printf.printf
          "workload (seed %d): closed-loop %d clients (think %.3f s) for %.1f s, %d PEPs x %d \
           shards, %d users, zipf %.2f, cache ttl %.1f\n\n"
          seed clients think_time duration peps shards users zipf cache_ttl);
      print_string (W.render report);
      print_newline ()
    end;
    Experiment.checks ~quiet:json "load" checks

(* --- delta ------------------------------------------------------------------- *)

(* Walk the change-impact analysis over the workload churn family: print
   each publish's region, spot-check its soundness against direct
   evaluation, and show what a targeted invalidation saves an L1 cache
   over the classic full flush.  Exits non-zero when a DELTA CHECK
   fails. *)
let delta_cmd json =
  let module W = Dacs_workload.Workload in
  let module Delta = Dacs_policy.Delta in
  let module Context = Dacs_policy.Context in
  let module Value = Dacs_policy.Value in
  let resources = 4 in
  let root gen = Policy.Inline_policy (W.churned_policy ~resources ~gen) in
  let ctx ~role ~res ~act =
    Context.make
      ~subject:[ ("subject-id", Value.String ("u-" ^ role)); ("role", Value.String role) ]
      ~resource:[ ("resource-id", Value.String res) ]
      ~action:[ ("action-id", Value.String act) ]
      ()
  in
  let ctxs =
    List.concat_map
      (fun role ->
        List.concat_map
          (fun r ->
            List.map (fun act -> ctx ~role ~res:(Printf.sprintf "res%d" r) ~act) [ "read"; "write" ])
          (List.init resources Fun.id))
      [ "doctor"; "nurse"; "admin" ]
  in
  let region01 = Delta.between (Some (root 0)) (Some (root 1)) in
  let region12 = Delta.between (Some (root 1)) (Some (root 2)) in
  (* Soundness spot-check: every context the region does not cover must
     decide identically under both generations. *)
  let sound region old_root new_root =
    List.for_all
      (fun c ->
        Delta.covers region c
        || Policy.evaluate_child c old_root = Policy.evaluate_child c new_root)
      ctxs
  in
  (* Cache demo: warm an L1 over the population, then invalidate with
     the publish's region vs a full flush. *)
  let cache = Decision_cache.create ~max_entries:1024 ~ttl:3600.0 () in
  List.iter
    (fun c ->
      Decision_cache.put cache ~now:0.0 ~key:(Decision_cache.request_key c)
        (Policy.evaluate_child c (root 1)))
    ctxs;
  let warm = Decision_cache.size cache in
  let dropped = Decision_cache.invalidate_region cache region12 in
  let checks =
    [
      ("no-op-publish-empty", Delta.is_empty (Delta.between (Some (root 1)) (Some (root 1))),
        "publishing an identical policy yields the empty region");
      ( "first-publish-unbounded",
        Delta.is_unbounded (Delta.between None (Some (root 0))),
        "publishing over no previous policy degrades to the full flush" );
      ( "rule-add-covered",
        Delta.covers region01 (ctx ~role:"admin" ~res:"res1" ~act:"read"),
        "the added admins-read rule's requests fall inside the region" );
      ( "soundness-sample",
        sound region01 (root 0) (root 1) && sound region12 (root 1) (root 2),
        "every context outside the region decides identically pre/post publish" );
      ( "targeted-drops-fewer",
        dropped > 0 && dropped < warm,
        Printf.sprintf "region dropped %d of %d warm entries (full flush drops all)" dropped warm
      );
    ]
  in
  if json then begin
    let fields =
      List.map (fun (name, ok, _) -> Printf.sprintf "\"%s\":%b" (json_escape name) ok) checks
    in
    Printf.printf
      "{\"region_0_1\":\"%s\",\"region_1_2\":\"%s\",\"zones_1_2\":%d,\"warm\":%d,\"dropped\":%d,%s}\n"
      (json_escape (Delta.to_string region01))
      (json_escape (Delta.to_string region12))
      (Delta.zone_count region12) warm dropped (String.concat "," fields)
  end
  else begin
    Printf.printf "change-impact regions over the churn family (%d resources):\n\n" resources;
    Printf.printf "publish gen0 -> gen1 (adds admins-read-churn on res1):\n  %s\n\n"
      (Delta.to_string region01);
    Printf.printf "publish gen1 -> gen2 (retargets it to res2):\n  %s\n\n"
      (Delta.to_string region12);
    Printf.printf "targeted invalidation: dropped %d of %d warm L1 entries\n\n" dropped warm;
  end;
  Experiment.checks ~quiet:json "delta" checks

(* --- cmdliner wiring ------------------------------------------------------------ *)

open Cmdliner

let policy_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"POLICY" ~doc:"Policy XML document.")

let request_arg =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"REQUEST" ~doc:"Request XML document.")

let policies_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"POLICY" ~doc:"Policy XML documents.")

let validate_t =
  Cmd.v
    (Cmd.info "validate" ~doc:"Statically validate a policy document")
    Term.(const validate_cmd $ policy_arg)

let explain_flag =
  Arg.(value & flag & info [ "explain" ] ~doc:"Print the full evaluation trace before the decision.")

let evaluate_t =
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Evaluate a request against a policy")
    Term.(const evaluate_cmd $ policy_arg $ request_arg $ explain_flag)

let conflicts_t =
  Cmd.v
    (Cmd.info "conflicts" ~doc:"Find modality conflicts across policies")
    Term.(const conflicts_cmd $ policies_arg)

let identity_flag =
  Arg.(value & flag & info [ "identity" ] ~doc:"Emit the identity-based (ACL) encoding instead of the role-based one.")

let rbac_compile_t =
  Cmd.v
    (Cmd.info "rbac-compile" ~doc:"Compile a textual RBAC model into a policy document")
    Term.(const rbac_compile_cmd $ policy_arg $ identity_flag)

let demo_t =
  Cmd.v
    (Cmd.info "demo" ~doc:"Run a built-in end-to-end authorisation scenario")
    Term.(const demo_cmd $ const ())

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-schedule seed (deterministic).")

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")

let chaos_t =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Replay the demo scenario under a random fault schedule with resilient enforcement")
    Term.(const chaos_cmd $ seed_arg $ json_flag)

let sim_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed (deterministic).")

let trace_t =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one pull-flow authorisation request with tracing on and render its span tree \
          (PEP -> PDP -> PIP/PAP hops with virtual-time latencies)")
    Term.(const trace_cmd $ sim_seed_arg)

let metrics_t =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run one pull-flow authorisation request and dump the metrics registry in Prometheus \
          text exposition format")
    Term.(const metrics_cmd $ sim_seed_arg $ json_flag)

let shards_arg =
  Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc:"Number of PDP replicas in the tier.")

let batch_arg =
  Arg.(value & opt int 8 & info [ "batch" ] ~docv:"K" ~doc:"Maximum queries coalesced per RPC frame.")

let requests_arg =
  Arg.(value & opt int 24 & info [ "requests" ] ~docv:"R" ~doc:"Requests per burst (two bursts are sent).")

let tier_t =
  Cmd.v
    (Cmd.info "tier"
       ~doc:
         "Run a burst of authorisation requests through a sharded, batched PDP tier, crash a \
          shard, and run the burst again — printing per-shard load and failover counts")
    Term.(const tier_cmd $ shards_arg $ batch_arg $ sim_seed_arg $ requests_arg $ json_flag)

let cache_t =
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Walk one workload down the decision-cache ladder (L1, shared L2, PDP attribute cache \
          with batched PIP fetches, single-flight coalescing), then run an invalidation round \
          and report per-level hit counts")
    Term.(const cache_cmd $ sim_seed_arg $ json_flag)

let rate_arg =
  Arg.(
    value
    & opt float 200.0
    & info [ "rate" ] ~docv:"R" ~doc:"Open-loop Poisson arrival rate (requests per virtual second).")

let clients_arg =
  Arg.(
    value
    & opt int 0
    & info [ "clients" ] ~docv:"N"
        ~doc:"Switch to closed-loop arrivals with N looping clients (0 = open loop).")

let think_arg =
  Arg.(
    value
    & opt float 0.01
    & info [ "think" ] ~docv:"S" ~doc:"Closed-loop think time between a reply and the next request.")

let duration_arg =
  Arg.(
    value
    & opt float 5.0
    & info [ "duration" ] ~docv:"S" ~doc:"Virtual seconds during which traffic is offered.")

let peps_arg =
  Arg.(value & opt int 4 & info [ "peps" ] ~docv:"N" ~doc:"Enforcement points (one resource each).")

let users_arg =
  Arg.(value & opt int 200 & info [ "users" ] ~docv:"N" ~doc:"Subject population size.")

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Domains the PEPs are spread across.")

let zipf_arg =
  Arg.(
    value
    & opt float 1.1
    & info [ "zipf" ] ~docv:"S" ~doc:"Zipf skew for user and resource popularity (0 = uniform).")

let cache_ttl_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "cache-ttl" ] ~docv:"S" ~doc:"L1 decision-cache TTL in seconds (0 disables caching).")

let cache_entries_arg =
  Arg.(
    value
    & opt int 1024
    & info [ "cache-entries" ] ~docv:"N"
        ~doc:"L1 decision-cache capacity in entries (the warm working-set bound).")

let service_time_arg =
  Arg.(
    value
    & opt float 0.004
    & info [ "service-time" ] ~docv:"S" ~doc:"Virtual seconds each PDP evaluation occupies a shard.")

let max_inflight_arg =
  Arg.(
    value
    & opt int 32
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:"PEP admission bound: concurrent decision descents (0 = unbounded).")

let queue_arg =
  Arg.(
    value
    & opt int 32
    & info [ "queue" ] ~docv:"N" ~doc:"PEP admission queue depth behind the in-flight bound.")

let pdp_inflight_arg =
  Arg.(
    value
    & opt int 64
    & info [ "pdp-max-inflight" ] ~docv:"N"
        ~doc:"Per-shard max-inflight bound on the PDP FIFO (0 = unbounded).")

let rule_cost_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "rule-cost" ] ~docv:"S"
        ~doc:
          "Extra virtual seconds of shard occupancy per rule compiled dispatch selects (0 keeps \
           the flat service-time model).")

let churn_period_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "churn-period" ] ~docv:"S"
        ~doc:
          "Publish a new policy generation every S virtual seconds (0 = static policy); each \
           publish runs a targeted invalidation round from its change-impact region.")

let churn_flush_flag =
  Arg.(
    value
    & flag
    & info [ "churn-flush" ]
        ~doc:
          "Ablation arm for --churn-period: invalidate with the unbounded region (the legacy \
           VO-wide full flush) instead of the computed change-impact region.")

let explain_t =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Walk one request population down every rung of the decision ladder (live, coalesced, \
          shared L2, L1, bounded-stale, fail-closed) and print each decision's provenance record \
          from the audit log, the latency attribution, and the critical path")
    Term.(const explain_cmd $ sim_seed_arg $ json_flag)

let slo_t =
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Run the workload engine inside and far beyond its serving capacity and report the SLO \
          monitor's availability/latency objectives and error-budget burn rates for both regimes")
    Term.(const slo_cmd $ sim_seed_arg $ json_flag)

let offline_t =
  Cmd.v
    (Cmd.info "offline"
       ~doc:
         "Run the partition-window workload with and without offline replicas, then the \
          replica-level diverge/tamper/heal story: signed-log serving under partition, \
          tampered-segment rejection, deny-wins convergence with conflict surfacing and \
          retroactive invalidation.  Exits non-zero when an OFFLINE CHECK fails")
    Term.(const offline_cmd $ sim_seed_arg $ json_flag)

let load_t =
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive the deterministic workload engine: Zipf-skewed traffic against a sharded, \
          admission-controlled serving path on the virtual clock.  Same seed, byte-identical \
          report.  Exits non-zero when a LOAD CHECK fails")
    Term.(
      const load_cmd $ sim_seed_arg $ rate_arg $ clients_arg $ think_arg $ duration_arg $ peps_arg
      $ shards_arg $ users_arg $ domains_arg $ zipf_arg $ cache_ttl_arg $ cache_entries_arg
      $ service_time_arg $ batch_arg $ max_inflight_arg $ queue_arg $ pdp_inflight_arg
      $ rule_cost_arg $ churn_period_arg $ churn_flush_flag $ json_flag)

let delta_t =
  Cmd.v
    (Cmd.info "delta"
       ~doc:
         "Analyse policy change impact: compute the region of decisions a publish can affect \
          (Delta.between over consecutive churn generations), spot-check its soundness against \
          direct evaluation, and show what targeted cache invalidation saves over a full flush. \
          Exits non-zero when a DELTA CHECK fails")
    Term.(const delta_cmd $ json_flag)

let main =
  Cmd.group
    (Cmd.info "dacs" ~version:"1.0.0"
       ~doc:"Dependable access control for multi-domain computing environments")
    [
      validate_t;
      evaluate_t;
      conflicts_t;
      rbac_compile_t;
      demo_t;
      chaos_t;
      trace_t;
      metrics_t;
      tier_t;
      cache_t;
      load_t;
      delta_t;
      explain_t;
      slo_t;
      offline_t;
    ]

let () = exit (Cmd.eval' main)
