(* dacs: command-line front end for the DACS policy engine.

     dacs validate  POLICY.xml              check a policy document
     dacs evaluate  POLICY.xml REQUEST.xml  decide one request
     dacs conflicts POLICY.xml...           static conflict analysis
     dacs demo                              run a built-in end-to-end scenario
     dacs chaos                             replay the demo under a fault schedule
     dacs trace                             render the span tree of one pull-flow request
     dacs metrics                           dump the metrics registry after one request

   The gated scenarios (tier, cache, explain, slo, offline, load, delta)
   are entries of Dacs_registry.Registry, judged by the same gate
   collector as bench/main.exe. *)

module Xacml = Dacs_policy.Xacml_xml
module Validate = Dacs_policy.Validate
module Registry = Dacs_registry.Registry
open Dacs_core
open Dacs_registry.Common

let render_outcome = function
  | Ok (Wire.Granted { content; _ }) -> "GRANTED: " ^ content
  | Ok (Wire.Denied reason) -> "DENIED: " ^ reason
  | Error e -> "ERROR: " ^ Service.error_to_string e

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
  let net = Net.create () in
  let services = Service.create (Rpc.create net) in
  let domain = Domain.create services ~name:"demo" () in
  Domain.set_local_policy domain (admins_read_policy "demo-policy");
  let pep = Domain.expose_resource domain ~resource:"demo-resource" ~content:"42" () in
  Net.add_node net "cli";
  let admin =
    Client.create services ~node:"cli"
      ~subject:[ ("subject-id", Value.String "admin1"); ("role", Value.String "admin") ]
  in
  let outcome = ref "" in
  Client.request admin ~pep:(Pep.node pep) ~action:"read" (fun r -> outcome := render_outcome r);
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
  let net = Net.create ~seed:(Int64.of_int seed) () in
  let rpc = Rpc.create net in
  let services = Service.create rpc in
  if tracing then Rpc.set_tracing rpc true;
  let domain = Domain.create services ~name:"demo" () in
  Domain.set_local_policy domain (admins_read_policy "demo-policy");
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

let trace_cmd seed =
  let module Trace = Dacs_telemetry.Trace in
  let rpc, outcome = observability_scenario ~seed ~tracing:true in
  Printf.printf "one pull-flow request (seed %d) -> %s\n\n" seed
    (Option.fold ~none:"NO ANSWER" ~some:render_outcome outcome);
  print_string (Trace.render_tree (Rpc.tracer rpc));
  match outcome with Some (Ok (Wire.Granted _)) -> 0 | _ -> 1

let metrics_cmd seed json =
  let rpc, outcome = observability_scenario ~seed ~tracing:false in
  let m = Rpc.metrics rpc in
  if json then print_endline (Metrics.render_json m) else print_string (Metrics.render m);
  match outcome with Some (Ok (Wire.Granted _)) -> 0 | _ -> 1

(* --- chaos ------------------------------------------------------------------- *)

let chaos_cmd seed json =
  let module Faults = Dacs_net.Faults in
  let net = Net.create ~seed:(Int64.of_int seed) () in
  let rpc = Rpc.create net in
  let services = Service.create rpc in
  List.iter (Net.add_node net) [ "pep"; "pdp0"; "pdp1"; "cli" ];
  let policy = admins_read_policy "chaos-policy" in
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
  let s = Pep.stats pep in
  let last_granted =
    match sorted with
    | [] -> false
    | l -> ( match List.nth l (List.length l - 1) with _, _, Ok (Wire.Granted _) -> true | _ -> false)
  in
  if json then begin
    let schedule_json =
      String.concat ","
        (List.map (fun sp -> Printf.sprintf "%S" (Metrics.json_escape (Faults.describe sp))) schedule)
    in
    let requests_json =
      String.concat ","
        (List.map
           (fun (at, finished, r) ->
             Printf.sprintf "{\"at\":%g,\"answered_at\":%g,\"outcome\":%S}" at finished
               (Metrics.json_escape (render_outcome r)))
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
        Printf.printf "  t=%5.1f  ->  %-30s (answered at %.2fs)\n" at (render_outcome r) finished)
      sorted;
    Printf.printf
      "\nPEP stats: %d requests, %d granted, %d denied; %d retries, %d breaker trips, %d shed, %d stale serves, %d failovers\n"
      s.Pep.requests s.Pep.granted s.Pep.denied s.Pep.retries s.Pep.breaker_trips
      s.Pep.breaker_rejections s.Pep.stale_serves s.Pep.failovers;
    if last_granted then Printf.printf "liveness: request after the schedule cleared was granted\n"
    else Printf.printf "liveness: FAILED - post-schedule request was not granted\n"
  end;
  if last_granted then 0 else 1

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

let chaos_t =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay the demo scenario under a random fault schedule, with breaker-guarded enforcement that retries")
    Term.(const chaos_cmd $ seed_arg $ Registry.json_flag)

let trace_t =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one pull-flow authorisation request with tracing on and render its span tree \
          (PEP -> PDP -> PIP/PAP hops with virtual-time latencies)")
    Term.(const trace_cmd $ Registry.sim_seed_arg)

let metrics_t =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run one pull-flow authorisation request and dump the metrics registry in Prometheus \
          text exposition format")
    Term.(const metrics_cmd $ Registry.sim_seed_arg $ Registry.json_flag)

let main =
  Cmd.group
    (Cmd.info "dacs" ~version:"1.0.0"
       ~doc:"Dependable access control for multi-domain computing environments")
    ([ validate_t; evaluate_t; conflicts_t; rbac_compile_t; demo_t; chaos_t; trace_t; metrics_t ]
    @ Registry.commands)

let () = exit (Cmd.eval' main)
