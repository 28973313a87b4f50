(* Dependability demo: a PEP backed by three PDP replicas keeps answering
   while replicas crash and recover around it.

   Run with:  dune exec examples/failover_demo.exe *)

module Value = Dacs_policy.Value
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Target = Dacs_policy.Target
module Combine = Dacs_policy.Combine
module Net = Dacs_net.Net
module Engine = Dacs_net.Engine
module Service = Dacs_ws.Service
open Dacs_core

let () =
  let net = Net.create () in
  let services = Service.create (Dacs_net.Rpc.create net) in

  let policy =
    Policy.Inline_policy
      (Policy.make ~id:"p" ~rule_combining:Combine.First_applicable
         [
           Rule.permit ~target:Target.(any |> subject_is "role" "operator") "ops";
           Rule.deny "default-deny";
         ])
  in
  let replicas =
    List.map
      (fun i ->
        let node = Printf.sprintf "pdp-%d" i in
        Net.add_node net node;
        ignore (Pdp_service.create services ~node ~name:node ~root:policy ());
        node)
      [ 1; 2; 3 ]
  in
  Net.add_node net "pep";
  let tier = Pdp_tier.ordered services ~node:"pep" ~pdps:replicas ~call_timeout:0.4 in
  let pep =
    Pep.create services ~node:"pep" ~domain:"ops" ~resource:"control-panel"
      (Pep.Sharded { tier; cache = None })
  in
  Net.add_node net "console";
  let client =
    Client.create services ~node:"console"
      ~subject:[ ("subject-id", Value.String "op1"); ("role", Value.String "operator") ]
  in

  let granted = ref 0 and denied = ref 0 and errors = ref 0 in
  let request () =
    Client.request client ~pep:"pep" ~action:"read" ~timeout:5.0 (function
      | Ok (Wire.Granted _) -> incr granted
      | Ok (Wire.Denied _) -> incr denied
      | Error _ -> incr errors)
  in

  (* One request every second for 60 s of simulated time. *)
  for i = 0 to 59 do
    Engine.schedule (Net.engine net) ~delay:(float_of_int i) request
  done;

  (* A crash/recovery schedule that at one point takes out two of the
     three replicas at once. *)
  let crash at node = Engine.schedule (Net.engine net) ~delay:at (fun () ->
      Printf.printf "t=%5.1f  CRASH   %s\n" at node;
      Net.crash net node)
  in
  let recover at node = Engine.schedule (Net.engine net) ~delay:at (fun () ->
      Printf.printf "t=%5.1f  RECOVER %s\n" at node;
      Net.recover net node)
  in
  crash 10.0 "pdp-1";
  crash 20.0 "pdp-2";
  recover 35.0 "pdp-1";
  crash 40.0 "pdp-3";
  recover 50.0 "pdp-2";
  recover 55.0 "pdp-3";

  Net.run net;

  let s = Pep.stats pep in
  Printf.printf
    "\n60 requests over 60 s with crashes:\n\
    \  granted   : %d\n\
    \  denied    : %d\n\
    \  errors    : %d\n\
    \  pdp calls : %d (failovers: %d, hedges: %d)\n"
    !granted !denied !errors s.Pep.pdp_calls s.Pep.failovers (Pdp_tier.stats tier).Pdp_tier.hedges;
  if !granted = 60 then
    print_endline "\nevery request was served despite two simultaneous replica failures"
  else
    Printf.printf "\n%d requests were not served — try more replicas!\n" (60 - !granted)
