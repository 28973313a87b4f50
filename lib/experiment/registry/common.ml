(* What the experiment bodies share: the module names they are written
   against, a table header, a fresh simulated network, the small
   policies and request shapes several experiments reuse, and a CPU-time
   loop. *)

module Xml = Dacs_xml.Xml
module Value = Dacs_policy.Value
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Expr = Dacs_policy.Expr
module Target = Dacs_policy.Target
module Combine = Dacs_policy.Combine
module Net = Dacs_net.Net
module Engine = Dacs_net.Engine
module Rpc = Dacs_net.Rpc
module Service = Dacs_ws.Service
module Soap = Dacs_ws.Soap
module Security = Dacs_ws.Security
module Assertion = Dacs_saml.Assertion
module Rbac = Dacs_rbac.Rbac
module Compile = Dacs_rbac.Compile
module Rng = Dacs_crypto.Rng
module Rsa = Dacs_crypto.Rsa
module Experiment = Dacs_experiment.Experiment
module Gate = Experiment.Gate
module Loghist = Dacs_telemetry.Loghist
module Metrics = Dacs_telemetry.Metrics
module W = Dacs_workload.Workload

let header title claim =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '-');
  Printf.printf "claim: %s\n\n" claim

let fresh () =
  let net = Net.create () in
  let services = Service.create (Rpc.create net) in
  (net, services)

let doctor_subject user = [ ("subject-id", Value.String user); ("role", Value.String "doctor") ]

let doctor_read_policy ?(id = "policy") ?(issuer = "") resource =
  Policy.Inline_policy
    (Policy.make ~id ~issuer ~rule_combining:Combine.First_applicable
       [
         Rule.permit
           ~target:
             Target.(
               any |> subject_is "role" "doctor" |> resource_is "resource-id" resource
               |> action_is "action-id" "read")
           "permit-doctor-read";
         Rule.deny "default-deny";
       ])

(* The CLI scenarios' policy: admins may read, everything else is denied. *)
let admins_read_policy id =
  Policy.Inline_policy
    (Policy.make ~id ~rule_combining:Combine.First_applicable
       [
         Rule.permit
           ~target:Target.(any |> subject_is "role" "admin" |> action_is "action-id" "read")
           "admins-read";
         Rule.deny "default-deny";
       ])

(* Time a thunk with Sys.time, running it repeatedly for at least 0.2 s;
   returns microseconds per run. *)
let time_us f =
  let t0 = Sys.time () in
  let reps = ref 0 in
  while Sys.time () -. t0 < 0.2 do
    f ();
    incr reps
  done;
  (Sys.time () -. t0) *. 1e6 /. float_of_int !reps

let sized_policy ?(combining = Combine.First_applicable) n_rules =
  (* n_rules rules on distinct resources; requests for resource n-1 match
     only the last rule, forcing a full scan. *)
  Policy.make ~id:"sized" ~rule_combining:combining
    (List.init n_rules (fun i ->
         Rule.permit
           ~target:Target.(any |> resource_is "resource-id" (Printf.sprintf "res%d" i))
           (Printf.sprintf "r%d" i)))

let request_for i =
  Context.make ~subject:(doctor_subject "alice")
    ~resource:[ ("resource-id", Value.String (Printf.sprintf "res%d" i)) ]
    ~action:[ ("action-id", Value.String "read") ]
    ()
