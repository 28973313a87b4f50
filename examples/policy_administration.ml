(* Policy administration (§3.2 management): a draft travels through
   review → cryptographic approval → issue, and the issued policy reaches
   the decision points by syndication.  A sloppy draft is caught by the
   review step; a forged approval is caught by signature verification.

   Run with:  dune exec examples/policy_administration.exe *)

module Value = Dacs_policy.Value
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Expr = Dacs_policy.Expr
module Target = Dacs_policy.Target
module Combine = Dacs_policy.Combine
module Decision = Dacs_policy.Decision
module Net = Dacs_net.Net
module Service = Dacs_ws.Service
module Rsa = Dacs_crypto.Rsa
open Dacs_core

let () =
  let net = Net.create () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  Net.add_node net "pap";
  let pap = Pap.create services ~node:"pap" ~name:"corporate-pap" () in

  (* Two security officers whose signatures gate issuing. *)
  let rng = Dacs_crypto.Rng.create 17L in
  let alice = Rsa.generate rng ~bits:512 in
  let bob = Rsa.generate rng ~bits:512 in
  let lifecycle =
    Lifecycle.create ~pap
      ~approvers:[ ("alice", alice.Rsa.public); ("bob", bob.Rsa.public) ]
      ~required_approvals:2
      ~now:(fun () -> Net.now net)
      ()
  in

  (* --- a sloppy draft: duplicate rule ids ------------------------------ *)
  let sloppy =
    Policy.Inline_policy
      (Policy.make ~id:"hasty" [ Rule.permit "r"; Rule.deny "r" ])
  in
  let d1 = Lifecycle.submit lifecycle ~author:"carol" sloppy in
  (match Lifecycle.review lifecycle ~draft:d1 () with
  | Ok report ->
    Printf.printf "draft %s: review found %d problem(s):\n" d1
      (List.length report.Lifecycle.problems);
    List.iter
      (fun p -> Printf.printf "  - %s\n" (Dacs_policy.Validate.problem_to_string p))
      report.Lifecycle.problems
  | Error e -> print_endline e);
  Printf.printf "draft %s state: %s\n\n" d1
    (match Lifecycle.state_of lifecycle ~draft:d1 with
    | Some s -> Lifecycle.state_to_string s
    | None -> "?");

  (* --- a good draft with test expectations ----------------------------- *)
  let good =
    Policy.Inline_policy
      (Policy.make ~id:"contractor-access" ~issuer:"corporate"
         ~rule_combining:Combine.First_applicable
         [
           Rule.permit
             ~target:Target.(any |> resource_is "resource-id" "wiki" |> action_is "action-id" "read")
             ~condition:(Expr.one_of (Expr.subject_attr "role") [ "employee"; "contractor" ])
             "staff-read-wiki";
           Rule.deny "default-deny";
         ])
  in
  let d2 = Lifecycle.submit lifecycle ~author:"carol" good in
  let request role =
    Dacs_policy.Context.make
      ~subject:[ ("subject-id", Value.String "u"); ("role", Value.String role) ]
      ~resource:[ ("resource-id", Value.String "wiki") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  (match
     Lifecycle.review lifecycle ~draft:d2
       ~expectations:
         [ (request "contractor", Decision.Permit); (request "visitor", Decision.Deny) ]
       ()
   with
  | Ok report ->
    Printf.printf "draft %s: review passed (%d conflicts with current policy noted)\n" d2
      (List.length report.Lifecycle.conflicts_with_current)
  | Error e -> print_endline e);

  (* A forged approval: mallory signs with her own key under bob's name. *)
  let mallory = Rsa.generate rng ~bits:512 in
  let payload = Option.get (Lifecycle.signing_payload lifecycle ~draft:d2) in
  (match
     Lifecycle.approve lifecycle ~draft:d2 ~approver:"bob"
       ~signature:(Rsa.sign mallory.Rsa.private_ payload)
   with
  | Error e -> Printf.printf "forged approval rejected: %s\n" e
  | Ok _ -> print_endline "BUG: forged approval accepted");

  (* Genuine approvals. *)
  ignore (Lifecycle.approve lifecycle ~draft:d2 ~approver:"alice" ~signature:(Rsa.sign alice.Rsa.private_ payload));
  ignore (Lifecycle.approve lifecycle ~draft:d2 ~approver:"bob" ~signature:(Rsa.sign bob.Rsa.private_ payload));
  (match Lifecycle.issue lifecycle ~draft:d2 with
  | Ok version -> Printf.printf "draft %s issued as PAP version %d\n" d2 version
  | Error e -> print_endline e);

  (* --- the issued policy reaches a PDP and decides requests ------------- *)
  Net.add_node net "pdp";
  ignore (Pdp_service.create services ~node:"pdp" ~name:"pdp" ~pap:"pap" ());
  Net.add_node net "pep";
  ignore
    (Pep.create services ~node:"pep" ~domain:"corp" ~resource:"wiki"
       (Pep.Sharded
          { tier = Pdp_tier.ordered services ~node:"pep" ~pdps:[ "pdp" ] ~call_timeout:1.0; cache = None }));
  Net.add_node net "c";
  let contractor =
    Client.create services ~node:"c"
      ~subject:[ ("subject-id", Value.String "dan"); ("role", Value.String "contractor") ]
  in
  Client.request contractor ~pep:"pep" ~action:"read" (fun r ->
      Printf.printf "contractor request after issue -> %s\n"
        (match r with
        | Ok (Wire.Granted _) -> "GRANTED"
        | Ok (Wire.Denied reason) -> "DENIED (" ^ reason ^ ")"
        | Error e -> "ERROR (" ^ Service.error_to_string e ^ ")"));
  Net.run net;

  print_newline ();
  print_endline "audit trail of the issued draft:";
  List.iter
    (fun (at, event) -> Printf.printf "  t=%.3f %s\n" at event)
    (Lifecycle.history lifecycle ~draft:d2)
