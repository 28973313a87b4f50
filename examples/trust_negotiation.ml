(* Trust negotiation (§3.1, Traust-style): a stranger with no prior
   relationship negotiates credentials with a negotiation server, receives
   a signed capability, and uses it at a push-mode PEP.  The full message
   sequence is rendered at the end.

   Run with:  dune exec examples/trust_negotiation.exe *)

module Value = Dacs_policy.Value
module Net = Dacs_net.Net
module Service = Dacs_ws.Service
open Dacs_core

let () =
  let net = Net.create () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  List.iter (Net.add_node net) [ "traust.example.org"; "archive.example.org"; "stranger" ];

  (* The archive's negotiation server: access to the dataset requires the
     client to show a project membership AND an ethics approval; the
     ethics board's approval is sensitive, so the client only reveals it
     after the server has proven its own accreditation; the server in turn
     reveals the accreditation only to enrolled members. *)
  let keys = Dacs_crypto.Rsa.generate (Dacs_crypto.Rng.create 8L) ~bits:512 in
  let server =
    Negotiation_service.create services ~node:"traust.example.org" ~issuer:"traust"
      ~keypair:keys
      ~credentials:[ Negotiation.protected_by "server-accreditation" [ "project-membership" ] ]
      ~requirement_for:(fun ~resource:_ ~action:_ ->
        [ [ "project-membership"; "ethics-approval" ] ])
      ()
  in

  ignore
    (Pep.create services ~node:"archive.example.org" ~domain:"archive" ~resource:"cohort-data"
       ~content:"anonymised cohort records"
       (Pep.Push
          {
            trusted_issuer =
              (fun i -> if i = "traust" then Some (Negotiation_service.public_key server) else None);
            check_revocation = None;
            local_pdp = None;
          }));

  let stranger_credentials =
    [
      Negotiation.unprotected "project-membership";
      Negotiation.protected_by "ethics-approval" [ "server-accreditation" ];
    ]
  in

  Net.set_tracing net true;
  Negotiation_service.negotiate server ~services ~client_node:"stranger"
    ~credentials:stranger_credentials
    ~subject:[ ("subject-id", Value.String "dr-visitor") ]
    ~resource:"cohort-data" ~action:"read"
    (fun outcome ->
      Printf.printf "negotiation: %s after %d round(s), %d message(s)\n"
        (if outcome.Negotiation_service.granted <> None then "GRANTED" else "FAILED")
        outcome.Negotiation_service.rounds outcome.Negotiation_service.messages;
      match outcome.Negotiation_service.granted with
      | None -> ()
      | Some capability ->
        (* Present the negotiated capability at the archive's PEP. *)
        Service.call services ~src:"stranger" ~dst:"archive.example.org"
          ~headers:[ Dacs_saml.Assertion.to_xml capability ]
          Wire.Services.access
          (fun buf ->
            Wire.write_access_request buf ~subject:[ ("subject-id", Value.String "dr-visitor") ] ~action:"read")
          (function
            | Ok (Ok (Wire.Granted { content; _ })) -> Printf.printf "archive access: GRANTED (%s)\n" content
            | Ok (Ok (Wire.Denied reason)) -> Printf.printf "archive access: DENIED (%s)\n" reason
            | Ok (Error _) | Error _ -> print_endline "archive access: error"));
  Net.run net;

  print_newline ();
  print_string (Dacs_net.Sequence.render (Net.trace net))
