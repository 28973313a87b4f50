module Service = Dacs_ws.Service
module Assertion = Dacs_saml.Assertion
module Value = Dacs_policy.Value
module Decision = Dacs_policy.Decision

type session = { mutable from_client : string list; mutable from_server : string list }

type t = {
  services : Service.t;
  node : Dacs_net.Net.node_id;
  issuer : string;
  keypair : Dacs_crypto.Rsa.keypair;
  credentials : Negotiation.credential list;
  requirement_for : resource:string -> action:string -> Negotiation.requirement;
  sessions : (Dacs_net.Net.node_id * string * string, session) Hashtbl.t;
  mutable issued : int;
}

let public_key t = t.keypair.Dacs_crypto.Rsa.public
let sessions t = Hashtbl.length t.sessions

let now t = Dacs_net.Net.now (Service.net t.services)

let issue_capability t ~subject ~subject_name ~resource ~action =
  t.issued <- t.issued + 1;
  let unsigned =
    Assertion.make
      ~id:(Printf.sprintf "tn-%s-%d" t.issuer t.issued)
      ~issuer:t.issuer ~subject:subject_name ~issued_at:(now t) ~validity:300.0
      [
        Assertion.Attribute_statement subject;
        Assertion.Authz_decision_statement { resource; action; decision = Decision.Permit };
      ]
  in
  Assertion.sign t.keypair.Dacs_crypto.Rsa.private_ unsigned

let create services ~node ~issuer ~keypair ~credentials ~requirement_for () =
  let t =
    {
      services;
      node;
      issuer;
      keypair;
      credentials;
      requirement_for;
      sessions = Hashtbl.create 16;
      issued = 0;
    }
  in
  Service.serve services ~node Wire.Services.negotiate
    (fun ~caller ~headers:_ (resource, action, subject_name, disclosed) reply ->
      let key = (caller, resource, action) in
      let session =
        match Hashtbl.find_opt t.sessions key with
        | Some s -> s
        | None ->
          let s = { from_client = []; from_server = [] } in
          Hashtbl.add t.sessions key s;
          s
      in
      (* Absorb the client's newly disclosed credentials. *)
      List.iter
        (fun name ->
          if not (List.mem name session.from_client) then session.from_client <- name :: session.from_client)
        disclosed;
      let requirement = t.requirement_for ~resource ~action in
      if Negotiation.satisfied requirement session.from_client then begin
        Hashtbl.remove t.sessions key;
        let subject = [ ("subject-id", Value.String subject_name) ] in
        let assertion = issue_capability t ~subject ~subject_name ~resource ~action in
        reply (fun buf -> Wire.write_negotiate_response buf (Wire.Issued assertion))
      end
      else begin
        (* Disclose whatever the client's credentials now unlock. *)
        let party = { Negotiation.party_name = t.issuer; credentials = t.credentials } in
        let unlocked =
          List.filter_map
            (fun (c : Negotiation.credential) ->
              if List.mem c.Negotiation.name session.from_server then None
              else if Negotiation.satisfied c.Negotiation.release session.from_client then
                Some c.Negotiation.name
              else None)
            party.Negotiation.credentials
        in
        session.from_server <- unlocked @ session.from_server;
        reply (fun buf -> Wire.write_negotiate_response buf (Wire.Continue unlocked))
      end);
  t

type outcome = {
  granted : Assertion.t option;
  rounds : int;
  messages : int;
}

(* What bounds a client that keeps disclosing. *)
let max_rounds = 20

let negotiate t ~services ~client_node ~credentials ~subject ~resource ~action k =
  let subject_name =
    match List.assoc_opt "subject-id" subject with
    | Some v -> Value.to_string v
    | None -> client_node
  in
  let disclosed = ref [] and seen_from_server = ref [] in
  let rec round n messages =
    (* Disclose everything the server's prior disclosures unlock. *)
    let unlocked =
      List.filter_map
        (fun (c : Negotiation.credential) ->
          if List.mem c.Negotiation.name !disclosed then None
          else if Negotiation.satisfied c.Negotiation.release !seen_from_server then
            Some c.Negotiation.name
          else None)
        credentials
    in
    disclosed := unlocked @ !disclosed;
    Service.call services ~src:client_node ~dst:t.node Wire.Services.negotiate
      (fun buf -> Wire.write_negotiate buf ~resource ~action ~subject:subject_name unlocked)
      (fun response ->
        let messages = messages + 2 in
        match response with
        | Ok (Ok (Wire.Issued assertion)) -> k { granted = Some assertion; rounds = n; messages }
        | Ok (Ok (Wire.Continue fresh)) ->
          let progressed = unlocked <> [] || fresh <> [] in
          seen_from_server := fresh @ !seen_from_server;
          if (not progressed) || n >= max_rounds then k { granted = None; rounds = n; messages }
          else round (n + 1) messages
        | Ok (Error _) | Error _ -> k { granted = None; rounds = n; messages })
  in
  round 1 0
