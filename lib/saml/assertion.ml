module Xml = Dacs_xml.Xml
module Value = Dacs_policy.Value
module Decision = Dacs_policy.Decision

type statement =
  | Attribute_statement of (string * Value.t) list
  | Authz_decision_statement of {
      resource : string;
      action : string;
      decision : Decision.t;
    }

type t = {
  id : string;
  issuer : string;
  subject : string;
  issued_at : float;
  not_before : float;
  not_on_or_after : float;
  statements : statement list;
  signature : string option;
}

let make ~id ~issuer ~subject ~issued_at ?(validity = 300.0) statements =
  {
    id;
    issuer;
    subject;
    issued_at;
    not_before = issued_at;
    not_on_or_after = issued_at +. validity;
    statements;
    signature = None;
  }

let statement_to_xml = function
  | Attribute_statement attrs ->
    Xml.element "AttributeStatement"
      ~children:
        (List.map
           (fun (name, v) ->
             Xml.element "Attribute"
               ~attrs:[ ("Name", name); ("DataType", Value.type_name (Value.type_of v)) ]
               ~children:[ Xml.text (Value.to_string v) ])
           attrs)
  | Authz_decision_statement { resource; action; decision } ->
    Xml.element "AuthzDecisionStatement"
      ~attrs:
        [
          ("Resource", resource);
          ("Action", action);
          ("Decision", Decision.decision_to_string decision);
        ]

let unsigned_xml a =
  Xml.element "Assertion"
    ~attrs:
      [
        ("ID", a.id);
        ("Issuer", a.issuer);
        ("Subject", a.subject);
        ("IssueInstant", Printf.sprintf "%.6f" a.issued_at);
        ("NotBefore", Printf.sprintf "%.6f" a.not_before);
        ("NotOnOrAfter", Printf.sprintf "%.6f" a.not_on_or_after);
      ]
    ~children:(List.map statement_to_xml a.statements)

let signing_payload a = Xml.canonical_string (unsigned_xml a)

let sign key a = { a with signature = Some (Dacs_crypto.Rsa.sign key (signing_payload a)) }

let verify pub a =
  match a.signature with
  | None -> false
  | Some signature -> Dacs_crypto.Rsa.verify pub (signing_payload a) ~signature

let valid_at a now = a.not_before <= now && now < a.not_on_or_after

type failure =
  | Not_signed
  | Bad_signature
  | Expired
  | Not_yet_valid
  | Unknown_issuer of string

let failure_to_string = function
  | Not_signed -> "assertion is not signed"
  | Bad_signature -> "assertion signature does not verify"
  | Expired -> "assertion has expired"
  | Not_yet_valid -> "assertion is not yet valid"
  | Unknown_issuer issuer -> Printf.sprintf "issuer %s is not trusted" issuer

let validate ~trusted_key ~now a =
  match a.signature with
  | None -> Error Not_signed
  | Some _ -> (
    match trusted_key a.issuer with
    | None -> Error (Unknown_issuer a.issuer)
    | Some key ->
      if not (verify key a) then Error Bad_signature
      else if now < a.not_before then Error Not_yet_valid
      else if now >= a.not_on_or_after then Error Expired
      else Ok ())

let attributes a =
  List.concat_map
    (function Attribute_statement attrs -> attrs | Authz_decision_statement _ -> [])
    a.statements

let decisions a =
  List.filter_map
    (function
      | Authz_decision_statement { resource; action; decision } -> Some (resource, action, decision)
      | Attribute_statement _ -> None)
    a.statements

let permits a ~resource ~action =
  List.exists
    (fun (r, act, d) -> r = resource && act = action && d = Decision.Permit)
    (decisions a)

let to_xml a =
  let base = unsigned_xml a in
  match a.signature with
  | None -> base
  | Some s ->
    (match base with
    | Xml.Element e ->
      Xml.Element
        {
          e with
          Xml.children =
            e.Xml.children
            @ [
                Xml.element "SignatureValue"
                  ~children:[ Xml.text (Dacs_crypto.Encoding.base64_encode s) ];
              ];
        }
    | Xml.Text _ -> base)

let ( let* ) = Result.bind

let statement_of_xml node =
  match Xml.local_name (Xml.tag node) with
  | "AttributeStatement" ->
    let rec attrs_of acc = function
      | [] -> Ok (List.rev acc)
      | attr_node :: rest -> (
        match (Xml.attr attr_node "Name", Xml.attr attr_node "DataType") with
        | Some name, Some dt_name -> (
          match Value.data_type_of_name dt_name with
          | None -> Error (Printf.sprintf "unknown data type %s" dt_name)
          | Some dt -> (
            match Value.of_string dt (Xml.text_content attr_node) with
            | Ok v -> attrs_of ((name, v) :: acc) rest
            | Error e -> Error e))
        | _ -> Error "Attribute needs Name and DataType")
    in
    let* attrs = attrs_of [] (Xml.find_children node "Attribute") in
    Ok (Some (Attribute_statement attrs))
  | "AuthzDecisionStatement" -> (
    match (Xml.attr node "Resource", Xml.attr node "Action", Xml.attr node "Decision") with
    | Some resource, Some action, Some d -> (
      match Decision.decision_of_string d with
      | Some decision -> Ok (Some (Authz_decision_statement { resource; action; decision }))
      | None -> Error (Printf.sprintf "unknown decision %s" d))
    | _ -> Error "AuthzDecisionStatement needs Resource, Action and Decision")
  | "SignatureValue" -> Ok None
  | other -> Error (Printf.sprintf "unexpected assertion child <%s>" other)

(* Peer bytes: a SignatureValue that is not base64 rejects the whole
   assertion instead of raising out of the decoder. *)
let signature_of_xml node =
  match Xml.find_child node "SignatureValue" with
  | None -> Ok None
  | Some n -> (
    match Dacs_crypto.Encoding.base64_decode (Xml.text_content n) with
    | signature -> Ok (Some signature)
    | exception Invalid_argument _ -> Error "malformed SignatureValue")

let of_xml node =
  if Xml.local_name (Xml.tag node) <> "Assertion" then Error "expected an Assertion element"
  else begin
    let attr name =
      match Xml.attr node name with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "Assertion is missing %s" name)
    in
    let* id = attr "ID" in
    let* issuer = attr "Issuer" in
    let* subject = attr "Subject" in
    let* issued_s = attr "IssueInstant" in
    let* nb_s = attr "NotBefore" in
    let* na_s = attr "NotOnOrAfter" in
    match (float_of_string_opt issued_s, float_of_string_opt nb_s, float_of_string_opt na_s) with
    | Some issued_at, Some not_before, Some not_on_or_after ->
      let rec statements_of acc = function
        | [] -> Ok (List.rev acc)
        | child :: rest -> (
          match statement_of_xml child with
          | Ok (Some s) -> statements_of (s :: acc) rest
          | Ok None -> statements_of acc rest
          | Error e -> Error e)
      in
      let children = List.filter Xml.is_element (Xml.children node) in
      let* statements = statements_of [] children in
      let* signature = signature_of_xml node in
      Ok { id; issuer; subject; issued_at; not_before; not_on_or_after; statements; signature }
    | _ -> Error "Assertion has malformed timestamps"
  end

let to_string a = Xml.to_string (to_xml a)
