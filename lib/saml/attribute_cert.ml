module Xml = Dacs_xml.Xml
module Value = Dacs_policy.Value
module Decision = Dacs_policy.Decision

let element_name = "X509AttributeCertificate"

let ( let* ) = Result.bind

(* Serial numbers in X.509 are numeric; the assertion id is carried in an
   extension attribute so the round-trip is lossless. *)
let to_xml (a : Assertion.t) =
  let attributes =
    List.map
      (fun (name, v) ->
        Xml.element "Attribute"
          ~attrs:[ ("Type", name); ("DataType", Value.type_name (Value.type_of v)) ]
          ~children:[ Xml.text (Value.to_string v) ])
      (Assertion.attributes a)
  in
  let decisions =
    List.map
      (fun (resource, action, decision) ->
        Xml.element "AuthorizationDecision"
          ~attrs:
            [
              ("Resource", resource);
              ("Action", action);
              ("Decision", Decision.decision_to_string decision);
            ])
      (Assertion.decisions a)
  in
  Xml.element element_name
    ~attrs:[ ("Version", "2") ]
    ~children:
      ([
         Xml.element "Holder" ~children:[ Xml.text a.Assertion.subject ];
         Xml.element "Issuer" ~children:[ Xml.text a.Assertion.issuer ];
         Xml.element "SerialNumber" ~attrs:[ ("Id", a.Assertion.id) ];
         Xml.element "AttCertValidityPeriod"
           ~attrs:
             [
               ("NotBeforeTime", Printf.sprintf "%.6f" a.Assertion.not_before);
               ("NotAfterTime", Printf.sprintf "%.6f" a.Assertion.not_on_or_after);
               ("IssueInstant", Printf.sprintf "%.6f" a.Assertion.issued_at);
             ];
         Xml.element "Attributes" ~children:attributes;
         Xml.element "Extensions" ~children:decisions;
       ]
      @
      match a.Assertion.signature with
      | None -> []
      | Some s ->
        [
          Xml.element "SignatureValue"
            ~children:[ Xml.text (Dacs_crypto.Encoding.base64_encode s) ];
        ])

let text_child node name =
  match Xml.find_child node name with
  | Some c -> Ok (Xml.text_content c)
  | None -> Error (Printf.sprintf "%s lacks <%s>" element_name name)

let of_xml node =
  if Xml.local_name (Xml.tag node) <> element_name then
    Error (Printf.sprintf "expected <%s>" element_name)
  else begin
    let* subject = text_child node "Holder" in
    let* issuer = text_child node "Issuer" in
    let* id =
      match Option.bind (Xml.find_child node "SerialNumber") (fun n -> Xml.attr n "Id") with
      | Some id -> Ok id
      | None -> Error "SerialNumber lacks Id"
    in
    match Xml.find_child node "AttCertValidityPeriod" with
    | None -> Error "missing validity period"
    | Some validity -> (
      let time name =
        match Option.bind (Xml.attr validity name) float_of_string_opt with
        | Some t -> Ok t
        | None -> Error (Printf.sprintf "bad or missing %s" name)
      in
      let* not_before = time "NotBeforeTime" in
      let* not_on_or_after = time "NotAfterTime" in
      let* issued_at = time "IssueInstant" in
      let* attrs =
        match Xml.find_child node "Attributes" with
        | None -> Ok []
        | Some attrs_node ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | a :: rest -> (
              match (Xml.attr a "Type", Xml.attr a "DataType") with
              | Some name, Some dt_name -> (
                match Value.data_type_of_name dt_name with
                | None -> Error (Printf.sprintf "unknown data type %s" dt_name)
                | Some dt -> (
                  match Value.of_string dt (Xml.text_content a) with
                  | Ok v -> go ((name, v) :: acc) rest
                  | Error e -> Error e))
              | _ -> Error "Attribute needs Type and DataType")
          in
          go [] (Xml.find_children attrs_node "Attribute")
      in
      let* decisions =
        match Xml.find_child node "Extensions" with
        | None -> Ok []
        | Some ext ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | d :: rest -> (
              match (Xml.attr d "Resource", Xml.attr d "Action", Xml.attr d "Decision") with
              | Some resource, Some action, Some ds -> (
                match Decision.decision_of_string ds with
                | Some decision ->
                  go
                    (Assertion.Authz_decision_statement { resource; action; decision } :: acc)
                    rest
                | None -> Error (Printf.sprintf "unknown decision %s" ds))
              | _ -> Error "AuthorizationDecision needs Resource, Action and Decision")
          in
          go [] (Xml.find_children ext "AuthorizationDecision")
      in
      let* signature = Assertion.signature_of_xml node in
      let statements =
        (match attrs with [] -> [] | attrs -> [ Assertion.Attribute_statement attrs ]) @ decisions
      in
      Ok
        {
          Assertion.id;
          issuer;
          subject;
          issued_at;
          not_before;
          not_on_or_after;
          statements;
          signature;
        })
  end

let to_string a = Xml.to_string (to_xml a)
