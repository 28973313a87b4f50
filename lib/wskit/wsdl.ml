module Xml = Dacs_xml.Xml

type operation = {
  op_name : string;
  input : string;
  output : string;
}

type assertion =
  | Requires_subject_attribute of string
  | Requires_capability_from of string
  | Requires_signed_messages
  | Responses_encrypted

type t = {
  service : string;
  endpoint : Dacs_net.Net.node_id;
  operations : operation list;
  assertions : assertion list;
}

let assertion_to_xml = function
  | Requires_subject_attribute a ->
    Xml.element "RequiresSubjectAttribute" ~attrs:[ ("AttributeId", a) ]
  | Requires_capability_from i -> Xml.element "RequiresCapability" ~attrs:[ ("Issuer", i) ]
  | Requires_signed_messages -> Xml.element "RequiresSignedMessages"
  | Responses_encrypted -> Xml.element "ResponsesEncrypted"

let assertion_of_xml node =
  match Xml.local_name (Xml.tag node) with
  | "RequiresSubjectAttribute" -> (
    match Xml.attr node "AttributeId" with
    | Some a -> Ok (Requires_subject_attribute a)
    | None -> Error "RequiresSubjectAttribute lacks AttributeId")
  | "RequiresCapability" -> (
    match Xml.attr node "Issuer" with
    | Some i -> Ok (Requires_capability_from i)
    | None -> Error "RequiresCapability lacks Issuer")
  | "RequiresSignedMessages" -> Ok Requires_signed_messages
  | "ResponsesEncrypted" -> Ok Responses_encrypted
  | other -> Error (Printf.sprintf "unknown policy assertion <%s>" other)

let to_xml t =
  Xml.element "ServiceDescription"
    ~attrs:[ ("Service", t.service); ("Endpoint", t.endpoint) ]
    ~children:
      [
        Xml.element "Operations"
          ~children:
            (List.map
               (fun o ->
                 Xml.element "Operation"
                   ~attrs:[ ("Name", o.op_name); ("Input", o.input); ("Output", o.output) ])
               t.operations);
        Xml.element "PolicyAssertions" ~children:(List.map assertion_to_xml t.assertions);
      ]

let ( let* ) = Result.bind

let of_xml node =
  if Xml.local_name (Xml.tag node) <> "ServiceDescription" then
    Error "expected a ServiceDescription"
  else begin
    match (Xml.attr node "Service", Xml.attr node "Endpoint") with
    | Some service, Some endpoint ->
      let rec operations acc = function
        | [] -> Ok (List.rev acc)
        | o :: rest -> (
          match (Xml.attr o "Name", Xml.attr o "Input", Xml.attr o "Output") with
          | Some op_name, Some input, Some output ->
            operations ({ op_name; input; output } :: acc) rest
          | _ -> Error "Operation needs Name, Input and Output")
      in
      let* operations =
        match Xml.find_child node "Operations" with
        | None -> Ok []
        | Some ops -> operations [] (Xml.find_children ops "Operation")
      in
      let rec assertions acc = function
        | [] -> Ok (List.rev acc)
        | a :: rest ->
          let* parsed = assertion_of_xml a in
          assertions (parsed :: acc) rest
      in
      let* assertions =
        match Xml.find_child node "PolicyAssertions" with
        | None -> Ok []
        | Some pa -> assertions [] (List.filter Xml.is_element (Xml.children pa))
      in
      Ok { service; endpoint; operations; assertions }
    | _ -> Error "ServiceDescription needs Service and Endpoint"
  end

let unmet t ~subject_attributes ~capabilities_from ~will_sign =
  List.filter
    (fun a ->
      match a with
      | Requires_subject_attribute attr -> not (List.mem attr subject_attributes)
      | Requires_capability_from issuer -> not (List.mem issuer capabilities_from)
      | Requires_signed_messages -> not will_sign
      | Responses_encrypted -> false)
    t.assertions

(* --- frames ---------------------------------------------------------------- *)

module Cursor = Xml.Cursor

(* The description keeps its tree codec inside the frame. *)
let write_service_description buf d = Xml.print buf (to_xml d)

let read_service_description c =
  Cursor.read c (fun c -> match of_xml (Cursor.subtree c) with Ok d -> d | Error e -> Cursor.fail c e)

let write_description_query buf ~service =
  Xml.print buf (Xml.element "DescriptionQuery" ~attrs:[ ("Service", service) ])

(* The childless request and acknowledgement, read as they are written:
   the one attribute, if any, and nothing else. *)
let read_description_query c =
  Cursor.read c (fun c ->
      let tag = Cursor.enter_named c "DescriptionQuery" in
      if not (Cursor.next_attr c tag && Cursor.attr_is c "Service") then
        Cursor.fail c "<DescriptionQuery> expects attribute Service";
      let service = Cursor.value c in
      Cursor.end_leaf c tag;
      service)

let write_publish_ack buf = Xml.print buf (Xml.element "PublishAck")
let read_publish_ack c = Cursor.read c (Cursor.leaf0 "PublishAck")

(* --- registry ----------------------------------------------------------- *)

type registry = { descriptions : (string, t) Hashtbl.t }

let lookup r ~service = Hashtbl.find_opt r.descriptions service

let create_registry services ~node =
  let r = { descriptions = Hashtbl.create 16 } in
  Service.serve_frame services ~node ~service:"wsdl-publish" ~read:read_service_description
    (fun ~caller ~headers:_ d reply ->
      if d.endpoint <> caller then reply (Service.sender_fault "services may only publish their own descriptions")
      else begin
        Hashtbl.replace r.descriptions d.service d;
        reply write_publish_ack
      end);
  Service.serve_frame services ~node ~service:"wsdl-query" ~read:read_description_query
    (fun ~caller:_ ~headers:_ service reply ->
      match lookup r ~service with
      | Some d -> reply (fun buf -> write_service_description buf d)
      | None -> reply (Service.receiver_fault "unknown service"));
  r

let fetch services ~registry ~caller ~service k =
  Service.call_frame services ~src:caller ~dst:registry ~service:"wsdl-query" ~read:read_service_description
    (fun buf -> write_description_query buf ~service)
    (function Ok read -> k read | Error e -> k (Error (Service.error_to_string e)))
