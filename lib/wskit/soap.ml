module Xml = Dacs_xml.Xml

type envelope = {
  headers : Xml.t list;
  body : Xml.t;
}

let envelope ?(headers = []) body =
  Xml.element "soap:Envelope"
    ~attrs:[ ("xmlns:soap", "http://www.w3.org/2003/05/soap-envelope") ]
    ~children:
      ((if headers = [] then [] else [ Xml.element "soap:Header" ~children:headers ])
      @ [ Xml.element "soap:Body" ~children:[ body ] ])

let of_xml node =
  if not (Xml.has_local_name (Xml.tag node) "Envelope") then Error "expected a SOAP Envelope"
  else begin
    let headers =
      match Xml.find_child node "Header" with
      | None -> []
      | Some h -> List.filter Xml.is_element (Xml.children h)
    in
    match Xml.find_child node "Body" with
    | None -> Error "SOAP Envelope has no Body"
    | Some b -> (
      match List.filter Xml.is_element (Xml.children b) with
      | [ body ] -> Ok { headers; body }
      | [] -> Error "SOAP Body is empty"
      | _ -> Error "SOAP Body must contain a single element")
  end

let parse s =
  match Xml.of_string_opt s with
  | None -> Error "malformed XML"
  | Some node -> of_xml node

let to_string e = Xml.to_string (envelope ~headers:e.headers e.body)

type fault = { code : string; reason : string }

let fault_body f =
  Xml.element "soap:Fault"
    ~children:
      [
        Xml.element "Code" ~children:[ Xml.text f.code ];
        Xml.element "Reason" ~children:[ Xml.text f.reason ];
      ]

let fault_of_body node =
  if not (Xml.has_local_name (Xml.tag node) "Fault") then None
  else
    Some
      {
        code = Option.value (Option.map Xml.text_content (Xml.find_child node "Code")) ~default:"";
        reason = Option.value (Option.map Xml.text_content (Xml.find_child node "Reason")) ~default:"";
      }
