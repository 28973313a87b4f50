module Xml = Dacs_xml.Xml
module Cursor = Xml.Cursor

type envelope = {
  headers : Xml.t list;
  body : Xml.t;
}

let write ?(headers = []) buf body =
  Buffer.add_string buf "<soap:Envelope xmlns:soap=\"http://www.w3.org/2003/05/soap-envelope\">";
  if headers <> [] then begin
    Buffer.add_string buf "<soap:Header>";
    List.iter (Xml.print buf) headers;
    Buffer.add_string buf "</soap:Header>"
  end;
  Buffer.add_string buf "<soap:Body>";
  body buf;
  Buffer.add_string buf "</soap:Body></soap:Envelope>"

let to_string e =
  let buf = Buffer.create 512 in
  write ~headers:e.headers buf (fun buf -> Xml.print buf e.body);
  Buffer.contents buf

let envelope ?(headers = []) body = Xml.of_string (to_string { headers; body })

let skip_attrs c tag =
  while Cursor.next_attr c tag do
    ()
  done

(* The envelope's shape as a tree reading sees it: the first Header and
   the first Body child count, wherever they sit; text and any other
   element around them are ignored.  Each child is entered once and told
   apart by its name in place; an ignored one is read through to its end
   (its children whole), which checks what {!Cursor.subtree} would. *)
let read_envelope c body =
  let env = Cursor.enter c in
  if not (Cursor.has_local_name c env "Envelope") then Cursor.fail c "expected a SOAP Envelope";
  skip_attrs c env;
  let headers = ref None and result = ref None in
  while Cursor.next_child c env do
    let child = Cursor.enter c in
    skip_attrs c child;
    if Option.is_none !headers && Cursor.has_local_name c child "Header" then begin
      let acc = ref [] in
      while Cursor.next_child c child do
        acc := Cursor.subtree c :: !acc
      done;
      headers := Some (List.rev !acc)
    end
    else if Option.is_none !result && Cursor.has_local_name c child "Body" then begin
      if not (Cursor.next_child c child) then Cursor.fail c "SOAP Body is empty";
      result := Some (body c);
      if Cursor.next_child c child then Cursor.fail c "SOAP Body must contain a single element"
    end
    else
      while Cursor.next_child c child do
        ignore (Cursor.subtree c)
      done;
    Cursor.close c child
  done;
  Cursor.close c env;
  Cursor.finish c;
  match !result with
  | None -> Cursor.fail c "SOAP Envelope has no Body"
  | Some v -> (Option.value !headers ~default:[], v)

let read src off len body =
  match Cursor.of_slice src off len with
  | c -> Cursor.read c (fun c -> read_envelope c body)
  | exception Xml.Parse_error { message; _ } -> Error message

let parse s =
  Result.map (fun (headers, body) -> { headers; body }) (read s 0 (String.length s) Cursor.subtree)

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
