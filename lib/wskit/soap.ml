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

let envelope body = Xml.of_string (to_string { headers = []; body })

let skip_attrs c tag =
  while Cursor.next_attr c tag do
    ()
  done

(* One child of the Envelope other than its first Body, entered and past
   its attributes: the first Header gives the headers (as trees), and any
   other element is read through to its end, its children whole — which
   checks what {!Cursor.subtree} would.  [headers] is [None] until a
   Header is read. *)
let other_child c child headers =
  let headers =
    if Option.is_none headers && Cursor.has_local_name c child "Header" then begin
      let acc = ref [] in
      while Cursor.next_child c child do
        acc := Cursor.subtree c :: !acc
      done;
      Some (List.rev !acc)
    end
    else begin
      while Cursor.next_child c child do
        ignore (Cursor.subtree c)
      done;
      headers
    end
  in
  Cursor.close c child;
  headers

(* The envelope's shape as a tree reading sees it: the first Header and
   the first Body child count, wherever they sit; text and any other
   element around them are ignored.  Each child is entered once and told
   apart by its name in place.  [before_body] reads the children up to
   the first Body, and [after_body] the rest with the body's value in
   hand, so the value needs no option around it. *)
let rec after_body c env headers v =
  if Cursor.next_child c env then begin
    let child = Cursor.enter c in
    skip_attrs c child;
    after_body c env (other_child c child headers) v
  end
  else begin
    Cursor.close c env;
    Cursor.finish c;
    (Option.value headers ~default:[], v)
  end

let rec before_body c env body headers =
  if Cursor.next_child c env then begin
    let child = Cursor.enter c in
    skip_attrs c child;
    if Cursor.has_local_name c child "Body" then begin
      if not (Cursor.next_child c child) then Cursor.fail c "SOAP Body is empty";
      let v = body c in
      if Cursor.next_child c child then Cursor.fail c "SOAP Body must contain a single element";
      Cursor.close c child;
      after_body c env headers v
    end
    else before_body c env body (other_child c child headers)
  end
  else begin
    Cursor.close c env;
    Cursor.finish c;
    Cursor.fail c "SOAP Envelope has no Body"
  end

(* No closure around the reading: a read without headers allocates the
   cursor, the body's value, and the pair and [Ok] it is returned in. *)
let read src off len body =
  match
    let c = Cursor.of_slice src off len in
    let env = Cursor.enter c in
    if not (Cursor.has_local_name c env "Envelope") then Cursor.fail c "expected a SOAP Envelope";
    skip_attrs c env;
    before_body c env body None
  with
  | v -> Ok v
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
