module Xml = Dacs_xml.Xml
module Value = Dacs_policy.Value
module Context = Dacs_policy.Context

let ( let* ) = Result.bind

let attr_or_error node name =
  match Xml.attr node name with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "<%s> is missing attribute %s" (Xml.tag node) name)

let expect_tag node name =
  if Xml.has_local_name (Xml.tag node) name then Ok ()
  else Error (Printf.sprintf "expected <%s>, got <%s>" name (Xml.tag node))

(* Shared encoding of attribute (name, value) lists. *)
let attr_elements attrs =
  List.map
    (fun (name, v) ->
      Xml.element "Attribute"
        ~attrs:[ ("Name", name); ("DataType", Value.type_name (Value.type_of v)) ]
        ~children:[ Xml.text (Value.to_string v) ])
    attrs

let parse_attr_elements nodes =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | node :: rest ->
      let* name = attr_or_error node "Name" in
      let* dt_name = attr_or_error node "DataType" in
      (match Value.data_type_of_name dt_name with
      | None -> Error (Printf.sprintf "unknown data type %s" dt_name)
      | Some dt ->
        let* v = Value.of_string dt (Xml.text_content node) in
        go ((name, v) :: acc) rest)
  in
  go [] nodes

(* --- access requests --------------------------------------------------- *)

let access_request ~subject ~action =
  Xml.element "AccessRequest" ~attrs:[ ("Action", action) ] ~children:(attr_elements subject)

let parse_access_request node =
  let* () = expect_tag node "AccessRequest" in
  let* action = attr_or_error node "Action" in
  let* subject = parse_attr_elements (Xml.find_children node "Attribute") in
  Ok (subject, action)

(* --- hot frames: one writer and one cursor reader each ------------------- *)

(* The per-decision frames are written straight into the outgoing frame
   and read in place from the one that arrived; their tree forms below
   are adapters over the same writer and reader. *)

module Cursor = Xml.Cursor

let skip_attrs c tag =
  while Cursor.next_attr c tag do
    ()
  done

let enter_named c name =
  let tag = Cursor.enter c in
  if not (Cursor.has_local_name c tag name) then
    Cursor.fail c (Printf.sprintf "expected <%s>, got <%s>" name (Cursor.tag_name c tag));
  tag

(* The element's single child, read by [read]. *)
let only_child c tag ~missing read =
  if not (Cursor.next_child c tag) then Cursor.fail c missing;
  let v = read c in
  if Cursor.next_child c tag then
    Cursor.fail c (Printf.sprintf "<%s> must hold a single element" (Cursor.tag_name c tag));
  Cursor.close c tag;
  v

(* Every remaining child of the element, each read by [read], then its
   end. *)
let children c tag read =
  let items = ref [] in
  while Cursor.next_child c tag do
    items := read c :: !items
  done;
  Cursor.close c tag;
  List.rev !items

let required c tag name = function
  | Some v -> v
  | None -> Cursor.fail c (Printf.sprintf "<%s> is missing attribute %s" (Cursor.tag_name c tag) name)

let parsed c what parse s = match parse s with Some v -> v | None -> Cursor.fail c (what ^ ": " ^ s)

let add_attr buf name value =
  Buffer.add_char buf ' ';
  Buffer.add_string buf name;
  Buffer.add_string buf "=\"";
  Xml.add_escaped buf value;
  Buffer.add_char buf '"'

let total read c = Cursor.read c read

(* The tree forms: a tree is printed back to bytes and read by the one
   reader; a frame is written by the one writer and parsed. *)
let of_tree read node = Cursor.parse (Xml.to_string node) read

let to_tree write =
  let buf = Buffer.create 256 in
  write buf;
  Xml.of_string (Buffer.contents buf)

let write_authz_query buf ctx =
  Buffer.add_string buf "<AuthzQuery>";
  Context.write buf ctx;
  Buffer.add_string buf "</AuthzQuery>"

let authz_query_in c =
  let tag = enter_named c "AuthzQuery" in
  skip_attrs c tag;
  only_child c tag ~missing:"AuthzQuery has no Request" Context.read

let read_authz_query = total authz_query_in
let authz_query ctx = to_tree (fun buf -> write_authz_query buf ctx)
let parse_authz_query = of_tree authz_query_in

let write_authz_response ?(epoch = 0) buf result =
  (* The deciding PDP's compilation epoch rides the response as an
     attribute (provenance); 0 — unknown — is the default and is
     omitted. *)
  Buffer.add_string buf "<AuthzResponse";
  if epoch > 0 then add_attr buf "Epoch" (string_of_int epoch);
  Buffer.add_char buf '>';
  Dacs_policy.Xacml_xml.write_result buf result;
  Buffer.add_string buf "</AuthzResponse>"

(* The decision and the epoch it carries; an absent or malformed epoch
   reads as 0 (unknown), so a pre-epoch peer is still understood. *)
let authz_response_in c =
  let tag = enter_named c "AuthzResponse" in
  let epoch = ref 0 in
  while Cursor.next_attr c tag do
    if Cursor.attr_is c "Epoch" then
      epoch := match int_of_string_opt (Cursor.value c) with Some e when e > 0 -> e | Some _ | None -> 0
  done;
  let result = only_child c tag ~missing:"AuthzResponse has no Response" Dacs_policy.Xacml_xml.read_result in
  (result, !epoch)

let read_authz_response = total authz_response_in
let authz_response ?epoch result = to_tree (fun buf -> write_authz_response ?epoch buf result)
let parse_authz_response node = Result.map fst (of_tree authz_response_in node)

let write_signed_authz_response ?epoch ~key ~cert buf result =
  let signature = Dacs_crypto.Rsa.sign key (Xml.canonical_string (authz_response ?epoch result)) in
  Buffer.add_string buf "<SignedAuthzResponse>";
  write_authz_response ?epoch buf result;
  Xml.print buf (Dacs_crypto.Cert.to_xml cert);
  Buffer.add_string buf "<SignatureValue>";
  Xml.add_escaped buf (Dacs_crypto.Encoding.base64_encode signature);
  Buffer.add_string buf "</SignatureValue></SignedAuthzResponse>"

let signed_authz_response ?epoch ~key ~cert result =
  to_tree (fun buf -> write_signed_authz_response ?epoch ~key ~cert buf result)

let trusted_cert ~trust ~now cert =
  let module Cert = Dacs_crypto.Cert in
  if Cert.Trust_store.mem trust cert then Cert.valid_at cert now
  else begin
    match
      List.find_opt
        (fun r -> r.Cert.subject = cert.Cert.issuer)
        (Cert.Trust_store.roots trust)
    with
    | None -> false
    | Some root -> Cert.Trust_store.verify_chain trust ~now [ cert; root ] = Ok ()
  end

(* The decision, its epoch and the signer of a signed response. *)
let verify_signed ~trust ~now node =
  let module Cert = Dacs_crypto.Cert in
  let* () = expect_tag node "SignedAuthzResponse" in
  match
    ( Xml.find_child node "AuthzResponse",
      Option.bind (Xml.find_child node "Certificate") Cert.of_xml,
      Xml.find_child node "SignatureValue" )
  with
  | Some response, Some cert, Some sig_node ->
    let signature =
      try Some (Dacs_crypto.Encoding.base64_decode (Xml.text_content sig_node))
      with Invalid_argument _ -> None
    in
    (match signature with
    | None -> Error "signature is not valid base64"
    | Some signature ->
      if not (trusted_cert ~trust ~now cert) then
        Error (Printf.sprintf "decision signer %s is not trusted" cert.Cert.subject)
      else if
        not
          (Dacs_crypto.Rsa.verify cert.Cert.public_key (Xml.canonical_string response) ~signature)
      then Error "decision signature does not verify"
      else
        let* result, epoch = of_tree authz_response_in response in
        Ok (result, epoch, cert))
  | _ -> Error "SignedAuthzResponse lacks response, certificate or signature"

let verify_signed_authz_response ~trust ~now node =
  Result.map (fun (result, _, cert) -> (result, cert)) (verify_signed ~trust ~now node)

let read_authz_answer ?trust ~now c =
  match trust with
  | None -> read_authz_response c
  | Some trust ->
    let* node = total Cursor.subtree c in
    Result.map (fun (result, epoch, _) -> (result, epoch)) (verify_signed ~trust ~now node)

(* --- attribute query ------------------------------------------------------- *)

let write_attribute_query buf ~category ~attribute_id ~subject =
  Buffer.add_string buf "<AttributeQuery";
  add_attr buf "Category" (Context.category_name category);
  add_attr buf "AttributeId" attribute_id;
  add_attr buf "Subject" subject;
  Buffer.add_string buf "/>"

let attribute_query_in c =
  let tag = enter_named c "AttributeQuery" in
  let category = ref None and attribute_id = ref None and subject = ref None in
  while Cursor.next_attr c tag do
    if Cursor.attr_is c "Category" then category := Some (Cursor.value c)
    else if Cursor.attr_is c "AttributeId" then attribute_id := Some (Cursor.value c)
    else if Cursor.attr_is c "Subject" then subject := Some (Cursor.value c)
  done;
  Cursor.close c tag;
  let category_s = required c tag "Category" !category in
  let attribute_id = required c tag "AttributeId" !attribute_id in
  let subject = required c tag "Subject" !subject in
  match Context.category_of_name category_s with
  | None -> Cursor.fail c (Printf.sprintf "unknown category %s" category_s)
  | Some category -> (category, attribute_id, subject)

let read_attribute_query = total attribute_query_in

let write_attribute_result buf bag =
  match bag with
  | [] -> Buffer.add_string buf "<AttributeResult/>"
  | bag ->
    Buffer.add_string buf "<AttributeResult>";
    List.iter
      (fun v ->
        Buffer.add_string buf "<Attribute Name=\"value\" DataType=\"";
        Buffer.add_string buf (Value.type_name (Value.type_of v));
        Buffer.add_string buf "\">";
        Xml.add_escaped buf (Value.to_string v);
        Buffer.add_string buf "</Attribute>")
      bag;
    Buffer.add_string buf "</AttributeResult>"

let bag_value_in c =
  let tag = enter_named c "Attribute" in
  let name = ref false and data_type = ref None in
  while Cursor.next_attr c tag do
    if Cursor.attr_is c "Name" then name := true
    else if Cursor.attr_is c "DataType" then data_type := Some (Cursor.value c)
  done;
  let text = Cursor.text c tag in
  Cursor.close c tag;
  if not !name then Cursor.fail c "<Attribute> is missing attribute Name";
  let dt_name = required c tag "DataType" !data_type in
  match Value.data_type_of_name dt_name with
  | None -> Cursor.fail c (Printf.sprintf "unknown data type %s" dt_name)
  | Some dt -> ( match Value.of_string dt text with Ok v -> v | Error e -> Cursor.fail c e)

let attribute_result_in c =
  let tag = enter_named c "AttributeResult" in
  skip_attrs c tag;
  children c tag bag_value_in

let read_attribute_result = total attribute_result_in

let attribute_subscribe () = Xml.element "AttributeSubscribe"

let parse_attribute_subscribe node = expect_tag node "AttributeSubscribe"

let attribute_invalidate ~subject ~attribute_id =
  Xml.element "AttributeInvalidate" ~attrs:[ ("Subject", subject); ("AttributeId", attribute_id) ]

let parse_attribute_invalidate node =
  let* () = expect_tag node "AttributeInvalidate" in
  let* subject = attr_or_error node "Subject" in
  let* attribute_id = attr_or_error node "AttributeId" in
  Ok (subject, attribute_id)

(* --- shared decision cache (PEP <-> L2, L2 <-> L2) ------------------------- *)

let write_cache_lookup buf ~key =
  Buffer.add_string buf "<CacheLookup";
  add_attr buf "Key" key;
  Buffer.add_string buf "/>"

let cache_lookup_in c =
  let tag = enter_named c "CacheLookup" in
  let key = ref None in
  while Cursor.next_attr c tag do
    if Cursor.attr_is c "Key" then key := Some (Cursor.value c)
  done;
  Cursor.close c tag;
  required c tag "Key" !key

let read_cache_lookup = total cache_lookup_in

let write_cache_answer buf = function
  | None -> Buffer.add_string buf "<CacheMiss/>"
  | Some r ->
    Buffer.add_string buf "<CacheHit>";
    Dacs_policy.Xacml_xml.write_result buf r;
    Buffer.add_string buf "</CacheHit>"

let cache_answer_in c =
  let tag = Cursor.enter c in
  skip_attrs c tag;
  if Cursor.has_local_name c tag "CacheMiss" then begin
    Cursor.close c tag;
    None
  end
  else if Cursor.has_local_name c tag "CacheHit" then
    Some (only_child c tag ~missing:"CacheHit has no Response" Dacs_policy.Xacml_xml.read_result)
  else Cursor.fail c (Printf.sprintf "unexpected cache answer <%s>" (Cursor.tag_name c tag))

let read_cache_answer = total cache_answer_in

let write_cache_put ~sent_at buf ~key result =
  Buffer.add_string buf "<CachePut";
  add_attr buf "Key" key;
  add_attr buf "SentAt" (Printf.sprintf "%.6f" sent_at);
  Buffer.add_char buf '>';
  Dacs_policy.Xacml_xml.write_result buf result;
  Buffer.add_string buf "</CachePut>"

let cache_put_in c =
  let tag = enter_named c "CachePut" in
  let key = ref None and sent_at = ref None in
  while Cursor.next_attr c tag do
    if Cursor.attr_is c "Key" then key := Some (Cursor.value c)
    else if Cursor.attr_is c "SentAt" then
      sent_at := Some (parsed c "SentAt" float_of_string_opt (Cursor.value c))
  done;
  let key = required c tag "Key" !key in
  let sent_at = required c tag "SentAt" !sent_at in
  let result = only_child c tag ~missing:"CachePut has no Response" Dacs_policy.Xacml_xml.read_result in
  (key, result, sent_at)

let read_cache_put = total cache_put_in

let cache_invalidate ~epoch key =
  Xml.element "CacheInvalidate"
    ~attrs:
      (("Epoch", string_of_int epoch)
      :: (match key with None -> [] | Some k -> [ ("Key", k) ]))

let parse_cache_invalidate node =
  let* () = expect_tag node "CacheInvalidate" in
  let* epoch_s = attr_or_error node "Epoch" in
  match int_of_string_opt epoch_s with
  | None -> Error "Epoch is not an integer"
  | Some epoch -> Ok (epoch, Xml.attr node "Key")

let cache_sync ~known_epoch =
  Xml.element "CacheSync" ~attrs:[ ("KnownEpoch", string_of_int known_epoch) ]

let parse_cache_sync node =
  let* () = expect_tag node "CacheSync" in
  let* s = attr_or_error node "KnownEpoch" in
  match int_of_string_opt s with
  | Some e -> Ok e
  | None -> Error "KnownEpoch is not an integer"

(* Change-impact regions travel as structured frames so an L2 can apply
   a targeted purge pushed by its parent without seeing the policies the
   delta came from. *)

let pin_to_xml (p : Dacs_policy.Delta.pin) =
  Xml.element "Pin"
    ~attrs:
      [
        ("Category", Context.category_name p.Dacs_policy.Delta.pin_category);
        ("Attribute", p.Dacs_policy.Delta.pin_attribute);
      ]
    ~children:
      (List.map
         (fun v -> Xml.element "V" ~attrs:[ ("Value", v) ])
         p.Dacs_policy.Delta.pin_values
      @ List.map
          (fun (c, a) ->
            Xml.element "Guard"
              ~attrs:[ ("Category", Context.category_name c); ("Attribute", a) ])
          p.Dacs_policy.Delta.pin_guards)

let cache_region ~epoch region =
  let kind, children =
    match region with
    | Dacs_policy.Delta.Empty -> ("empty", [])
    | Dacs_policy.Delta.Unbounded -> ("unbounded", [])
    | Dacs_policy.Delta.Zones zs ->
      ( "zones",
        List.map (fun z -> Xml.element "Zone" ~children:(List.map pin_to_xml z)) zs )
  in
  Xml.element "CacheRegion"
    ~attrs:[ ("Epoch", string_of_int epoch); ("Kind", kind) ]
    ~children

let parse_category node name =
  let* s = attr_or_error node name in
  match Context.category_of_name s with
  | None -> Error (Printf.sprintf "unknown category %s" s)
  | Some c -> Ok c

let parse_pin node =
  let* () = expect_tag node "Pin" in
  let* category = parse_category node "Category" in
  let* attribute = attr_or_error node "Attribute" in
  let* values =
    List.fold_left
      (fun acc v ->
        let* acc = acc in
        let* value = attr_or_error v "Value" in
        Ok (value :: acc))
      (Ok [])
      (Xml.find_children node "V")
  in
  let* guards =
    List.fold_left
      (fun acc g ->
        let* acc = acc in
        let* c = parse_category g "Category" in
        let* a = attr_or_error g "Attribute" in
        Ok ((c, a) :: acc))
      (Ok [])
      (Xml.find_children node "Guard")
  in
  Ok
    {
      Dacs_policy.Delta.pin_category = category;
      pin_attribute = attribute;
      pin_values = List.rev values;
      pin_guards = List.rev guards;
    }

let parse_cache_region node =
  let* () = expect_tag node "CacheRegion" in
  let* epoch_s = attr_or_error node "Epoch" in
  let* epoch =
    match int_of_string_opt epoch_s with
    | None -> Error "Epoch is not an integer"
    | Some e -> Ok e
  in
  let* kind = attr_or_error node "Kind" in
  match kind with
  | "empty" -> Ok (epoch, Dacs_policy.Delta.Empty)
  | "unbounded" -> Ok (epoch, Dacs_policy.Delta.Unbounded)
  | "zones" ->
    let* zones =
      List.fold_left
        (fun acc z ->
          let* acc = acc in
          let* pins =
            List.fold_left
              (fun acc p ->
                let* acc = acc in
                let* pin = parse_pin p in
                Ok (pin :: acc))
              (Ok [])
              (Xml.find_children z "Pin")
          in
          Ok (List.rev pins :: acc))
        (Ok [])
        (Xml.find_children node "Zone")
    in
    Ok (epoch, Dacs_policy.Delta.Zones (List.rev zones))
  | other -> Error (Printf.sprintf "unknown region kind %s" other)

let cache_epoch ~epoch = Xml.element "CacheEpoch" ~attrs:[ ("Epoch", string_of_int epoch) ]

let parse_cache_epoch node =
  let* () = expect_tag node "CacheEpoch" in
  let* s = attr_or_error node "Epoch" in
  match int_of_string_opt s with
  | Some e -> Ok e
  | None -> Error "Epoch is not an integer"

(* --- policy distribution ------------------------------------------------------ *)

let policy_query ~scope ~known_version =
  Xml.element "PolicyQuery" ~attrs:[ ("Scope", scope); ("KnownVersion", string_of_int known_version) ]

let parse_policy_query node =
  let* () = expect_tag node "PolicyQuery" in
  let* scope = attr_or_error node "Scope" in
  let* version_s = attr_or_error node "KnownVersion" in
  match int_of_string_opt version_s with
  | Some v -> Ok (scope, v)
  | None -> Error "KnownVersion is not an integer"

let policy_response ~version child =
  Xml.element "PolicyResponse"
    ~attrs:[ ("Version", string_of_int version) ]
    ~children:(match child with None -> [] | Some c -> [ Dacs_policy.Xacml_xml.child_to_xml c ])

let parse_policy_response node =
  let* () = expect_tag node "PolicyResponse" in
  let* version_s = attr_or_error node "Version" in
  match int_of_string_opt version_s with
  | None -> Error "Version is not an integer"
  | Some version -> (
    match List.filter Xml.is_element (Xml.children node) with
    | [] -> Ok (version, None)
    | [ c ] ->
      let* child = Dacs_policy.Xacml_xml.child_of_xml c in
      Ok (version, Some child)
    | _ -> Error "PolicyResponse must carry at most one policy")

let policy_update ~version child =
  Xml.element "PolicyUpdate"
    ~attrs:[ ("Version", string_of_int version) ]
    ~children:[ Dacs_policy.Xacml_xml.child_to_xml child ]

let parse_policy_update node =
  let* () = expect_tag node "PolicyUpdate" in
  let* version_s = attr_or_error node "Version" in
  match int_of_string_opt version_s with
  | None -> Error "Version is not an integer"
  | Some version -> (
    match List.filter Xml.is_element (Xml.children node) with
    | [ c ] ->
      let* child = Dacs_policy.Xacml_xml.child_of_xml c in
      Ok (version, child)
    | _ -> Error "PolicyUpdate must carry exactly one policy")

(* --- offline event logs ------------------------------------------------ *)

type log_kind =
  | Grant of { subject : string; attr : string; value : string }
  | Revoke of { subject : string; attr : string }
  | Publish of { policy : string }
  | Decide of { key : string; ctx : string; decision : string }

type log_event = {
  author : string;
  seq : int;
  at : float;
  epoch : int;
  frontier : (string * int) list;
  kind : log_kind;
  digest : string;
  tag : string;
}

(* Timestamps must round-trip exactly: replicas sort the merged log on
   the [at] each one holds, so a lossy rendering would let two replicas
   disagree on the total order.  %.17g is lossless for doubles.  The C
   formatter behind [Printf]'s %g, called without the format
   interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let float_attr f = format_float "%.17g" f

(* Entries sorted by author, whatever order the frontier came in. *)
let write_frontier buf frontier =
  match List.sort (fun (a, _) (b, _) -> String.compare a b) frontier with
  | [] -> Buffer.add_string buf "<Frontier/>"
  | entries ->
    Buffer.add_string buf "<Frontier>";
    List.iter
      (fun (author, seq) ->
        Buffer.add_string buf "<Entry";
        add_attr buf "Author" author;
        add_attr buf "Seq" (string_of_int seq);
        Buffer.add_string buf "/>")
      entries;
    Buffer.add_string buf "</Frontier>"

let write_field buf name value =
  Buffer.add_string buf "<Field";
  add_attr buf "Name" name;
  Buffer.add_char buf '>';
  Xml.add_escaped buf value;
  Buffer.add_string buf "</Field>"

let write_log_event buf ~signed ev =
  Buffer.add_string buf "<LogEvent";
  add_attr buf "Author" ev.author;
  add_attr buf "Seq" (string_of_int ev.seq);
  add_attr buf "At" (float_attr ev.at);
  add_attr buf "Epoch" (string_of_int ev.epoch);
  add_attr buf "Kind"
    (match ev.kind with
    | Grant _ -> "grant"
    | Revoke _ -> "revoke"
    | Publish _ -> "publish"
    | Decide _ -> "decide");
  if signed then begin
    add_attr buf "Digest" (Dacs_crypto.Encoding.hex_encode ev.digest);
    add_attr buf "Tag" (Dacs_crypto.Encoding.hex_encode ev.tag)
  end;
  Buffer.add_char buf '>';
  write_frontier buf ev.frontier;
  (match ev.kind with
  | Grant { subject; attr; value } ->
    write_field buf "subject" subject;
    write_field buf "attr" attr;
    write_field buf "value" value
  | Revoke { subject; attr } ->
    write_field buf "subject" subject;
    write_field buf "attr" attr
  | Publish { policy } -> write_field buf "policy" policy
  | Decide { key; ctx; decision } ->
    write_field buf "key" key;
    write_field buf "ctx" ctx;
    write_field buf "decision" decision);
  Buffer.add_string buf "</LogEvent>"

(* The log frames are read exactly as they are written: each attribute
   in the writer's order, and none after. *)
let attr_named c tag name =
  if not (Cursor.next_attr c tag && Cursor.attr_is c name) then
    Cursor.fail c (Printf.sprintf "<%s> expects attribute %s next" (Cursor.tag_name c tag) name);
  Cursor.value c

let end_attrs c tag =
  if Cursor.next_attr c tag then
    Cursor.fail c (Printf.sprintf "<%s> has an unexpected attribute" (Cursor.tag_name c tag))

let int_attr c tag name = parsed c name int_of_string_opt (attr_named c tag name)

let hex_attr c tag name =
  parsed c name
    (fun s -> try Some (Dacs_crypto.Encoding.hex_decode s) with Invalid_argument _ -> None)
    (attr_named c tag name)

let entry_in c =
  let tag = enter_named c "Entry" in
  let author = attr_named c tag "Author" in
  let seq = int_attr c tag "Seq" in
  end_attrs c tag;
  Cursor.close c tag;
  (author, seq)

let frontier_in c =
  let tag = enter_named c "Frontier" in
  end_attrs c tag;
  children c tag entry_in

let field_in c event name =
  if not (Cursor.next_child c event) then Cursor.fail c ("LogEvent is missing field " ^ name);
  let tag = enter_named c "Field" in
  if not (String.equal (attr_named c tag "Name") name) then Cursor.fail c ("expected LogEvent field " ^ name);
  end_attrs c tag;
  let value = Cursor.text c tag in
  Cursor.close c tag;
  value

let log_event_in c =
  let tag = enter_named c "LogEvent" in
  let author = attr_named c tag "Author" in
  let seq = int_attr c tag "Seq" in
  let at = parsed c "At" float_of_string_opt (attr_named c tag "At") in
  let epoch = int_attr c tag "Epoch" in
  let kind = attr_named c tag "Kind" in
  let digest = hex_attr c tag "Digest" in
  let mac = hex_attr c tag "Tag" in
  end_attrs c tag;
  if not (Cursor.next_child c tag) then Cursor.fail c "LogEvent has no Frontier";
  let frontier = frontier_in c in
  let field = field_in c tag in
  let kind =
    match kind with
    | "grant" ->
      let subject = field "subject" in
      let attr = field "attr" in
      Grant { subject; attr; value = field "value" }
    | "revoke" ->
      let subject = field "subject" in
      Revoke { subject; attr = field "attr" }
    | "publish" -> Publish { policy = field "policy" }
    | "decide" ->
      let key = field "key" in
      let ctx = field "ctx" in
      Decide { key; ctx; decision = field "decision" }
    | other -> Cursor.fail c ("unknown log event kind " ^ other)
  in
  if Cursor.next_child c tag then Cursor.fail c "LogEvent has an unexpected child";
  Cursor.close c tag;
  { author; seq; at; epoch; frontier; kind; digest; tag = mac }

let write_log_sync_request buf ~frontier =
  Buffer.add_string buf "<LogSyncRequest>";
  write_frontier buf frontier;
  Buffer.add_string buf "</LogSyncRequest>"

let read_log_sync_request =
  total (fun c ->
      let tag = enter_named c "LogSyncRequest" in
      end_attrs c tag;
      only_child c tag ~missing:"LogSyncRequest has no Frontier" frontier_in)

let write_log_sync_response buf ~head events =
  Buffer.add_string buf "<LogSyncResponse";
  add_attr buf "Head" (Dacs_crypto.Encoding.hex_encode head);
  match events with
  | [] -> Buffer.add_string buf "/>"
  | events ->
    Buffer.add_char buf '>';
    List.iter (write_log_event buf ~signed:true) events;
    Buffer.add_string buf "</LogSyncResponse>"

let read_log_sync_response =
  total (fun c ->
      let tag = enter_named c "LogSyncResponse" in
      let head = hex_attr c tag "Head" in
      end_attrs c tag;
      (head, children c tag log_event_in))

(* --- capabilities ----------------------------------------------------------------- *)

let capability_request ~subject ~pairs =
  Xml.element "CapabilityRequest"
    ~children:
      (attr_elements subject
      @ List.map
          (fun (resource, action) ->
            Xml.element "Want" ~attrs:[ ("Resource", resource); ("Action", action) ])
          pairs)

let parse_capability_request node =
  let* () = expect_tag node "CapabilityRequest" in
  let* subject = parse_attr_elements (Xml.find_children node "Attribute") in
  let rec wants acc = function
    | [] -> Ok (List.rev acc)
    | w :: rest ->
      let* resource = attr_or_error w "Resource" in
      let* action = attr_or_error w "Action" in
      wants ((resource, action) :: acc) rest
  in
  let* pairs = wants [] (Xml.find_children node "Want") in
  Ok (subject, pairs)

let revocation_check ~assertion_id =
  Xml.element "RevocationCheck" ~attrs:[ ("AssertionId", assertion_id) ]

let parse_revocation_check node =
  let* () = expect_tag node "RevocationCheck" in
  attr_or_error node "AssertionId"

let revocation_status ~revoked =
  Xml.element "RevocationStatus" ~attrs:[ ("Revoked", string_of_bool revoked) ]

let parse_revocation_status node =
  let* () = expect_tag node "RevocationStatus" in
  let* s = attr_or_error node "Revoked" in
  match bool_of_string_opt s with
  | Some b -> Ok b
  | None -> Error "Revoked is not a boolean"

(* --- access outcomes ------------------------------------------------------------------ *)

let access_granted ?(content = "") ?(encrypted = false) () =
  Xml.element "AccessGranted"
    ~attrs:[ ("Encrypted", string_of_bool encrypted) ]
    ~children:(if content = "" then [] else [ Xml.text content ])

let access_denied ~reason = Xml.element "AccessDenied" ~attrs:[ ("Reason", reason) ]

type access_outcome =
  | Granted of { content : string; encrypted : bool }
  | Denied of string

let parse_access_outcome node =
  match Xml.local_name (Xml.tag node) with
  | "AccessGranted" ->
    Ok
      (Granted
         {
           content = Xml.text_content node;
           encrypted = Xml.attr node "Encrypted" = Some "true";
         })
  | "AccessDenied" ->
    Ok (Denied (Option.value (Xml.attr node "Reason") ~default:""))
  | other -> Error (Printf.sprintf "unexpected access outcome <%s>" other)
