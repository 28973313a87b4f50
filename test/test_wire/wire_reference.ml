(* The tree codecs of every Wire frame, as they stood before the frame
   was written and read in place: the per-decision frames, the tree printers of the
   offline log-event frames, and the tree builders and readers of every
   other frame.  Every body below is the former library
   code, moved here verbatim as the oracle that [test_wire] compares the
   direct writers and cursor readers against.  Module prefixes were
   adjusted to the test's scope, and the log-event printers take the
   typed event, mapping each kind to the kind name and field list the
   former record carried ([kind_fields]), and the readings the tree
   services made inside their handlers are lifted out as functions
   returning a [result]; nothing else changed. *)

module Xml = Dacs_xml.Xml
module Value = Dacs_policy.Value
module Decision = Dacs_policy.Decision
module Obligation = Dacs_policy.Obligation

let ( let* ) = Result.bind

(* --- Context: the Request element ---------------------------------------- *)

open struct
  let category_name = Dacs_policy.Context.category_name
  let category_of_name = Dacs_policy.Context.category_of_name
  let all_categories = Dacs_policy.Context.[ Subject; Resource; Action; Environment ]
  let attributes t category =
    List.rev
      (Dacs_policy.Context.fold (fun c id bag acc -> if c = category then (id, bag) :: acc else acc) t [])
  let empty = Dacs_policy.Context.empty
  let add = Dacs_policy.Context.add
end

let to_xml t =
  let section category =
    let attrs = attributes t category in
    Xml.element (category_name category)
      ~children:
        (List.concat_map
           (fun (id, values) ->
             List.map
               (fun v ->
                 Xml.element "Attribute"
                   ~attrs:
                     [
                       ("AttributeId", id);
                       ("DataType", Value.type_name (Value.type_of v));
                     ]
                   ~children:[ Xml.text (Value.to_string v) ])
               values)
           attrs)
  in
  Xml.element "Request" ~children:(List.map section all_categories)

let child_elements node =
  List.filter_map (function Xml.Element e -> Some e | Xml.Text _ -> None) (Xml.children node)

let of_xml node =
  if Xml.tag node <> "Request" then Error "expected a Request element"
  else begin
    let result = ref empty in
    let error = ref None in
    List.iter
      (fun section ->
        match category_of_name (Xml.local_name section.Xml.tag) with
        | None -> error := Some (Printf.sprintf "unknown category element %s" section.Xml.tag)
        | Some category ->
          List.iter
            (fun attr_node ->
              let attr_node = Xml.Element attr_node in
              match (Xml.attr attr_node "AttributeId", Xml.attr attr_node "DataType") with
              | Some id, Some dt_name -> (
                match Value.data_type_of_name dt_name with
                | None -> error := Some (Printf.sprintf "unknown data type %s" dt_name)
                | Some dt -> (
                  match Value.of_string dt (Xml.text_content attr_node) with
                  | Ok v -> result := add !result category id v
                  | Error e -> error := Some e))
              | _ -> error := Some "Attribute needs AttributeId and DataType")
            (List.filter (fun e -> Xml.local_name e.Xml.tag = "Attribute") (child_elements (Xml.Element section))))
      (child_elements node);
    match !error with Some e -> Error e | None -> Ok !result
  end

(* --- Xacml_xml: the Response element ------------------------------------- *)

let rec collect_results f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = collect_results f rest in
    Ok (y :: ys)

let attr_or_error node name =
  match Xml.attr node name with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "<%s> is missing attribute %s" (Xml.tag node) name)

let value_of ~data_type ~text =
  match Value.data_type_of_name data_type with
  | None -> Error (Printf.sprintf "unknown data type %s" data_type)
  | Some dt -> Value.of_string dt text

let effect_to_string = function Obligation.Permit -> "Permit" | Obligation.Deny -> "Deny"

let effect_of_string = function
  | "Permit" -> Ok Obligation.Permit
  | "Deny" -> Ok Obligation.Deny
  | other -> Error (Printf.sprintf "unknown effect %s" other)

let obligation_to_xml o =
  Xml.element "Obligation"
    ~attrs:[ ("ObligationId", o.Obligation.id); ("FulfillOn", effect_to_string o.Obligation.fulfill_on) ]
    ~children:
      (List.map
         (fun (k, v) ->
           Xml.element "AttributeAssignment"
             ~attrs:[ ("AttributeId", k); ("DataType", Value.type_name (Value.type_of v)) ]
             ~children:[ Xml.text (Value.to_string v) ])
         o.Obligation.parameters)

let obligation_of_xml node =
  let* id = attr_or_error node "ObligationId" in
  let* fulfill_on_s = attr_or_error node "FulfillOn" in
  let* fulfill_on = effect_of_string fulfill_on_s in
  let* parameters =
    collect_results
      (fun a ->
        let* k = attr_or_error a "AttributeId" in
        let* data_type = attr_or_error a "DataType" in
        let* v = value_of ~data_type ~text:(Xml.text_content a) in
        Ok (k, v))
      (Xml.find_children node "AttributeAssignment")
  in
  Ok { Obligation.id; fulfill_on; parameters }

let obligations_to_xml = function
  | [] -> None
  | obligations -> Some (Xml.element "Obligations" ~children:(List.map obligation_to_xml obligations))

let obligations_child node =
  match Xml.find_child node "Obligations" with
  | None -> Ok []
  | Some obs -> collect_results obligation_of_xml (Xml.find_children obs "Obligation")

let result_to_xml (r : Decision.result) =
  let status =
    match r.Decision.decision with
    | Decision.Indeterminate m ->
      [ Xml.element "Status" ~children:[ Xml.text m ] ]
    | Decision.Permit | Decision.Deny | Decision.Not_applicable -> []
  in
  Xml.element "Response"
    ~children:
      [
        Xml.element "Result"
          ~children:
            ([ Xml.element "Decision" ~children:[ Xml.text (Decision.decision_to_string r.Decision.decision) ] ]
            @ status
            @ Option.to_list (obligations_to_xml r.Decision.obligations));
      ]

let result_of_xml node =
  match Xml.find_child node "Result" with
  | None -> Error "Response has no Result"
  | Some result_node -> (
    match Xml.find_child result_node "Decision" with
    | None -> Error "Result has no Decision"
    | Some d -> (
      let* obligations = obligations_child result_node in
      match Decision.decision_of_string (Xml.text_content d) with
      | Some (Decision.Indeterminate _) ->
        let message =
          Option.value (Option.map Xml.text_content (Xml.find_child result_node "Status")) ~default:""
        in
        Ok { Decision.decision = Decision.Indeterminate message; obligations }
      | Some decision -> Ok { Decision.decision; obligations }
      | None -> Error (Printf.sprintf "unknown decision %s" (Xml.text_content d))))

(* --- Wire: the per-decision frames ---------------------------------------- *)

let context_to_xml = to_xml
let context_of_xml = of_xml

module Context = struct
  include Dacs_policy.Context

  let to_xml = context_to_xml
  let of_xml = context_of_xml
end

let reference_result_to_xml = result_to_xml
let reference_result_of_xml = result_of_xml

module Xacml_xml = struct
  include Dacs_policy.Xacml_xml

  let result_to_xml = reference_result_to_xml
  let result_of_xml = reference_result_of_xml
end

module Dacs_policy = struct
  module Xacml_xml = Xacml_xml
end

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

let authz_query ctx = Xml.element "AuthzQuery" ~children:[ Context.to_xml ctx ]

let parse_authz_query node =
  let* () = expect_tag node "AuthzQuery" in
  match Xml.find_child node "Request" with
  | None -> Error "AuthzQuery has no Request"
  | Some r -> Context.of_xml r

let authz_response ?(epoch = 0) result =
  (* The deciding PDP's compilation epoch rides the response as an
     attribute (provenance); 0 — unknown — is the default and is
     omitted. *)
  let attrs = if epoch > 0 then [ ("Epoch", string_of_int epoch) ] else [] in
  Xml.element "AuthzResponse" ~attrs ~children:[ Dacs_policy.Xacml_xml.result_to_xml result ]

let authz_response_epoch node =
  let node =
    (* Accept the signed envelope too: the epoch lives on the inner
       response, covered by the signature. *)
    if Xml.has_local_name (Xml.tag node) "SignedAuthzResponse" then
      Option.value (Xml.find_child node "AuthzResponse") ~default:node
    else node
  in
  match Option.bind (Xml.attr node "Epoch") int_of_string_opt with
  | Some e when e > 0 -> e
  | Some _ | None -> 0

let parse_authz_response node =
  let* () = expect_tag node "AuthzResponse" in
  match Xml.find_child node "Response" with
  | None -> Error "AuthzResponse has no Response"
  | Some r -> Dacs_policy.Xacml_xml.result_of_xml r

let attribute_query ~category ~attribute_id ~subject =
  Xml.element "AttributeQuery"
    ~attrs:
      [
        ("Category", Context.category_name category);
        ("AttributeId", attribute_id);
        ("Subject", subject);
      ]

let parse_attribute_query node =
  let* () = expect_tag node "AttributeQuery" in
  let* category_s = attr_or_error node "Category" in
  let* attribute_id = attr_or_error node "AttributeId" in
  let* subject = attr_or_error node "Subject" in
  match Context.category_of_name category_s with
  | None -> Error (Printf.sprintf "unknown category %s" category_s)
  | Some category -> Ok (category, attribute_id, subject)

let attribute_result bag =
  Xml.element "AttributeResult" ~children:(attr_elements (List.map (fun v -> ("value", v)) bag))

let parse_attribute_result node =
  let* () = expect_tag node "AttributeResult" in
  let* pairs = parse_attr_elements (Xml.find_children node "Attribute") in
  Ok (List.map snd pairs)

let cache_lookup ~key = Xml.element "CacheLookup" ~attrs:[ ("Key", key) ]

let parse_cache_lookup node =
  let* () = expect_tag node "CacheLookup" in
  attr_or_error node "Key"

let cache_answer result =
  match result with
  | None -> Xml.element "CacheMiss"
  | Some r -> Xml.element "CacheHit" ~children:[ Dacs_policy.Xacml_xml.result_to_xml r ]

let parse_cache_answer node =
  match Xml.local_name (Xml.tag node) with
  | "CacheMiss" -> Ok None
  | "CacheHit" -> (
    match Xml.find_child node "Response" with
    | None -> Error "CacheHit has no Response"
    | Some r ->
      let* result = Dacs_policy.Xacml_xml.result_of_xml r in
      Ok (Some result))
  | other -> Error (Printf.sprintf "unexpected cache answer <%s>" other)

let cache_put ?sent_at ~key result =
  Xml.element "CachePut"
    ~attrs:
      (("Key", key)
      :: (match sent_at with None -> [] | Some t -> [ ("SentAt", Printf.sprintf "%.6f" t) ]))
    ~children:[ Dacs_policy.Xacml_xml.result_to_xml result ]

let parse_cache_put node =
  let* () = expect_tag node "CachePut" in
  let* key = attr_or_error node "Key" in
  let sent_at = Option.bind (Xml.attr node "SentAt") float_of_string_opt in
  match Xml.find_child node "Response" with
  | None -> Error "CachePut has no Response"
  | Some r ->
    let* result = Dacs_policy.Xacml_xml.result_of_xml r in
    Ok (key, result, sent_at)

(* The cache-summary frames came after the rewrite and never had a tree
   codec: these tree forms are written for the oracle, the printer the
   writer must match and a reader at least as liberal as the cursor's. *)

let cache_subscribe () = Xml.element "CacheSubscribe"
let parse_cache_subscribe node = expect_tag node "CacheSubscribe"

let cache_digest ~capacity fingerprints =
  Xml.element "CacheDigest"
    ~attrs:[ ("Capacity", string_of_int capacity) ]
    ~children:
      (match fingerprints with
      | [] -> []
      | fps -> [ Xml.text (String.concat "" (List.map (Printf.sprintf "%08x") fps)) ])

let parse_cache_digest node =
  let* () = expect_tag node "CacheDigest" in
  let* capacity = attr_or_error node "Capacity" in
  let* capacity =
    match int_of_string_opt capacity with
    | Some n when n >= 0 -> Ok n
    | _ -> Error "CacheDigest has no count Capacity"
  in
  let text = Xml.text_content node in
  if String.length text mod 8 <> 0 then Error "CacheDigest text is not whole fingerprints"
  else
    let rec chunks i acc =
      if i < 0 then Ok (capacity, acc)
      else
        match int_of_string_opt ("0x" ^ String.sub text i 8) with
        | Some fp -> chunks (i - 8) (fp :: acc)
        | None -> Error "CacheDigest fingerprint is not hex"
    in
    chunks (String.length text - 8) []

(* --- Wire: the offline log-event frames ------------------------------------- *)

(* The tree printers the log-event frames had before they were written
   in place; [to_string] of these is what the chain hashed. *)

module Wire = Dacs_core.Wire

(* Each kind's name and (name, value) fields, in the order the frame
   writes them. *)
let kind_fields = function
  | Wire.Grant { subject; attr; value } -> ("grant", [ ("subject", subject); ("attr", attr); ("value", value) ])
  | Wire.Revoke { subject; attr } -> ("revoke", [ ("subject", subject); ("attr", attr) ])
  | Wire.Publish { policy } -> ("publish", [ ("policy", policy) ])
  | Wire.Decide { key; ctx; decision } -> ("decide", [ ("key", key); ("ctx", ctx); ("decision", decision) ])

let float_attr f = Printf.sprintf "%.17g" f

let frontier_element frontier =
  Xml.element "Frontier"
    ~children:
      (List.map
         (fun (author, seq) ->
           Xml.element "Entry" ~attrs:[ ("Author", author); ("Seq", string_of_int seq) ])
         (List.sort (fun (a, _) (b, _) -> String.compare a b) frontier))

let log_event (ev : Wire.log_event) =
  let kind, fields = kind_fields ev.kind in
  Xml.element "LogEvent"
    ~attrs:
      [
        ("Author", ev.author);
        ("Seq", string_of_int ev.seq);
        ("At", float_attr ev.at);
        ("Epoch", string_of_int ev.epoch);
        ("Kind", kind);
        ("Digest", Dacs_crypto.Encoding.hex_encode ev.digest);
        ("Tag", Dacs_crypto.Encoding.hex_encode ev.tag);
      ]
    ~children:
      (frontier_element ev.frontier
      :: List.map
           (fun (name, value) ->
             Xml.element "Field" ~attrs:[ ("Name", name) ] ~children:[ Xml.text value ])
           fields)

let log_sync_request ~frontier =
  Xml.element "LogSyncRequest" ~children:[ frontier_element frontier ]

let log_sync_response events = Xml.element "LogSyncResponse" ~children:(List.map log_event events)

(* --- Wire: the signed authorisation response over its canonical form -------- *)

(* The signer and verifier the signed response had while its signature
   covered the canonical response tree: the signer built the frame's tree
   (the printed tree is the frame it wrote), and the verifier read the
   whole frame as a tree, checked the signature over the response's
   canonical form, then read the response by printing it and parsing it
   with the cursor reader ([of_tree authz_response_in] in the library). *)

module Cert = Dacs_crypto.Cert

let signed_authz_response ?epoch ~key ~cert result =
  let response = authz_response ?epoch result in
  let signature = Dacs_crypto.Rsa.sign key (Xml.canonical_string response) in
  Xml.element "SignedAuthzResponse"
    ~children:
      [
        response;
        Cert.to_xml cert;
        Xml.element "SignatureValue" ~children:[ Xml.text (Dacs_crypto.Encoding.base64_encode signature) ];
      ]

let trusted_cert ~trust ~now cert =
  if Cert.Trust_store.mem trust cert then cert.Cert.not_before <= now && now <= cert.Cert.not_after
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
        let* result, epoch =
          Xml.Cursor.parse (Xml.to_string response) (fun c ->
              match Wire.Services.authz_query.reply c with Ok v -> v | Error e -> Xml.Cursor.fail c e)
        in
        Ok (result, epoch, cert))
  | _ -> Error "SignedAuthzResponse lacks response, certificate or signature"

(* --- Wire: the frames that left their tree codecs ------------------------------ *)

(* Every other frame's former tree builder and reader.  The
   acknowledgements were built as trees by the services that answered
   with them and had no reader: their callers ignored the body. *)

let access_request ~subject ~action =
  Xml.element "AccessRequest" ~attrs:[ ("Action", action) ] ~children:(attr_elements subject)

let parse_access_request node =
  let* () = expect_tag node "AccessRequest" in
  let* action = attr_or_error node "Action" in
  let* subject = parse_attr_elements (Xml.find_children node "Attribute") in
  Ok (subject, action)

let attribute_subscribe () = Xml.element "AttributeSubscribe"

let parse_attribute_subscribe node = expect_tag node "AttributeSubscribe"

let attribute_invalidate ~subject ~attribute_id =
  Xml.element "AttributeInvalidate" ~attrs:[ ("Subject", subject); ("AttributeId", attribute_id) ]

let parse_attribute_invalidate node =
  let* () = expect_tag node "AttributeInvalidate" in
  let* subject = attr_or_error node "Subject" in
  let* attribute_id = attr_or_error node "AttributeId" in
  Ok (subject, attribute_id)

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

let access_granted ?(content = "") ?(encrypted = false) () =
  Xml.element "AccessGranted"
    ~attrs:[ ("Encrypted", string_of_bool encrypted) ]
    ~children:(if content = "" then [] else [ Xml.text content ])

let access_denied ~reason = Xml.element "AccessDenied" ~attrs:[ ("Reason", reason) ]

let parse_access_outcome node =
  match Xml.local_name (Xml.tag node) with
  | "AccessGranted" ->
    Ok
      (Wire.Granted
         {
           content = Xml.text_content node;
           encrypted = Xml.attr node "Encrypted" = Some "true";
         })
  | "AccessDenied" ->
    Ok (Wire.Denied (Option.value (Xml.attr node "Reason") ~default:""))
  | other -> Error (Printf.sprintf "unexpected access outcome <%s>" other)

(* --- the services that spoke trees: Discovery, Idp, Negotiation_service --- *)

(* Their bodies' former tree builders, and the readings their handlers
   and clients made of a body, lifted out of the handler as a function
   that returns what the handler went on with.  The negotiation
   handler's reading took the caller as the default subject, so its
   oracle takes one too. *)

let register_body ~kind ~node =
  Xml.element "Register" ~attrs:[ ("Kind", kind); ("Node", node) ]

let parse_register body =
  match (Xml.attr body "Kind", Xml.attr body "Node") with
  | Some kind, Some advertised -> Ok (kind, advertised)
  | _ -> Error "Register needs Kind and Node"

let register_ack = Xml.element "RegisterAck"

let discover_body ~kind = Xml.element "Discover" ~attrs:[ ("Kind", kind) ]

let parse_discover body =
  match Xml.attr body "Kind" with
  | Some kind -> Ok kind
  | None -> Error "Discover needs Kind"

let endpoints_body nodes =
  Xml.element "Endpoints"
    ~children:(List.map (fun n -> Xml.element "Endpoint" ~attrs:[ ("Node", n) ]) nodes)

let parse_endpoints body =
  if Xml.local_name (Xml.tag body) <> "Endpoints" then Error "expected Endpoints"
  else
    Ok
      (List.filter_map
         (fun e -> Xml.attr e "Node")
         (Xml.find_children body "Endpoint"))

let attribute_assertion_request ~subject = Xml.element "AttributeAssertionRequest" ~attrs:[ ("Subject", subject) ]

let parse_attribute_assertion_request body =
  match Dacs_xml.Xml.attr body "Subject" with
  | None -> Error "request names no subject"
  | Some user -> Ok user

let credential_elements names =
  List.map (fun n -> Xml.element "Credential" ~attrs:[ ("Name", n) ]) names

let credential_names body =
  List.filter_map (fun c -> Xml.attr c "Name") (Xml.find_children body "Credential")

let negotiate ~resource ~action ~subject_name unlocked =
  Xml.element "Negotiate"
    ~attrs:[ ("Resource", resource); ("Action", action); ("Subject", subject_name) ]
    ~children:(credential_elements unlocked)

let parse_negotiate ~caller body =
  match (Xml.attr body "Resource", Xml.attr body "Action") with
  | Some resource, Some action ->
    let subject_name =
      Option.value (Xml.attr body "Subject") ~default:caller
    in
    Ok (resource, action, subject_name, credential_names body)
  | _ -> Error "Negotiate needs Resource and Action"

let negotiate_granted assertion =
  Xml.element "NegotiateResponse"
    ~attrs:[ ("Status", "granted") ]
    ~children:[ Dacs_saml.Assertion.to_xml assertion ]

let negotiate_continue unlocked =
  Xml.element "NegotiateResponse"
    ~attrs:[ ("Status", "continue") ]
    ~children:(credential_elements unlocked)

let parse_negotiate_response reply_body =
  match Xml.attr reply_body "Status" with
  | Some "granted" -> (
    match Option.map Dacs_saml.Assertion.of_xml (Xml.find_child reply_body "Assertion") with
    | Some (Ok assertion) -> Ok (Wire.Issued assertion)
    | _ -> Error "granted without a readable Assertion")
  | Some "continue" -> Ok (Wire.Continue (credential_names reply_body))
  | _ -> Error "unknown Status"

(* --- Soap: the envelope ---------------------------------------------------- *)

module Soap = struct
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
end
