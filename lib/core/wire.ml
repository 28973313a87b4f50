module Xml = Dacs_xml.Xml
module Value = Dacs_policy.Value
module Context = Dacs_policy.Context
module Cursor = Xml.Cursor

(* --- one writer and one cursor reader per frame ---------------------------- *)

(* Every frame is written straight into the outgoing frame and read in
   place from the one that arrived.  The authorisation query and response
   also keep tree forms, adapters over the same writer and reader. *)

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

let add_attr buf name value =
  Buffer.add_char buf ' ';
  Buffer.add_string buf name;
  Buffer.add_string buf "=\"";
  Xml.add_escaped buf value;
  Buffer.add_char buf '"'

let add_attrs buf attrs = List.iter (fun (name, value) -> add_attr buf name value) attrs

let write_leaf buf name attrs =
  Buffer.add_char buf '<';
  Buffer.add_string buf name;
  add_attrs buf attrs;
  Buffer.add_string buf "/>"

(* The rest of a start tag whose attributes are written: the children,
   each written by [write], and the end tag — or, with none, the
   self-closing end the tree printer gave an empty element. *)
let end_with buf name write = function
  | [] -> Buffer.add_string buf "/>"
  | items ->
    Buffer.add_char buf '>';
    List.iter (write buf) items;
    Buffer.add_string buf "</";
    Buffer.add_string buf name;
    Buffer.add_char buf '>'

let total read c = Cursor.read c read

(* The tree forms: a tree is printed back to bytes and read by the one
   reader; a frame is written by the one writer and parsed. *)
let of_tree read node = Cursor.parse (Xml.to_string node) read

let to_tree write =
  let buf = Buffer.create 256 in
  write buf;
  Xml.of_string (Buffer.contents buf)

(* --- numbers ------------------------------------------------------------------ *)

(* Numbers are read as the writers print them, not in OCaml's literal
   syntax: a count is a non-negative decimal ([%d]), never "0x10", "1_0"
   or "-1"; a timestamp is a finite decimal float ([%.6f], [%.17g] with
   its exponent), never "nan" or "inf".  Neither allocates beyond the
   float it returns. *)

let is_digit ch = ch >= '0' && ch <= '9'

(* The value of the decimal digits of [s], or -1 when [s] is empty,
   holds anything else or does not fit an int. *)
let rec decimal_from s i acc =
  if i = String.length s then acc
  else if not (is_digit s.[i]) then -1
  else
    let d = Char.code s.[i] - Char.code '0' in
    if acc > (max_int - d) / 10 then -1 else decimal_from s (i + 1) ((acc * 10) + d)

let decimal s = if String.length s = 0 then -1 else decimal_from s 0 0

let count c what s =
  let n = decimal s in
  if n < 0 then Cursor.fail c (Printf.sprintf "%s is not a decimal count: %s" what s);
  n

let count_attr c tag name = count c name (Cursor.attr_named c tag name)

let rec skip_digits s i = if i < String.length s && is_digit s.[i] then skip_digits s (i + 1) else i

(* At least one digit from [i]: the index past them, or -1. *)
let digits s i =
  let j = skip_digits s i in
  if j > i then j else -1

(* [-]digits[.digits][(e|E)[+|-]digits], to the end of [s]. *)
let float_syntax s =
  let n = String.length s in
  let i = digits s (if n > 0 && s.[0] = '-' then 1 else 0) in
  let i = if i >= 0 && i < n && s.[i] = '.' then digits s (i + 1) else i in
  let i =
    if i >= 0 && i < n && (s.[i] = 'e' || s.[i] = 'E') then
      digits s (if i + 1 < n && (s.[i + 1] = '+' || s.[i + 1] = '-') then i + 2 else i + 1)
    else i
  in
  i = n

let timestamp c what s =
  let f = if float_syntax s then float_of_string s else Float.nan in
  if not (Float.is_finite f) then Cursor.fail c (Printf.sprintf "%s is not a finite decimal: %s" what s);
  f

(* [add_attr buf name (string_of_int n)] without the intermediate string:
   a heal re-renders every event it admits, so the log writer allocates
   nothing per integer. *)
let write_count buf name n =
  Buffer.add_char buf ' ';
  Buffer.add_string buf name;
  Buffer.add_string buf "=\"";
  Xml.add_int buf n;
  Buffer.add_char buf '"'

(* --- named values: <Attribute Name DataType>value</Attribute> -------------------- *)

(* The one encoding of a named, typed value: the subject of access and
   capability requests and the values of an attribute result. *)
let write_attribute buf name v =
  Buffer.add_string buf "<Attribute";
  add_attr buf "Name" name;
  add_attr buf "DataType" (Value.type_name (Value.type_of v));
  Buffer.add_char buf '>';
  Xml.add_escaped buf (Value.to_string v);
  Buffer.add_string buf "</Attribute>"

let write_named buf (name, v) = write_attribute buf name v

let attribute_in c =
  let tag = Cursor.enter_named c "Attribute" in
  let name = Cursor.attr_named c tag "Name" in
  let dt_name = Cursor.attr_named c tag "DataType" in
  Cursor.end_attrs c tag;
  let text = Cursor.text c tag in
  Cursor.close c tag;
  match Value.data_type_of_name dt_name with
  | None -> Cursor.fail c (Printf.sprintf "unknown data type %s" dt_name)
  | Some dt -> ( match Value.of_string dt text with Ok v -> (name, v) | Error e -> Cursor.fail c e)

(* --- access requests and outcomes (client <-> PEP) ------------------------------ *)

let write_access_request buf ~subject ~action =
  Buffer.add_string buf "<AccessRequest";
  add_attr buf "Action" action;
  end_with buf "AccessRequest" write_named subject

let read_access_request =
  total (fun c ->
      let tag = Cursor.enter_named c "AccessRequest" in
      let action = Cursor.attr_named c tag "Action" in
      Cursor.end_attrs c tag;
      (children c tag attribute_in, action))

type access_outcome =
  | Granted of { content : string; encrypted : bool }
  | Denied of string

let write_access_outcome buf = function
  | Granted { content; encrypted } ->
    Buffer.add_string buf "<AccessGranted";
    add_attr buf "Encrypted" (string_of_bool encrypted);
    if content = "" then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      Xml.add_escaped buf content;
      Buffer.add_string buf "</AccessGranted>"
    end
  | Denied reason -> write_leaf buf "AccessDenied" [ ("Reason", reason) ]

let boolean c what s =
  match bool_of_string_opt s with Some b -> b | None -> Cursor.fail c (what ^ " is not a boolean: " ^ s)

let read_access_outcome =
  total (fun c ->
      let tag = Cursor.enter c in
      if Cursor.has_local_name c tag "AccessGranted" then begin
        let encrypted = boolean c "Encrypted" (Cursor.attr_named c tag "Encrypted") in
        Cursor.end_attrs c tag;
        let content = Cursor.text c tag in
        Cursor.close c tag;
        Granted { content; encrypted }
      end
      else if Cursor.has_local_name c tag "AccessDenied" then begin
        let reason = Cursor.attr_named c tag "Reason" in
        Cursor.end_leaf c tag;
        Denied reason
      end
      else Cursor.fail c (Printf.sprintf "unexpected access outcome <%s>" (Cursor.tag_name c tag)))

(* --- authorisation queries and responses (PEP <-> PDP) --------------------------- *)

let write_authz_query buf ctx =
  Buffer.add_string buf "<AuthzQuery>";
  Context.write buf ctx;
  Buffer.add_string buf "</AuthzQuery>"

let authz_query_in c =
  let tag = Cursor.enter_named c "AuthzQuery" in
  Cursor.end_attrs c tag;
  only_child c tag ~missing:"AuthzQuery has no Request" Context.read

let read_authz_query = total authz_query_in
let authz_query ctx = to_tree (fun buf -> write_authz_query buf ctx)
let parse_authz_query = of_tree authz_query_in

let write_authz_response ?(epoch = 0) buf result =
  (* The deciding PDP's compilation epoch rides the response as an
     attribute (provenance); 0 — unknown — is the default and is
     omitted. *)
  Buffer.add_string buf "<AuthzResponse";
  if epoch > 0 then write_count buf "Epoch" epoch;
  Buffer.add_char buf '>';
  Dacs_policy.Xacml_xml.write_result buf result;
  Buffer.add_string buf "</AuthzResponse>"

(* The decision and the epoch it carries; an absent or malformed epoch
   reads as 0 (unknown), so a pre-epoch peer is still understood. *)
let authz_response_in c =
  let tag = Cursor.enter_named c "AuthzResponse" in
  let epoch = ref 0 in
  while Cursor.next_attr c tag do
    if Cursor.attr_is c "Epoch" then epoch := max 0 (decimal (Cursor.value c))
  done;
  let result = only_child c tag ~missing:"AuthzResponse has no Response" Dacs_policy.Xacml_xml.read_result in
  (result, !epoch)

let read_authz_response = total authz_response_in
let authz_response ?epoch result = to_tree (fun buf -> write_authz_response ?epoch buf result)
let parse_authz_response node = Result.map fst (of_tree authz_response_in node)

(* The signature covers the response exactly as it is written into the
   frame: the bytes are written once into a scratch buffer, signed, and
   copied in. *)
let write_signed_authz_response ?epoch ~key ~cert buf result =
  let response = Buffer.create 256 in
  write_authz_response ?epoch response result;
  let signature = Dacs_crypto.Rsa.sign key (Buffer.contents response) in
  Buffer.add_string buf "<SignedAuthzResponse>";
  Buffer.add_buffer buf response;
  Xml.print buf (Dacs_crypto.Cert.to_xml cert);
  Buffer.add_string buf "<SignatureValue>";
  Xml.add_escaped buf (Dacs_crypto.Encoding.base64_encode signature);
  Buffer.add_string buf "</SignatureValue></SignedAuthzResponse>"

(* A signed response read in the writer's order — the response, keeping
   its bytes, then the signer's certificate and the signature — and
   accepted only when a trusted signer's signature verifies over those
   bytes. *)
let signed_answer_in ~trust ~now c =
  let module Cert = Dacs_crypto.Cert in
  let tag = Cursor.enter_named c "SignedAuthzResponse" in
  Cursor.end_attrs c tag;
  let next what = if not (Cursor.next_child c tag) then Cursor.fail c ("SignedAuthzResponse lacks its " ^ what) in
  next "response";
  let answer, signed = Cursor.with_bytes c authz_response_in in
  next "certificate";
  if not (Cursor.at_local_name c "Certificate") then Cursor.fail c "SignedAuthzResponse lacks its certificate";
  let cert =
    match Cert.of_xml (Cursor.subtree c) with
    | Some cert -> cert
    | None -> Cursor.fail c "SignedAuthzResponse carries a malformed certificate"
  in
  next "signature";
  let sig_tag = Cursor.enter_named c "SignatureValue" in
  Cursor.end_attrs c sig_tag;
  let encoded = Cursor.text c sig_tag in
  Cursor.close c sig_tag;
  Cursor.close c tag;
  match Dacs_crypto.Encoding.base64_decode encoded with
  | exception Invalid_argument _ -> Cursor.fail c "signature is not valid base64"
  | signature ->
    if not (Cert.Trust_store.trusts trust ~now cert) then
      Cursor.fail c (Printf.sprintf "decision signer %s is not trusted" cert.Cert.subject)
    else if not (Dacs_crypto.Rsa.verify cert.Cert.public_key signed ~signature) then
      Cursor.fail c "decision signature does not verify"
    else answer

let read_authz_answer ?trust ~now c =
  match trust with
  | None -> read_authz_response c
  | Some trust -> total (signed_answer_in ~trust ~now) c

(* --- attributes (PDP <-> PIP) ------------------------------------------------------ *)

let write_attribute_query buf ~category ~attribute_id ~subject =
  write_leaf buf "AttributeQuery"
    [ ("Category", Context.category_name category); ("AttributeId", attribute_id); ("Subject", subject) ]

let category c s =
  match Context.category_of_name s with
  | Some category -> category
  | None -> Cursor.fail c (Printf.sprintf "unknown category %s" s)

let read_attribute_query =
  total (fun c ->
      let tag = Cursor.enter_named c "AttributeQuery" in
      let category = category c (Cursor.attr_named c tag "Category") in
      let attribute_id = Cursor.attr_named c tag "AttributeId" in
      let subject = Cursor.attr_named c tag "Subject" in
      Cursor.end_leaf c tag;
      (category, attribute_id, subject))

let write_attribute_result buf bag =
  Buffer.add_string buf "<AttributeResult";
  end_with buf "AttributeResult" (fun buf v -> write_attribute buf "value" v) bag

let attribute_value_in c = snd (attribute_in c)

let read_attribute_result =
  total (fun c ->
      let tag = Cursor.enter_named c "AttributeResult" in
      Cursor.end_attrs c tag;
      children c tag attribute_value_in)

let write_attribute_subscribe buf = write_leaf buf "AttributeSubscribe" []
let read_attribute_subscribe = total (Cursor.leaf0 "AttributeSubscribe")

let write_attribute_invalidate buf ~subject ~attribute_id =
  write_leaf buf "AttributeInvalidate" [ ("Subject", subject); ("AttributeId", attribute_id) ]

let read_attribute_invalidate =
  total (fun c -> Cursor.leaf2 c "AttributeInvalidate" "Subject" "AttributeId")

(* --- shared decision cache (PEP <-> L2, L2 <-> L2) ------------------------- *)

let write_cache_lookup buf ~key =
  Buffer.add_string buf "<CacheLookup";
  add_attr buf "Key" key;
  Buffer.add_string buf "/>"

let read_cache_lookup = total (fun c -> Cursor.leaf1 c "CacheLookup" "Key")

let write_cache_answer buf = function
  | None -> Buffer.add_string buf "<CacheMiss/>"
  | Some r ->
    Buffer.add_string buf "<CacheHit>";
    Dacs_policy.Xacml_xml.write_result buf r;
    Buffer.add_string buf "</CacheHit>"

let cache_answer_in c =
  let tag = Cursor.enter c in
  Cursor.end_attrs c tag;
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

let read_cache_put =
  total (fun c ->
      let tag = Cursor.enter_named c "CachePut" in
      let key = Cursor.attr_named c tag "Key" in
      let sent_at = timestamp c "SentAt" (Cursor.attr_named c tag "SentAt") in
      Cursor.end_attrs c tag;
      let result = only_child c tag ~missing:"CachePut has no Response" Dacs_policy.Xacml_xml.read_result in
      (key, result, sent_at))

let write_cache_subscribe buf = write_leaf buf "CacheSubscribe" []
let read_cache_subscribe = total (Cursor.leaf0 "CacheSubscribe")

(* A digest's fingerprints are its text: each one's low 32 bits as eight
   lowercase hex digits, back to back. *)
let hex_digits = "0123456789abcdef"

let write_fingerprint buf fp =
  for i = 7 downto 0 do
    Buffer.add_char buf hex_digits.[(fp lsr (4 * i)) land 15]
  done

let write_cache_digest buf ~capacity fingerprints =
  Buffer.add_string buf "<CacheDigest";
  write_count buf "Capacity" capacity;
  end_with buf "CacheDigest" write_fingerprint fingerprints

let hex_value = function
  | '0' .. '9' as ch -> Char.code ch - Char.code '0'
  | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
  | _ -> -1

let fingerprints c s =
  if String.length s mod 8 <> 0 then Cursor.fail c "CacheDigest text is not whole fingerprints";
  List.init
    (String.length s / 8)
    (fun i ->
      let fp = ref 0 in
      for j = 8 * i to (8 * i) + 7 do
        let d = hex_value s.[j] in
        if d < 0 then Cursor.fail c (Printf.sprintf "CacheDigest fingerprint is not lowercase hex: %C" s.[j]);
        fp := (!fp lsl 4) lor d
      done;
      !fp)

let read_cache_digest =
  total (fun c ->
      let tag = Cursor.enter_named c "CacheDigest" in
      let capacity = count_attr c tag "Capacity" in
      Cursor.end_attrs c tag;
      let text = Cursor.text c tag in
      Cursor.close c tag;
      (capacity, fingerprints c text))

(* --- policy distribution ------------------------------------------------------ *)

let write_policy_query buf ~scope ~known_version =
  write_leaf buf "PolicyQuery" [ ("Scope", scope); ("KnownVersion", string_of_int known_version) ]

let read_policy_query =
  total (fun c ->
      let scope, known_version = Cursor.leaf2 c "PolicyQuery" "Scope" "KnownVersion" in
      (scope, count c "KnownVersion" known_version))

(* Policies keep their tree codec inside the frame: they are printed and
   read whole. *)
let write_policy buf child = Xml.print buf (Dacs_policy.Xacml_xml.child_to_xml child)

let policy_in c =
  match Dacs_policy.Xacml_xml.child_of_xml (Cursor.subtree c) with Ok child -> child | Error e -> Cursor.fail c e

let policy_frame name buf ~version =
  Buffer.add_char buf '<';
  Buffer.add_string buf name;
  write_count buf "Version" version;
  end_with buf name write_policy

(* The element [name] and its Version, with its attributes read. *)
let version_in c name =
  let tag = Cursor.enter_named c name in
  let version = count_attr c tag "Version" in
  Cursor.end_attrs c tag;
  (tag, version)

let write_policy_response buf ~version child = policy_frame "PolicyResponse" buf ~version (Option.to_list child)

let read_policy_response =
  total (fun c ->
      let tag, version = version_in c "PolicyResponse" in
      match children c tag policy_in with
      | [] -> (version, None)
      | [ child ] -> (version, Some child)
      | _ -> Cursor.fail c "PolicyResponse must carry at most one policy")

let write_policy_update buf ~version child = policy_frame "PolicyUpdate" buf ~version [ child ]

let read_policy_update =
  total (fun c ->
      let tag, version = version_in c "PolicyUpdate" in
      match children c tag policy_in with
      | [ child ] -> (version, child)
      | _ -> Cursor.fail c "PolicyUpdate must carry exactly one policy")

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

let write_entry buf (author, seq) =
  Buffer.add_string buf "<Entry";
  add_attr buf "Author" author;
  write_count buf "Seq" seq;
  Buffer.add_string buf "/>"

let by_author (a, _) (b, _) = String.compare a b

let rec sorted_by_author = function
  | a :: (b :: _ as rest) -> by_author a b <= 0 && sorted_by_author rest
  | [ _ ] | [] -> true

(* Entries sorted by author, whatever order the frontier came in; one
   already sorted, as a replica's own always is, is used as it is. *)
let in_author_order frontier =
  if sorted_by_author frontier then frontier else List.stable_sort by_author frontier

let write_frontier buf frontier =
  Buffer.add_string buf "<Frontier";
  end_with buf "Frontier" write_entry (in_author_order frontier)

let write_field buf name value =
  Buffer.add_string buf "<Field";
  add_attr buf "Name" name;
  Buffer.add_char buf '>';
  Xml.add_escaped buf value;
  Buffer.add_string buf "</Field>"

let write_log_event buf ev =
  Buffer.add_string buf "<LogEvent";
  add_attr buf "Author" ev.author;
  write_count buf "Seq" ev.seq;
  add_attr buf "At" (float_attr ev.at);
  write_count buf "Epoch" ev.epoch;
  add_attr buf "Kind"
    (match ev.kind with
    | Grant _ -> "grant"
    | Revoke _ -> "revoke"
    | Publish _ -> "publish"
    | Decide _ -> "decide");
  add_attr buf "Digest" (Dacs_crypto.Encoding.hex_encode ev.digest);
  add_attr buf "Tag" (Dacs_crypto.Encoding.hex_encode ev.tag);
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

(* The bytes a chain link hashes.  Every field is self-delimiting — a
   string is [len:bytes], an integer is decimal ended by [;], [at] is
   its 8 IEEE bits big-endian, the frontier is its count then its
   entries — and the kind byte fixes which fields follow, so the bytes
   read back one way only.  Nothing is escaped or formatted. *)

let add_link_int buf n =
  Xml.add_int buf n;
  Buffer.add_char buf ';'

let add_link_string buf s =
  Xml.add_int buf (String.length s);
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let rec add_link_entries buf = function
  | [] -> ()
  | (author, seq) :: rest ->
    add_link_string buf author;
    add_link_int buf seq;
    add_link_entries buf rest

let write_log_link buf ev =
  Buffer.add_char buf
    (match ev.kind with Grant _ -> 'G' | Revoke _ -> 'R' | Publish _ -> 'P' | Decide _ -> 'D');
  add_link_string buf ev.author;
  add_link_int buf ev.seq;
  Buffer.add_int64_be buf (Int64.bits_of_float ev.at);
  add_link_int buf ev.epoch;
  add_link_int buf (List.length ev.frontier);
  add_link_entries buf (in_author_order ev.frontier);
  match ev.kind with
  | Grant { subject; attr; value } ->
    add_link_string buf subject;
    add_link_string buf attr;
    add_link_string buf value
  | Revoke { subject; attr } ->
    add_link_string buf subject;
    add_link_string buf attr
  | Publish { policy } -> add_link_string buf policy
  | Decide { key; ctx; decision } ->
    add_link_string buf key;
    add_link_string buf ctx;
    add_link_string buf decision

let hex_attr c tag name =
  let s = Cursor.attr_named c tag name in
  try Dacs_crypto.Encoding.hex_decode s with Invalid_argument _ -> Cursor.fail c (name ^ ": " ^ s)

let entry_in c =
  let author, seq = Cursor.leaf2 c "Entry" "Author" "Seq" in
  (author, count c "Seq" seq)

let frontier_in c =
  let tag = Cursor.enter_named c "Frontier" in
  Cursor.end_attrs c tag;
  children c tag entry_in

let field_in c event name =
  if not (Cursor.next_child c event) then Cursor.fail c ("LogEvent is missing field " ^ name);
  let tag = Cursor.enter_named c "Field" in
  if not (String.equal (Cursor.attr_named c tag "Name") name) then
    Cursor.fail c ("expected LogEvent field " ^ name);
  Cursor.end_attrs c tag;
  let value = Cursor.text c tag in
  Cursor.close c tag;
  value

let log_event_in c =
  let tag = Cursor.enter_named c "LogEvent" in
  let author = Cursor.attr_named c tag "Author" in
  let seq = count_attr c tag "Seq" in
  let at = timestamp c "At" (Cursor.attr_named c tag "At") in
  let epoch = count_attr c tag "Epoch" in
  let kind = Cursor.attr_named c tag "Kind" in
  let digest = hex_attr c tag "Digest" in
  let mac = hex_attr c tag "Tag" in
  Cursor.end_attrs c tag;
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
      let tag = Cursor.enter_named c "LogSyncRequest" in
      Cursor.end_attrs c tag;
      only_child c tag ~missing:"LogSyncRequest has no Frontier" frontier_in)

let write_log_sync_response buf events =
  Buffer.add_string buf "<LogSyncResponse";
  end_with buf "LogSyncResponse" write_log_event events

let read_log_sync_response =
  total (fun c ->
      let tag = Cursor.enter_named c "LogSyncResponse" in
      Cursor.end_attrs c tag;
      children c tag log_event_in)

(* --- capabilities and revocation ----------------------------------------------- *)

let write_want buf (resource, action) = write_leaf buf "Want" [ ("Resource", resource); ("Action", action) ]

let write_capability_request buf ~subject ~pairs =
  if subject = [] && pairs = [] then Buffer.add_string buf "<CapabilityRequest/>"
  else begin
    Buffer.add_string buf "<CapabilityRequest>";
    List.iter (write_named buf) subject;
    List.iter (write_want buf) pairs;
    Buffer.add_string buf "</CapabilityRequest>"
  end

let read_capability_request =
  total (fun c ->
      let tag = Cursor.enter_named c "CapabilityRequest" in
      Cursor.end_attrs c tag;
      let subject = ref [] and pairs = ref [] in
      while Cursor.next_child c tag do
        if Cursor.at_local_name c "Attribute" then subject := attribute_in c :: !subject
        else pairs := Cursor.leaf2 c "Want" "Resource" "Action" :: !pairs
      done;
      Cursor.close c tag;
      (List.rev !subject, List.rev !pairs))

let read_capability =
  total (fun c ->
      let body = Cursor.subtree c in
      let capability =
        if Xml.local_name (Xml.tag body) = Dacs_saml.Attribute_cert.element_name then
          Dacs_saml.Attribute_cert.of_xml body
        else Dacs_saml.Assertion.of_xml body
      in
      match capability with Ok a -> (a, body) | Error e -> Cursor.fail c e)

let write_revocation_check buf ~assertion_id = write_leaf buf "RevocationCheck" [ ("AssertionId", assertion_id) ]
let read_revocation_check = total (fun c -> Cursor.leaf1 c "RevocationCheck" "AssertionId")
let write_revocation_status buf ~revoked = write_leaf buf "RevocationStatus" [ ("Revoked", string_of_bool revoked) ]
let read_revocation_status =
  total (fun c -> boolean c "Revoked" (Cursor.leaf1 c "RevocationStatus" "Revoked"))

(* --- discovery (component <-> registry) ------------------------------------ *)

let write_register buf ~kind ~node = write_leaf buf "Register" [ ("Kind", kind); ("Node", node) ]
let read_register = total (fun c -> Cursor.leaf2 c "Register" "Kind" "Node")
let write_register_ack buf = write_leaf buf "RegisterAck" []
let read_register_ack = total (Cursor.leaf0 "RegisterAck")
let write_discover buf ~kind = write_leaf buf "Discover" [ ("Kind", kind) ]
let read_discover = total (fun c -> Cursor.leaf1 c "Discover" "Kind")
let write_endpoint buf node = write_leaf buf "Endpoint" [ ("Node", node) ]

let write_endpoints buf nodes =
  Buffer.add_string buf "<Endpoints";
  end_with buf "Endpoints" write_endpoint nodes

let read_endpoints =
  total (fun c ->
      let tag = Cursor.enter_named c "Endpoints" in
      Cursor.end_attrs c tag;
      children c tag (fun c -> Cursor.leaf1 c "Endpoint" "Node"))

(* --- identity assertions and trust negotiation -------------------------------- *)

let read_attribute_assertion_request =
  total (fun c -> Cursor.leaf1 c "AttributeAssertionRequest" "Subject")
let write_credential buf name = write_leaf buf "Credential" [ ("Name", name) ]
let credential_in c = Cursor.leaf1 c "Credential" "Name"

let write_negotiate buf ~resource ~action ~subject credentials =
  Buffer.add_string buf "<Negotiate";
  add_attrs buf [ ("Resource", resource); ("Action", action); ("Subject", subject) ];
  end_with buf "Negotiate" write_credential credentials

let read_negotiate =
  total (fun c ->
      let tag = Cursor.enter_named c "Negotiate" in
      let resource = Cursor.attr_named c tag "Resource" in
      let action = Cursor.attr_named c tag "Action" in
      let subject = Cursor.attr_named c tag "Subject" in
      Cursor.end_attrs c tag;
      (resource, action, subject, children c tag credential_in))

type negotiation_step =
  | Issued of Dacs_saml.Assertion.t
  | Continue of string list

(* The granted capability keeps its tree codec inside the frame: its
   signature covers the canonical assertion. *)
let write_negotiate_response buf = function
  | Issued assertion ->
    Buffer.add_string buf "<NegotiateResponse Status=\"granted\">";
    Xml.print buf (Dacs_saml.Assertion.to_xml assertion);
    Buffer.add_string buf "</NegotiateResponse>"
  | Continue credentials ->
    Buffer.add_string buf "<NegotiateResponse Status=\"continue\"";
    end_with buf "NegotiateResponse" write_credential credentials

let assertion_in c =
  match Dacs_saml.Assertion.of_xml (Cursor.subtree c) with Ok a -> a | Error e -> Cursor.fail c e

let read_negotiate_response =
  total (fun c ->
      let tag = Cursor.enter_named c "NegotiateResponse" in
      let status = Cursor.attr_named c tag "Status" in
      Cursor.end_attrs c tag;
      match status with
      | "granted" -> Issued (only_child c tag ~missing:"NegotiateResponse grants no Assertion" assertion_in)
      | "continue" -> Continue (children c tag credential_in)
      | other -> Cursor.fail c ("unknown negotiation status " ^ other))

let read_attribute_assertion = total assertion_in

(* --- service declarations ------------------------------------------------------------ *)

module Services = struct
  open Dacs_ws.Service

  let access = request_reply "access" ~request:read_access_request ~reply:read_access_outcome
  let authz_query = request_reply "authz-query" ~request:read_authz_query ~reply:read_authz_response

  let authz_query_checked ?trust net =
    let reply c = read_authz_answer ?trust ~now:(Dacs_net.Net.now net) c in
    request_reply authz_query.name ~request:read_authz_query ~reply

  let attribute_query =
    request_reply "attribute-query" ~request:read_attribute_query ~reply:read_attribute_result

  let attribute_subscribe = one_way "attribute-subscribe" read_attribute_subscribe
  let attribute_invalidate = one_way "attribute-invalidate" read_attribute_invalidate
  let cache_lookup = request_reply "cache-lookup" ~request:read_cache_lookup ~reply:read_cache_answer
  let cache_put = one_way "cache-put" read_cache_put
  let cache_subscribe = one_way "cache-subscribe" read_cache_subscribe
  let cache_digest = one_way "cache-digest" read_cache_digest
  let policy_query = request_reply "policy-query" ~request:read_policy_query ~reply:read_policy_response
  let policy_update = one_way "policy-update" read_policy_update
  let log_sync = request_reply "log-sync" ~request:read_log_sync_request ~reply:read_log_sync_response

  let capability_request =
    request_reply "capability-request" ~request:read_capability_request ~reply:read_capability

  let revocation_check =
    request_reply "revocation-check" ~request:read_revocation_check ~reply:read_revocation_status

  let register = request_reply "register" ~request:read_register ~reply:read_register_ack
  let discover = request_reply "discover" ~request:read_discover ~reply:read_endpoints

  let attribute_assertion =
    request_reply "attribute-assertion" ~request:read_attribute_assertion_request
      ~reply:read_attribute_assertion

  let negotiate = request_reply "negotiate" ~request:read_negotiate ~reply:read_negotiate_response
end
