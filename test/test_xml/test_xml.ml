(* Tests for dacs_xml: parser, printer, canonical form, path queries. *)

module Xml = Dacs_xml.Xml

let check = Alcotest.check
let string_ = Alcotest.string
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let xml_testable = Alcotest.testable (fun fmt t -> Format.pp_print_string fmt (Xml.to_string t)) Xml.equal

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- construction and accessors ------------------------------------- *)

let test_element_basics () =
  let e = Xml.element "Policy" ~attrs:[ ("PolicyId", "p1") ] ~children:[ Xml.text "hi" ] in
  check string_ "tag" "Policy" (Xml.tag e);
  check (Alcotest.option string_) "attr" (Some "p1") (Xml.attr e "PolicyId");
  check (Alcotest.option string_) "missing attr" None (Xml.attr e "nope");
  check string_ "text content" "hi" (Xml.text_content e)

let test_local_name_prefix () =
  check string_ "local" "Assertion" (Xml.local_name "saml:Assertion");
  check string_ "no prefix" "Policy" (Xml.local_name "Policy")

let test_find_children () =
  let doc =
    Xml.element "Root"
      ~children:
        [
          Xml.element "xacml:Rule" ~attrs:[ ("RuleId", "r1") ];
          Xml.text "noise";
          Xml.element "Rule" ~attrs:[ ("RuleId", "r2") ];
          Xml.element "Other";
        ]
  in
  check int_ "find_children matches on local name" 2 (List.length (Xml.find_children doc "Rule"));
  match Xml.find_child doc "Rule" with
  | Some r -> check (Alcotest.option string_) "first" (Some "r1") (Xml.attr r "RuleId")
  | None -> Alcotest.fail "expected a Rule child"

(* --- escaping -------------------------------------------------------- *)

let test_escape () =
  let serialise s = Xml.to_string (Xml.element "T" ~children:[ Xml.text s ]) in
  check string_ "all specials" "<T>&amp;&lt;&gt;&quot;&apos;</T>" (serialise "&<>\"'");
  check string_ "plain" "<T>hello</T>" (serialise "hello")

let test_escape_roundtrip_via_parse () =
  let nasty = "a & b < c > d \"quoted\" 'single'" in
  let doc = Xml.element "T" ~attrs:[ ("v", nasty) ] ~children:[ Xml.text nasty ] in
  let parsed = Xml.of_string (Xml.to_string doc) in
  check (Alcotest.option string_) "attr roundtrip" (Some nasty) (Xml.attr parsed "v");
  check string_ "text roundtrip" nasty (Xml.text_content parsed)

(* --- parsing --------------------------------------------------------- *)

let test_parse_simple () =
  let doc = Xml.of_string "<a x=\"1\"><b>hi</b><c/></a>" in
  check string_ "root" "a" (Xml.tag doc);
  check int_ "children" 2 (List.length (Xml.children doc));
  check (Alcotest.option string_) "b text" (Some "hi")
    (Option.map Xml.text_content (Xml.find_child doc "b"))

let test_parse_prolog_doctype_comments () =
  let src =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE note>\n<!-- a comment -->\n<note><!-- inner -->body</note>\n"
  in
  let doc = Xml.of_string src in
  check string_ "root" "note" (Xml.tag doc);
  check string_ "text" "body" (Xml.text_content doc)

let test_parse_cdata () =
  let doc = Xml.of_string "<d><![CDATA[<not>&parsed;]]></d>" in
  check string_ "cdata" "<not>&parsed;" (Xml.text_content doc)

let test_parse_entities () =
  let doc = Xml.of_string "<d>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</d>" in
  check string_ "entities" "<>&\"'AB" (Xml.text_content doc)

let test_parse_numeric_utf8 () =
  (* U+00E9 (é) is two UTF-8 bytes; U+4E2D is three.  The cursor decodes
     character references with the same code as the tree. *)
  let text src =
    let tree = Xml.text_content (Xml.of_string src) in
    let cursor =
      Xml.Cursor.parse src (fun c ->
          let tag = Xml.Cursor.enter c in
          while Xml.Cursor.next_attr c tag do () done;
          let s = Xml.Cursor.text c tag in
          Xml.Cursor.close c tag;
          s)
    in
    check (Alcotest.result string_ string_) ("cursor agrees on " ^ src) (Ok tree) cursor;
    tree
  in
  check string_ "utf8" "\xC3\xA9\xE4\xB8\xAD" (text "<d>&#233;&#x4E2D;</d>");
  check string_ "upper-case X" "B" (text "<d>&#X42;</d>");
  check string_ "NUL" "\x00" (text "<d>&#0;</d>");
  check string_ "leading zeros" "A" (text "<d>&#00065;</d>");
  check string_ "last code point" "\xF4\x8F\xBF\xBF" (text "<d>&#x10FFFF;</d>");
  check bool_ "past U+10FFFF" true (Xml.of_string_opt "<d>&#x110000;</d>" = None);
  check bool_ "long digit run" true (Xml.of_string_opt "<d>&#99999999999999999999999;</d>" = None)

let test_parse_errors () =
  let bad src =
    (match Xml.of_string_opt src with
    | None -> ()
    | Some _ -> Alcotest.fail (Printf.sprintf "expected a parse error for %S" src));
    match Xml.Cursor.parse src Xml.Cursor.subtree with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "expected the cursor to reject %S" src)
  in
  bad "";
  bad "<a>";
  bad "<a></b>";
  bad "<a x=1></a>";
  bad "<a x=\"1\" x=\"2\"></a>";
  bad "<a>&bogus;</a>";
  bad "<a></a><b></b>";
  bad "text only";
  (* Character references follow XML's CharRef production, not OCaml's
     integer literal syntax: no base prefixes, signs or underscores. *)
  List.iter
    (fun r ->
      bad ("<a>" ^ r ^ "</a>");
      bad ("<a v=\"" ^ r ^ "\"/>"))
    [ "&#0b1000001;"; "&#0o101;"; "&#0u65;"; "&#6_5;"; "&#+65;"; "&#x4_1;" ]

let test_parse_error_position () =
  match Xml.of_string_opt "<a>\n<b></c>\n</a>" with
  | Some _ -> Alcotest.fail "expected failure"
  | None -> (
    try ignore (Xml.of_string "<a>\n<b></c>\n</a>") with
    | Xml.Parse_error { line; _ } -> check int_ "line" 2 line
    | e -> raise e)

let test_mismatched_tag_message () =
  try
    ignore (Xml.of_string "<a></b>");
    Alcotest.fail "expected failure"
  with Xml.Parse_error { message; _ } -> check bool_ "mentions tags" true (contains message "</b>")

(* --- canonical form --------------------------------------------------- *)

let test_canonical_sorts_attrs () =
  let a = Xml.of_string "<a z=\"1\" b=\"2\" m=\"3\"/>" in
  check string_ "sorted" "<a b=\"2\" m=\"3\" z=\"1\"/>" (Xml.canonical_string a)

let test_canonical_drops_blank_text () =
  let a = Xml.of_string "<a>\n  <b/>\n  <c/>\n</a>" in
  check string_ "no blanks" "<a><b/><c/></a>" (Xml.canonical_string a)

let test_canonical_merges_text () =
  let a = Xml.element "a" ~children:[ Xml.text "x"; Xml.text "y" ] in
  check string_ "merged" "<a>xy</a>" (Xml.canonical_string a)

let test_canonical_idempotent () =
  let a = Xml.of_string "<a z=\"1\" b=\"2\">  <c>t</c>  </a>" in
  check xml_testable "idempotent" (Xml.canonical a) (Xml.canonical (Xml.canonical a))

let test_equal_modulo_whitespace () =
  let a = Xml.of_string "<a x=\"1\" y=\"2\"><b>t</b></a>" in
  let b = Xml.of_string "<a y=\"2\" x=\"1\">\n  <b>t</b>\n</a>" in
  check bool_ "equal" true (Xml.equal a b)

(* --- size / depth ------------------------------------------------------ *)

let test_size_depth () =
  let a = Xml.of_string "<a><b><c/></b><d/>x</a>" in
  check int_ "size" 5 (Xml.size a);
  check int_ "depth" 3 (Xml.depth a);
  check int_ "leaf depth" 1 (Xml.depth (Xml.element "x"))

(* --- pretty printing ---------------------------------------------------- *)

let test_pretty_parses_back () =
  let a = Xml.of_string "<a x=\"1\"><b>text</b><c><d/></c></a>" in
  let pretty = Xml.to_pretty_string a in
  check bool_ "pretty equal" true (Xml.equal a (Xml.of_string pretty))

(* --- property tests -------------------------------------------------------- *)

let gen_xml =
  let open QCheck.Gen in
  let tag_gen = oneofl [ "a"; "b"; "c"; "Policy"; "Rule"; "ns:Elt" ] in
  let text_gen = map (fun s -> Xml.text (String.concat "" [ "t"; s ])) (string_size ~gen:printable (0 -- 8)) in
  let attr_gen = pair (oneofl [ "x"; "y"; "id" ]) (string_size ~gen:printable (0 -- 6)) in
  let rec node depth =
    if depth = 0 then text_gen
    else
      frequency
        [
          (2, text_gen);
          ( 3,
            tag_gen >>= fun tag ->
            list_size (0 -- 3) (pair (oneofl [ "x"; "y"; "id" ]) (string_size ~gen:printable (0 -- 6)))
            >>= fun raw_attrs ->
            let attrs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) raw_attrs in
            list_size (0 -- 3) (node (depth - 1)) >>= fun children ->
            return (Xml.element tag ~attrs ~children) );
        ]
  in
  ignore attr_gen;
  QCheck.make
    ~print:(fun t -> Xml.to_string t)
    ( tag_gen >>= fun tag ->
      list_size (0 -- 4) (node 3) >>= fun children ->
      return (Xml.element tag ~children) )

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip (canonical)" ~count:200 gen_xml (fun doc ->
      let reparsed = Xml.of_string (Xml.to_string doc) in
      Xml.equal doc reparsed)

let prop_canonical_idempotent =
  QCheck.Test.make ~name:"canonical is idempotent" ~count:200 gen_xml (fun doc ->
      Xml.canonical (Xml.canonical doc) = Xml.canonical doc)

let prop_canonical_stable_string =
  QCheck.Test.make ~name:"canonical string parses to equal doc" ~count:200 gen_xml (fun doc ->
      Xml.equal doc (Xml.of_string (Xml.canonical_string doc)))

let prop_parser_total =
  (* Robustness: the parser never raises anything but Parse_error, i.e.
     of_string_opt is total over arbitrary bytes. *)
  QCheck.Test.make ~name:"parser is total on random bytes" ~count:1000 QCheck.string (fun s ->
      match Xml.of_string_opt s with
      | Some _ | None -> true)

let xmlish_fragments =
  let fragment =
    QCheck.Gen.oneofl
      [ "<"; ">"; "/>"; "</a>"; "<a"; "a=\""; "\""; "&"; "&amp;"; "&#"; ";"; "<![CDATA["; "]]>";
        "<!--"; "-->"; "<?"; "?>"; "x"; " "; "<a>"; "<!DOCTYPE" ]
  in
  QCheck.make ~print:(fun l -> String.concat "" l) QCheck.Gen.(list_size (0 -- 20) fragment)

let prop_parser_total_xmlish =
  (* The same, over strings biased towards XML-ish fragments. *)
  QCheck.Test.make ~name:"parser is total on XML-ish fragments" ~count:1000 xmlish_fragments (fun frags ->
      match Xml.of_string_opt (String.concat "" frags) with
      | Some _ | None -> true)

let prop_has_local_name =
  let name = QCheck.(string_gen_of_size Gen.(0 -- 6) Gen.(oneofl [ 'a'; 'b'; ':' ])) in
  QCheck.Test.make ~name:"has_local_name agrees with local_name" ~count:1000 (QCheck.pair name name)
    (fun (tag, want) -> Xml.has_local_name tag want = (Xml.local_name tag = want))

(* --- the previous parser as a reference oracle ------------------------------ *)

(* What one parser made of an input: its tree, or its Parse_error. *)
type outcome = Tree of Xml.t | Error_at of int * int * string | Raised of string

let outcome parse src =
  match parse src with
  | tree -> Tree tree
  | exception Xml.Parse_error { line; column; message } -> Error_at (line, column, message)
  | exception Xml_reference.Parse_error { line; column; message } -> Error_at (line, column, message)
  | exception e -> Raised (Printexc.to_string e)

let show_outcome = function
  | Tree t -> "tree " ^ Xml.to_string t
  | Error_at (line, column, message) -> Printf.sprintf "error at %d:%d: %s" line column message
  | Raised e -> "raised " ^ e

let agrees_with_reference src =
  let got = outcome Xml.of_string src and want = outcome Xml_reference.of_string src in
  got = want
  || QCheck.Test.fail_reportf "input %S@.parser:    %s@.reference: %s" src (show_outcome got) (show_outcome want)

(* Well-formed documents over everything the parser accepts: entities,
   numeric references, CDATA, comments, PIs, prefixed names, both quote
   styles, whitespace inside tags, a prolog and an epilog. *)
let gen_document =
  let open QCheck.Gen in
  let chars cs size = string_size ~gen:(oneofl cs) size in
  let ws = oneofl [ ""; ""; " "; "\n"; "\t "; "\r\n" ] in
  let reference =
    oneofl [ "&lt;"; "&gt;"; "&amp;"; "&quot;"; "&apos;"; "&#65;"; "&#x4E2D;"; "&#233;"; "&#X42;"; "&#0;" ]
  in
  let interruption =
    oneof
      [
        map (fun s -> "<![CDATA[" ^ s ^ "]]>") (chars [ 'a'; '<'; '&'; ']'; '\n' ] (0 -- 5));
        map (fun s -> "<!--" ^ s ^ "-->") (chars [ 'a'; '-'; ' '; '<'; '\n' ] (0 -- 5));
        map (fun s -> "<?pi" ^ s ^ "?>") (chars [ 'a'; ' '; '?'; '\n' ] (0 -- 5));
      ]
  in
  let text =
    frequency
      [
        (3, chars [ 'a'; 'z'; ' '; '\n'; '\t'; '>'; '"'; '\''; ']'; '-'; '/'; '=' ] (1 -- 6));
        (2, reference);
        (1, interruption);
      ]
  in
  let attribute name =
    oneofl [ '"'; '\'' ] >>= fun quote ->
    let other = if quote = '"' then '\'' else '"' in
    list_size (0 -- 3) (frequency [ (3, chars [ 'v'; ' '; '<'; '>'; '\n'; other ] (1 -- 4)); (1, reference) ])
    >>= fun value ->
    pair ws ws >|= fun (w1, w2) ->
    Printf.sprintf " %s%s=%s%c%s%c" name w1 w2 quote (String.concat "" value) quote
  in
  let name = oneofl [ "a"; "b"; "Rule"; "ns:Elt"; "soap:Body"; "x.y-z_1" ] in
  let rec element depth =
    name >>= fun tag ->
    oneofl [ []; [ "id" ]; [ "x"; "ns:y" ]; [ "id"; "x"; "ns:y" ] ] >>= fun names ->
    flatten_l (List.map attribute names) >>= fun attrs ->
    pair ws ws >>= fun (before_gt, before_close) ->
    let content = if depth = 0 then text else frequency [ (3, text); (2, element (depth - 1)) ] in
    frequency [ (1, return []); (3, list_size (0 -- 4) content) ] >|= fun children ->
    let open_tag = "<" ^ tag ^ String.concat "" attrs ^ before_gt in
    if children = [] && before_close = "" then open_tag ^ "/>"
    else Printf.sprintf "%s>%s</%s%s>" open_tag (String.concat "" children) tag before_close
  in
  let misc = oneofl [ ""; "\n"; "<!-- note -->"; "<?pi x?>"; "\n<!---->\n" ] in
  let prolog = oneofl [ ""; "<?xml version=\"1.0\"?>\n"; "<!DOCTYPE note>"; "<?xml version='1.0'?><!DOCTYPE a>\n" ] in
  map (fun (((p, m), root), e) -> p ^ m ^ root ^ e) (pair (pair (pair prolog misc) (element 4)) misc)

let prop_reference_documents =
  QCheck.Test.make ~name:"parser = reference on generated documents" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_document) (fun doc ->
      agrees_with_reference doc
      && (match outcome Xml.of_string doc with
         | Tree _ -> true
         | o -> QCheck.Test.fail_reportf "generated document rejected: %s" (show_outcome o)))

(* One byte of a generated document replaced, deleted or duplicated. *)
let gen_mutation =
  let open QCheck.Gen in
  gen_document >>= fun doc ->
  let n = String.length doc in
  int_bound (n - 1) >>= fun i ->
  oneof [ char; oneofl [ '<'; '>'; '/'; '&'; ';'; '"'; '\''; '='; '!'; '?'; '-'; '['; ']'; ' '; '\n'; '#'; 'x' ] ]
  >>= fun c ->
  oneofl
    [
      String.mapi (fun j d -> if j = i then c else d) doc;
      String.sub doc 0 i ^ String.sub doc (i + 1) (n - i - 1);
      String.sub doc 0 i ^ String.make 1 c ^ String.sub doc i (n - i);
    ]

let prop_reference_mutations =
  QCheck.Test.make ~name:"parser = reference on one-byte mutations" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutation) agrees_with_reference

let prop_reference_bytes =
  QCheck.Test.make ~name:"parser = reference on random bytes" ~count:1000 QCheck.string agrees_with_reference

let prop_reference_fragments =
  QCheck.Test.make ~name:"parser = reference on XML-ish fragments" ~count:1000 xmlish_fragments (fun frags ->
      agrees_with_reference (String.concat "" frags))

(* --- the pull cursor against the reference ------------------------------------ *)

module Cursor = Xml.Cursor

let rec elements = function Xml.Text _ -> 0 | Xml.Element e -> List.fold_left (fun n k -> n + elements k) 1 e.Xml.children

(* Whether each element, in document order, holds no child element. *)
let leaves tree =
  let rec go acc = function
    | Xml.Text _ -> acc
    | Xml.Element e as node ->
      List.fold_left go ((elements node = 1) :: acc) e.Xml.children
  in
  Array.of_list (List.rev (go [] tree))

(* The generic cursor walk, rebuilding the tree: every element entered,
   its attributes read one by one with their names and values, and its
   character data taken as the run each [next_child] skips — or with
   [text] where [leaf] says the element holds text only; every third
   element is taken whole with [subtree], under [with_bytes], whose bytes
   must parse back to that element. *)
let cursor_tree ~leaf src =
  let c = Cursor.of_string src in
  let count = ref 0 in
  let rec element () =
    let i = !count in
    incr count;
    if i mod 3 = 2 then begin
      let t, bytes = Cursor.with_bytes c Cursor.subtree in
      if Xml.of_string bytes <> t then failwith ("with_bytes: the bytes read do not parse back: " ^ bytes);
      count := !count + elements t - 1;
      t
    end
    else begin
      let tag = Cursor.enter c in
      let attrs = ref [] in
      while Cursor.next_attr c tag do
        attrs := (Cursor.attr_name c, Cursor.value c) :: !attrs
      done;
      let kids = ref [] in
      let add_text s = if s <> "" then kids := Xml.Text s :: !kids in
      if leaf i then add_text (Cursor.text c tag)
      else begin
        while Cursor.next_child c tag do
          add_text (Cursor.value c);
          kids := element () :: !kids
        done;
        add_text (Cursor.value c)
      end;
      Cursor.close c tag;
      Xml.Element { Xml.tag = Cursor.tag_name c tag; attrs = List.rev !attrs; children = List.rev !kids }
    end
  in
  let tree = element () in
  Cursor.finish c;
  tree

(* The walk accepts exactly what the reference accepts, rebuilds its tree
   and raises nothing but Parse_error.  Where the reference accepts, its
   tree says which elements hold text only; the walk reads every other
   one of those with [text], the rest with [next_child]. *)
let cursor_agrees src =
  let want = outcome Xml_reference.of_string src in
  let leaf =
    match want with
    | Tree t ->
      let l = leaves t in
      fun i -> i mod 2 = 1 && i < Array.length l && l.(i)
    | Error_at _ | Raised _ -> fun _ -> false
  in
  let got = outcome (cursor_tree ~leaf) src in
  (match (got, want) with
  | Tree a, Tree b -> a = b
  | Error_at _, Error_at _ -> true
  | _ -> false)
  || QCheck.Test.fail_reportf "input %S@.cursor:    %s@.reference: %s" src (show_outcome got) (show_outcome want)

let prop_cursor_documents =
  QCheck.Test.make ~name:"cursor = reference on generated documents" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_document) cursor_agrees

let prop_cursor_mutations =
  QCheck.Test.make ~name:"cursor = reference on one-byte mutations" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutation) cursor_agrees

let prop_cursor_bytes =
  QCheck.Test.make ~name:"cursor = reference on random bytes" ~count:1000 QCheck.string cursor_agrees

let prop_cursor_fragments =
  QCheck.Test.make ~name:"cursor = reference on XML-ish fragments" ~count:1000 xmlish_fragments (fun frags ->
      cursor_agrees (String.concat "" frags))

(* The frame-reader primitives on one document: names and values are
   compared in place, read as written, and each mismatch fails. *)
let test_cursor_primitives () =
  let doc = "<!-- x --><ns:Frame a=\"1\" b='t&amp;u'><Leaf/><Pair x=\"p\" y=\"q\"/><One v=\"w\"/><T>Permit</T></ns:Frame>" in
  let framed = "[[" ^ doc ^ "]]" in
  let c = Cursor.of_slice framed 2 (String.length doc) in
  check bool_ "at_local_name" true (Cursor.at_local_name c "Frame");
  let tag = Cursor.enter_named c "Frame" in
  check bool_ "is: the full name" true (Cursor.is c tag "ns:Frame" && not (Cursor.is c tag "Frame"));
  check bool_ "has_local_name" true (Cursor.has_local_name c tag "Frame" && not (Cursor.has_local_name c tag "ns:Frame"));
  check string_ "attr_named" "1" (Cursor.attr_named c tag "a");
  check bool_ "next_attr" true (Cursor.next_attr c tag);
  check bool_ "attr_is" true (Cursor.attr_is c "b");
  check bool_ "value_is, entities decoded" true (Cursor.value_is c "t&u" && not (Cursor.value_is c "t&amp;u"));
  Cursor.end_attrs c tag;
  check bool_ "next_child" true (Cursor.next_child c tag);
  Cursor.leaf0 "Leaf" c;
  check (Alcotest.pair (Alcotest.pair string_ string_) string_) "leaf2, with_bytes: the element as written"
    (("p", "q"), "<Pair x=\"p\" y=\"q\"/>")
    (Cursor.with_bytes c (fun c -> Cursor.leaf2 c "Pair" "x" "y"));
  check string_ "leaf1" "w" (Cursor.leaf1 c "One" "v");
  let t = Cursor.enter_named c "T" in
  Cursor.end_attrs c t;
  Cursor.read_text c t;
  check bool_ "read_text leaves the text in place" true (Cursor.value_is c "Permit" && Cursor.value c = "Permit");
  Cursor.close c t;
  check bool_ "no child left" false (Cursor.next_child c tag);
  Cursor.close c tag;
  Cursor.finish c;
  let fails reader src = Result.is_error (Cursor.parse src reader) in
  check bool_ "enter_named: wrong tag" true (fails (fun c -> Cursor.leaf0 "A" c) "<B/>");
  check bool_ "attr_named: wrong attribute" true (fails (fun c -> Cursor.leaf1 c "A" "x") "<A y=\"1\"/>");
  let first_attr c =
    let t = Cursor.enter_named c "A" in
    ignore (Cursor.attr_named c t "x");
    Cursor.end_leaf c t
  in
  check bool_ "end_leaf: a leaf read as written" false (fails first_attr "<A x=\"1\"/>");
  check bool_ "end_leaf: an attribute left" true (fails first_attr "<A x=\"1\" y=\"2\"/>");
  check bool_ "trailing content" true (fails (fun c -> Cursor.leaf0 "A" c) "<A/>x");
  check bool_ "fail is a Parse_error" true
    (Cursor.read (Cursor.of_string "<A/>") (fun c -> Cursor.fail c "no") = Error "no")

(* --- SOAP frames of every wire encoder ---------------------------------------- *)

module Soap = Dacs_ws.Soap
module Wire = Dacs_core.Wire
module Value = Dacs_policy.Value
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Target = Dacs_policy.Target
module Expr = Dacs_policy.Expr

(* The tree of the body element a [Wire.write_*] writer appends. *)
let written write =
  let buf = Buffer.create 256 in
  write buf;
  Xml.of_string (Buffer.contents buf)

let wire_envelopes () =
  let subject = [ ("subject-id", Value.String "alice & <bob>"); ("role", Value.String "doctor"); ("q", Value.String "\"'") ] in
  let ctx =
    Context.make ~subject ~resource:[ ("resource-id", Value.String "r1") ]
      ~action:[ ("action-id", Value.String "read") ] ~environment:[ ("now", Value.Time 12.5) ] ()
  in
  let result = Decision.with_obligations Decision.permit [ Dacs_policy.Obligation.audit ] in
  let policy resource =
    Policy.Inline_policy
      (Policy.make ~id:("p-" ^ resource) ~issuer:"domain-a"
         [
           Rule.permit
             ~target:Target.(any |> subject_is "role" "doctor" |> resource_is "resource-id" resource)
             ~condition:
               (Expr.Apply
                  ( "and",
                    [ Expr.one_of (Expr.subject_attr "role") [ "doctor"; "nurse" ];
                      Expr.Apply ("integer-greater-than", [ Expr.int 3; Expr.int 2 ]) ] ))
             "permit-doctor";
           Rule.deny "default-deny";
         ])
  in
  let set =
    Policy.Inline_set
      (Policy.make_set ~id:"root"
         [ policy "r1"; Policy.Inline_set (Policy.make_set ~id:"inner" [ policy "r2" ]); Policy.Policy_ref "p-ext" ])
  in
  let event =
    { Wire.author = "domain-a"; seq = 3; at = 1.5; epoch = 1; frontier = [ ("domain-a", 3); ("domain-b", 1) ];
      kind = Wire.Decide { key = "k<&>"; ctx = Context.to_string ctx; decision = "Permit" };
      digest = "\x00\xffdigest"; tag = "\x01tag" }
  in
  let keys = Dacs_crypto.Rsa.generate (Dacs_crypto.Rng.create 7L) ~bits:512 in
  let cert =
    Dacs_crypto.Cert.self_signed keys ~subject:"cn=pdp" ~serial:1 ~not_before:0.0 ~not_after:1e9
  in
  let bodies =
    [
      ("access_request", written (fun buf -> Wire.write_access_request buf ~subject ~action:"read"));
      ("authz_query", written (fun buf -> Wire.write_authz_query buf ctx));
      ("authz_response", written (fun buf -> Wire.write_authz_response ~epoch:3 buf result));
      ("signed_authz_response",
        written (fun buf -> Wire.write_signed_authz_response ~epoch:3 ~key:keys.Dacs_crypto.Rsa.private_ ~cert buf result));
      ("attribute_query", written (fun buf -> Wire.write_attribute_query buf ~category:Context.Subject ~attribute_id:"role" ~subject:"alice"));
      ("attribute_result", written (fun buf -> Wire.write_attribute_result buf [ Value.String "doctor"; Value.Int 3; Value.Bool true ]));
      ("attribute_subscribe", written Wire.write_attribute_subscribe);
      ("attribute_invalidate", written (fun buf -> Wire.write_attribute_invalidate buf ~subject:"alice" ~attribute_id:"role"));
      ("invalidate_ack", written Wire.write_invalidate_ack);
      ("subscribe_ack", written Wire.write_subscribe_ack);
      ("cache_lookup", written (fun buf -> Wire.write_cache_lookup buf ~key:"alice|read|r1"));
      ("cache_answer", written (fun buf -> Wire.write_cache_answer buf (Some result)));
      ("cache_answer (miss)", written (fun buf -> Wire.write_cache_answer buf None));
      ("cache_put", written (fun buf -> Wire.write_cache_put ~sent_at:1.25 buf ~key:"alice|read|r1" result));
      ("cache_put_ack", written Wire.write_cache_put_ack);
      ("policy_query", written (fun buf -> Wire.write_policy_query buf ~scope:"domain-a" ~known_version:1));
      ("policy_response", written (fun buf -> Wire.write_policy_response buf ~version:2 (Some set)));
      ("policy_update", written (fun buf -> Wire.write_policy_update buf ~version:2 set));
      ("policy_update_ack", written (fun buf -> Wire.write_policy_update_ack buf ~version:3));
      ("log_event", written (fun buf -> Wire.write_log_event buf ~signed:true event));
      ("log_sync_request", written (fun buf -> Wire.write_log_sync_request buf ~frontier:[ ("domain-b", 1); ("domain-a", 3) ]));
      ("log_sync_response", written (fun buf -> Wire.write_log_sync_response buf [ event; event ]));
      ("capability_request", written (fun buf -> Wire.write_capability_request buf ~subject ~pairs:[ ("r1", "read"); ("r2", "write") ]));
      ("revocation_check", written (fun buf -> Wire.write_revocation_check buf ~assertion_id:"a-1"));
      ("revocation_status", written (fun buf -> Wire.write_revocation_status buf ~revoked:true));
      ("access_granted", written (fun buf -> Wire.write_access_outcome buf (Wire.Granted { content = "data <x> & 'y'"; encrypted = false })));
      ("access_denied", written (fun buf -> Wire.write_access_outcome buf (Wire.Denied "no & never")));
      ("fault", Soap.fault_body { Soap.code = "Receiver"; reason = "PDP <overloaded>" });
    ]
  in
  let plain = List.map (fun (name, body) -> (name, { Soap.headers = []; body })) bodies in
  let signed =
    Dacs_ws.Security.sign ~key:keys.Dacs_crypto.Rsa.private_ ~cert
      { Soap.headers = []; body = written (fun buf -> Wire.write_authz_query buf ctx) }
  in
  ("authz_query (WS-Security header)", signed) :: plain

let test_wire_frames_reprint () =
  List.iter
    (fun (name, envelope) ->
      let bytes = Soap.to_string envelope in
      check string_ (name ^ ": print, parse, print") bytes (Xml.to_string (Xml.of_string bytes));
      check bool_ (name ^ ": same tree as the reference") true
        (outcome Xml.of_string bytes = outcome Xml_reference.of_string bytes))
    (wire_envelopes ())

(* --- nesting depth limit -------------------------------------------------------- *)

let nested n = String.concat "" (List.init n (fun _ -> "<a>")) ^ String.concat "" (List.init n (fun _ -> "</a>"))

let test_depth_limit () =
  let deepest =
    List.fold_left (fun acc (_, e) -> max acc (Xml.depth (Xml.of_string (Soap.to_string e)))) 0 (wire_envelopes ())
  in
  check bool_ (Printf.sprintf "deepest encoder frame (%d) well below the limit" deepest) true (4 * deepest < Xml.max_depth);
  check int_ "limit itself accepted" Xml.max_depth (Xml.depth (Xml.of_string (nested Xml.max_depth)));
  (match Xml.of_string (nested (Xml.max_depth + 1)) with
  | _ -> Alcotest.fail "expected a depth error"
  | exception Xml.Parse_error { line; column; message } ->
    check int_ "line" 1 line;
    check int_ "column of the offending '<'" ((3 * Xml.max_depth) + 1) column;
    check string_ "message" (Printf.sprintf "elements nested deeper than %d" Xml.max_depth) message);
  let hostile = "<soap:Envelope><soap:Body>" ^ nested 100_000 ^ "</soap:Body></soap:Envelope>" in
  check bool_ "100,000 nested elements are a SOAP error" true (Result.is_error (Soap.parse hostile))

(* --- attribute-count and input-size limits ----------------------------------- *)

let with_attrs n = "<e" ^ String.concat "" (List.init n (fun i -> Printf.sprintf " a%d=\"%d\"" i i)) ^ "/>"

let message_of f s =
  match f s with
  | _ -> None
  | exception Xml.Parse_error { message; _ } -> Some message

(* The cursor reads a start tag's attributes through the same code. *)
let cursor_attrs s =
  let c = Xml.Cursor.of_string s in
  let tag = Xml.Cursor.enter c in
  while Xml.Cursor.next_attr c tag do
    ()
  done

let test_input_limits () =
  let option = Alcotest.option in
  let too_many = Printf.sprintf "more than %d attributes on one element" Xml.max_attributes in
  check int_ "limit itself accepted" Xml.max_attributes
    (List.length (match Xml.of_string (with_attrs Xml.max_attributes) with Xml.Element e -> e.Xml.attrs | Xml.Text _ -> []));
  check (option string_) "one more attribute rejected" (Some too_many) (message_of Xml.of_string (with_attrs (Xml.max_attributes + 1)));
  check (option string_) "the cursor rejects it too" (Some too_many) (message_of cursor_attrs (with_attrs (Xml.max_attributes + 1)));
  let too_large = Printf.sprintf "input larger than %d bytes" Xml.max_input_bytes in
  let document len = "<e>" ^ String.make (len - 7) 'x' ^ "</e>" in
  check (option string_) "the size limit itself accepted" None (message_of Xml.of_string (document Xml.max_input_bytes));
  let huge = document (Xml.max_input_bytes + 1) in
  check (option string_) "one byte over the size limit rejected" (Some too_large) (message_of Xml.of_string huge);
  check (option string_) "the cursor rejects it too" (Some too_large) (message_of Xml.Cursor.of_string huge)

(* Repeated attributes at every distance, where the cursor's duplicate
   check compares the last name read and rescans the ones before it. *)
let test_duplicate_attributes () =
  let error_of f src =
    match f src with
    | _ -> None
    | exception Xml.Parse_error { line; column; message } -> Some (line, column, message)
    | exception Xml_reference.Parse_error { line; column; message } -> Some (line, column, message)
  in
  let located = Alcotest.(option (triple int int string)) in
  List.iter
    (fun src ->
      let want = error_of Xml_reference.of_string src in
      check bool_ (src ^ ": rejected") true (Option.is_some want);
      check located (src ^ ": parser") want (error_of Xml.of_string src);
      check located (src ^ ": cursor") want (error_of cursor_attrs src);
      ignore (cursor_agrees src))
    [ "<e a=\"1\" a=\"2\"/>"; "<e a=\"1\" b='2' a=\"3\"/>"; "<e a=\"1\" b=\"2\" c=\"&amp;\" b=\"4\">x</e>";
      "<ns:e  x:a = \"1\"\n y='&lt;'\tz=\"\" x:a=\"\"/>" ];
  check bool_ "distinct names sharing a prefix are no duplicate" true
    (Option.is_none (message_of cursor_attrs "<e ab=\"1\" a=\"2\" abc=\"3\" b=\"4\"/>"))

let props = List.map QCheck_alcotest.to_alcotest
  [ prop_print_parse_roundtrip; prop_canonical_idempotent; prop_canonical_stable_string;
    prop_parser_total; prop_parser_total_xmlish; prop_has_local_name; prop_reference_documents;
    prop_reference_mutations; prop_reference_bytes; prop_reference_fragments;
    prop_cursor_documents; prop_cursor_mutations; prop_cursor_bytes; prop_cursor_fragments ]

let suite =
  [
    Alcotest.test_case "element basics" `Quick test_element_basics;
    Alcotest.test_case "local name / prefix" `Quick test_local_name_prefix;
    Alcotest.test_case "find_children" `Quick test_find_children;
    Alcotest.test_case "escape" `Quick test_escape;
    Alcotest.test_case "escape roundtrip" `Quick test_escape_roundtrip_via_parse;
    Alcotest.test_case "parse simple" `Quick test_parse_simple;
    Alcotest.test_case "parse prolog/doctype/comments" `Quick test_parse_prolog_doctype_comments;
    Alcotest.test_case "parse CDATA" `Quick test_parse_cdata;
    Alcotest.test_case "parse entities" `Quick test_parse_entities;
    Alcotest.test_case "numeric refs to UTF-8" `Quick test_parse_numeric_utf8;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "error position" `Quick test_parse_error_position;
    Alcotest.test_case "mismatched tag message" `Quick test_mismatched_tag_message;
    Alcotest.test_case "canonical sorts attributes" `Quick test_canonical_sorts_attrs;
    Alcotest.test_case "canonical drops blank text" `Quick test_canonical_drops_blank_text;
    Alcotest.test_case "canonical merges text" `Quick test_canonical_merges_text;
    Alcotest.test_case "canonical idempotent" `Quick test_canonical_idempotent;
    Alcotest.test_case "equality modulo whitespace" `Quick test_equal_modulo_whitespace;
    Alcotest.test_case "size and depth" `Quick test_size_depth;
    Alcotest.test_case "pretty print parses back" `Quick test_pretty_parses_back;
    Alcotest.test_case "wire frames reprint byte for byte" `Quick test_wire_frames_reprint;
    Alcotest.test_case "nesting depth limit" `Quick test_depth_limit;
    Alcotest.test_case "attribute-count and input-size limits" `Quick test_input_limits;
    Alcotest.test_case "cursor frame-reader primitives" `Quick test_cursor_primitives;
    Alcotest.test_case "duplicate attributes at any distance" `Quick test_duplicate_attributes;
  ]
  @ props

let () = Alcotest.run "dacs_xml" [ ("xml", suite) ]
