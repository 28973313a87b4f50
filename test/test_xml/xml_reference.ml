(* The parser that Dacs_xml.Xml shipped before its single-pass rewrite,
   kept verbatim as the reference that test_xml compares the current
   parser against: same tree, or the same Parse_error position and
   message, on every input.  It builds the library's own tree type. *)

type t = Dacs_xml.Xml.t =
  | Element of element
  | Text of string

and element = Dacs_xml.Xml.element = {
  tag : string;
  attrs : (string * string) list;
  children : t list;
}

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of { line : int; column : int; message : string }

type parser_state = { src : string; mutable pos : int; mutable line : int; mutable bol : int }

let fail st message =
  raise (Parse_error { line = st.line; column = st.pos - st.bol + 1; message })

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st =
  (if st.pos < String.length st.src then
     match st.src.[st.pos] with
     | '\n' ->
       st.line <- st.line + 1;
       st.bol <- st.pos + 1
     | _ -> ());
  st.pos <- st.pos + 1

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let expect st s =
  if looking_at st s then
    for _ = 1 to String.length s do
      advance st
    done
  else fail st (Printf.sprintf "expected %S" s)

let skip_ws st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      go ()
    | _ -> ()
  in
  go ()

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'

let parse_name st =
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some c when is_name_char c ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  if st.pos = start then fail st "expected a name";
  String.sub st.src start (st.pos - start)

let utf8_of_code buf code =
  (* Encode a Unicode scalar value as UTF-8. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_entity st buf =
  (* Called with st.pos on '&'. *)
  advance st;
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some ';' -> ()
    | Some _ ->
      advance st;
      go ()
    | None -> fail st "unterminated entity reference"
  in
  go ();
  let name = String.sub st.src start (st.pos - start) in
  advance st;
  match name with
  | "lt" -> Buffer.add_char buf '<'
  | "gt" -> Buffer.add_char buf '>'
  | "amp" -> Buffer.add_char buf '&'
  | "quot" -> Buffer.add_char buf '"'
  | "apos" -> Buffer.add_char buf '\''
  | _ ->
    if String.length name > 1 && name.[0] = '#' then begin
      (* CharRef ::= '&#' [0-9]+ ';' | '&#x' [0-9a-fA-F]+ ';' (XML 1.0
         production 66, with 'X' accepted too). *)
      let hex = name.[1] = 'x' || name.[1] = 'X' in
      let digits = String.sub name (if hex then 2 else 1) (String.length name - if hex then 2 else 1) in
      let is_digit = function
        | '0' .. '9' -> true
        | 'a' .. 'f' | 'A' .. 'F' -> hex
        | _ -> false
      in
      if digits = "" || not (String.for_all is_digit digits) then
        fail st (Printf.sprintf "bad character reference &%s;" name);
      let code =
        String.fold_left
          (fun acc c ->
            let d = int_of_string ((if hex then "0x" else "") ^ String.make 1 c) in
            if acc > 0x10FFFF then acc else (acc * if hex then 16 else 10) + d)
          0 digits
      in
      if code > 0x10FFFF then fail st "character reference out of range";
      utf8_of_code buf code
    end
    else fail st (Printf.sprintf "unknown entity &%s;" name)

let parse_attr_value st =
  let quote =
    match peek st with
    | Some (('"' | '\'') as q) ->
      advance st;
      q
    | _ -> fail st "expected a quoted attribute value"
  in
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated attribute value"
    | Some c when c = quote -> advance st
    | Some '&' ->
      parse_entity st buf;
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let skip_until st closing =
  let rec go () =
    if looking_at st closing then expect st closing
    else if peek st = None then fail st (Printf.sprintf "unterminated construct, expected %S" closing)
    else begin
      advance st;
      go ()
    end
  in
  go ()

let rec skip_misc st =
  skip_ws st;
  if looking_at st "<?" then begin
    skip_until st "?>";
    skip_misc st
  end
  else if looking_at st "<!--" then begin
    skip_until st "-->";
    skip_misc st
  end
  else if looking_at st "<!DOCTYPE" then begin
    (* Skip to the matching '>' (internal subsets with nested brackets are
       out of scope for this subset). *)
    skip_until st ">";
    skip_misc st
  end

let rec parse_element st =
  expect st "<";
  let tag = parse_name st in
  let rec attrs_loop acc =
    skip_ws st;
    match peek st with
    | Some '/' ->
      advance st;
      expect st ">";
      Element { tag; attrs = List.rev acc; children = [] }
    | Some '>' ->
      advance st;
      let children = parse_content st tag in
      Element { tag; attrs = List.rev acc; children }
    | Some c when is_name_char c ->
      let name = parse_name st in
      skip_ws st;
      expect st "=";
      skip_ws st;
      let value = parse_attr_value st in
      if List.mem_assoc name acc then fail st (Printf.sprintf "duplicate attribute %s" name);
      attrs_loop ((name, value) :: acc)
    | _ -> fail st "malformed start tag"
  in
  attrs_loop []

and parse_content st tag =
  let buf = Buffer.create 16 in
  let flush_text acc =
    if Buffer.length buf = 0 then acc
    else begin
      let s = Buffer.contents buf in
      Buffer.clear buf;
      Text s :: acc
    end
  in
  let rec go acc =
    if looking_at st "</" then begin
      let acc = flush_text acc in
      expect st "</";
      let closing = parse_name st in
      if closing <> tag then
        fail st (Printf.sprintf "mismatched closing tag </%s> (expected </%s>)" closing tag);
      skip_ws st;
      expect st ">";
      List.rev acc
    end
    else if looking_at st "<!--" then begin
      skip_until st "-->";
      go acc
    end
    else if looking_at st "<![CDATA[" then begin
      expect st "<![CDATA[";
      let start = st.pos in
      let rec find () =
        if looking_at st "]]>" then begin
          Buffer.add_string buf (String.sub st.src start (st.pos - start));
          expect st "]]>"
        end
        else if peek st = None then fail st "unterminated CDATA section"
        else begin
          advance st;
          find ()
        end
      in
      find ();
      go acc
    end
    else if looking_at st "<?" then begin
      skip_until st "?>";
      go acc
    end
    else
      match peek st with
      | None -> fail st (Printf.sprintf "unterminated element <%s>" tag)
      | Some '<' ->
        let acc = flush_text acc in
        let child = parse_element st in
        go (child :: acc)
      | Some '&' ->
        parse_entity st buf;
        go acc
      | Some c ->
        Buffer.add_char buf c;
        advance st;
        go acc
  in
  go []

let of_string src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  skip_misc st;
  if peek st <> Some '<' then fail st "expected a root element";
  let root = parse_element st in
  skip_misc st;
  if peek st <> None then fail st "trailing content after the root element";
  root

let of_string_opt src = try Some (of_string src) with Parse_error _ -> None

let parse_error_to_string = function
  | Parse_error { line; column; message } ->
    Some (Printf.sprintf "XML parse error at line %d, column %d: %s" line column message)
  | _ -> None
