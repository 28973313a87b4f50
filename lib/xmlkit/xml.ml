type t =
  | Element of element
  | Text of string

and element = {
  tag : string;
  attrs : (string * string) list;
  children : t list;
}

let element ?(attrs = []) ?(children = []) tag = Element { tag; attrs; children }
let text s = Text s

let tag = function Element e -> e.tag | Text _ -> ""

let local_name name =
  match String.index_opt name ':' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

let attr node name =
  match node with
  | Text _ -> None
  | Element e -> List.assoc_opt name e.attrs

let children = function Element e -> e.children | Text _ -> []

(* Offset of the local part of [name]: just past its first ':', else 0. *)
let rec local_start name i =
  if i >= String.length name then 0
  else if String.unsafe_get name i = ':' then i + 1
  else local_start name (i + 1)

(* [t] from index [j] on equals [s] from index [i + j] on; [s] is long enough. *)
let rec same_from s i t j =
  j >= String.length t || (String.unsafe_get s (i + j) = String.unsafe_get t j && same_from s i t (j + 1))

let has_local_name tag name =
  let start = local_start tag 0 in
  String.length tag - start = String.length name && same_from tag start name 0

let named want = function Element e -> has_local_name e.tag want | Text _ -> false
let find_children node name = List.filter (named (local_name name)) (children node)
let find_child node name = List.find_opt (named (local_name name)) (children node)

let rec text_content node =
  match node with
  | Text s -> s
  | Element { children = [ Text s ]; _ } -> s
  | Element e -> String.concat "" (List.map text_content e.children)

let is_element = function Element _ -> true | Text _ -> false

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escaped = function
  | '&' -> "&amp;"
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '"' -> "&quot;"
  | '\'' -> "&apos;"
  | _ -> ""

(* Appends [s] escaped, copying each run without specials in one piece. *)
let add_escaped buf s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let e = escaped (String.unsafe_get s i) in
    if String.length e > 0 then begin
      Buffer.add_substring buf s !run (i - !run);
      Buffer.add_string buf e;
      run := i + 1
    end
  done;
  Buffer.add_substring buf s !run (n - !run)

let rec print_attrs buf = function
  | [] -> ()
  | (k, v) :: rest ->
    Buffer.add_char buf ' ';
    Buffer.add_string buf k;
    Buffer.add_string buf "=\"";
    add_escaped buf v;
    Buffer.add_char buf '"';
    print_attrs buf rest

let rec print_compact buf node =
  match node with
  | Text s -> add_escaped buf s
  | Element e ->
    Buffer.add_char buf '<';
    Buffer.add_string buf e.tag;
    print_attrs buf e.attrs;
    if e.children = [] then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      print_all buf e.children;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>'
    end

and print_all buf = function
  | [] -> ()
  | node :: rest ->
    print_compact buf node;
    print_all buf rest

let print = print_compact

let to_string node =
  let buf = Buffer.create 256 in
  print_compact buf node;
  Buffer.contents buf

let to_pretty_string ?(indent = 2) node =
  let buf = Buffer.create 256 in
  let pad level = Buffer.add_string buf (String.make (level * indent) ' ') in
  let rec go level node =
    match node with
    | Text s ->
      pad level;
      add_escaped buf s;
      Buffer.add_char buf '\n'
    | Element e ->
      pad level;
      Buffer.add_char buf '<';
      Buffer.add_string buf e.tag;
      print_attrs buf e.attrs;
      (match e.children with
      | [] -> Buffer.add_string buf "/>\n"
      | [ Text s ] ->
        Buffer.add_char buf '>';
        add_escaped buf s;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.tag;
        Buffer.add_string buf ">\n"
      | kids ->
        Buffer.add_string buf ">\n";
        List.iter (go (level + 1)) kids;
        pad level;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.tag;
        Buffer.add_string buf ">\n")
  in
  go 0 node;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Canonical form                                                      *)
(* ------------------------------------------------------------------ *)

let is_blank s =
  let n = String.length s in
  let rec go i = i >= n || ((s.[i] = ' ' || s.[i] = '\t' || s.[i] = '\n' || s.[i] = '\r') && go (i + 1)) in
  go 0

let rec canonical node =
  match node with
  | Text s -> Text s
  | Element e ->
    let attrs = List.sort (fun (a, _) (b, _) -> compare a b) e.attrs in
    let kids = List.map canonical e.children in
    (* Merge adjacent text nodes, drop whitespace-only ones. *)
    let merged =
      List.fold_left
        (fun acc k ->
          match (k, acc) with
          | Text s, _ when is_blank s -> acc
          | Text s, Text p :: rest -> Text (p ^ s) :: rest
          | k, acc -> k :: acc)
        [] kids
      |> List.rev
    in
    Element { e with attrs; children = merged }

let canonical_string node = to_string (canonical node)

let equal a b = canonical a = canonical b

let rec size = function
  | Text _ -> 1
  | Element e -> 1 + List.fold_left (fun acc k -> acc + size k) 0 e.children

let rec depth = function
  | Text _ -> 0
  | Element e -> 1 + List.fold_left (fun acc k -> max acc (depth k)) 0 e.children

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of { line : int; column : int; message : string }

let max_depth = 256
let max_attributes = 64
let max_input_bytes = 16 * 1024 * 1024

(* A span of the input (a name or a run of character data) packed in one
   int: its offset above [len_bits], its length below.  No span is longer
   than [max_input_bytes] = 2^24, so 25 bits hold any length, and a
   63-bit int leaves 38 bits for the offset. *)
let len_bits = 25
let span off len = (off lsl len_bits) lor len
let span_off s = s lsr len_bits
let span_len s = s land ((1 lsl len_bits) - 1)

(* The parser scans [src] by index between [origin] and [stop], tracks
   nothing but the offset and examines each byte once: markup is tested
   a byte at a time, a name is classified by [name_chars] and from then on
   known by its span, and a run of character data stays a span of [src]
   until a reader asks for a copy.  [buf] (empty between runs) assembles
   only the runs that entities, CDATA, comments or PIs interrupt.  The
   same state is the pull {!Cursor}: [depth] counts the open elements it
   has entered and [empty] says the start tag just read was self-closing;
   [attrs] counts the attributes read from the current start tag and
   [attr] spans the last one's name.  [run] spans the last attribute
   value or text run read, or is -1 when that run was assembled in [buf]
   and kept, decoded, in [decoded]. *)
type parser = {
  src : string;
  origin : int;
  stop : int;
  mutable pos : int;
  buf : Buffer.t;
  mutable depth : int;
  mutable empty : bool;
  mutable attrs : int;
  mutable attr : int;
  mutable run : int;
  mutable decoded : string;
}

let fail p message =
  let line = ref 1 and bol = ref p.origin in
  for i = p.origin to p.pos - 1 do
    if String.unsafe_get p.src i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  raise (Parse_error { line = !line; column = p.pos - !bol + 1; message })

(* Runs only when no other parser is mid-run: a run never calls out, so
   one scratch buffer serves every parser in turn. *)
let scratch = Buffer.create 64

let make_parser src off len =
  if off < 0 || len < 0 || off + len > String.length src then invalid_arg "Xml: slice out of bounds";
  Buffer.clear scratch;
  let p =
    {
      src;
      origin = off;
      stop = off + len;
      pos = off;
      buf = scratch;
      depth = 0;
      empty = false;
      attrs = 0;
      attr = 0;
      run = 0;
      decoded = "";
    }
  in
  if len > max_input_bytes then fail p (Printf.sprintf "input larger than %d bytes" max_input_bytes);
  p

let at_end p = p.pos >= p.stop
let looking_at p s = p.pos + String.length s <= p.stop && same_from p.src p.pos s 0
let at_byte p c = p.pos < p.stop && String.unsafe_get p.src p.pos = c

(* The cursor is on "</". *)
let at_close p =
  p.pos + 1 < p.stop && String.unsafe_get p.src p.pos = '<' && String.unsafe_get p.src (p.pos + 1) = '/'

let expected_eq = {|expected "="|}
let expected_gt = {|expected ">"|}
let expect_byte p c message = if at_byte p c then p.pos <- p.pos + 1 else fail p message

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* '\001' at the code of each byte a name may hold. *)
let name_chars =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> '\001'
      | _ -> '\000')

let is_name_char c = String.unsafe_get name_chars (Char.code c) <> '\000'

(* Offset just past the first ':' in [s.[i..stop)], or -1. *)
let rec colon_end s i stop = if i >= stop then -1 else if String.unsafe_get s i = ':' then i + 1 else colon_end s (i + 1) stop

let rec ws_end s i stop = if i < stop && is_ws (String.unsafe_get s i) then ws_end s (i + 1) stop else i
let rec name_end s i stop = if i < stop && is_name_char (String.unsafe_get s i) then name_end s (i + 1) stop else i

(* First index from [i] on holding [a] or [b], or [stop]. *)
let rec index_either s i stop a b =
  if i >= stop then stop
  else
    let c = String.unsafe_get s i in
    if c = a || c = b then i else index_either s (i + 1) stop a b

(* First index from [i] on where [t] occurs in [s] before [stop], or -1. *)
let rec find_from s i stop t =
  if i + String.length t > stop then -1
  else if same_from s i t 0 then i
  else find_from s (i + 1) stop t

let skip_ws p = p.pos <- ws_end p.src p.pos p.stop

(* Leaves the cursor after a non-empty name and returns the name's span. *)
let name_span p =
  let start = p.pos in
  p.pos <- name_end p.src start p.stop;
  if p.pos = start then fail p "expected a name";
  span start (p.pos - start)

let span_string p s = String.sub p.src (span_off s) (span_len s)

let rec same_bytes s a b i n =
  i >= n || (String.unsafe_get s (a + i) = String.unsafe_get s (b + i) && same_bytes s a b (i + 1) n)

let same_span p a b = span_len a = span_len b && same_bytes p.src (span_off a) (span_off b) 0 (span_len a)

(* Moves the cursor past the first [closing] at or after it. *)
let skip_until p closing =
  let i = find_from p.src p.pos p.stop closing in
  if i < 0 then begin
    p.pos <- p.stop;
    fail p (Printf.sprintf "unterminated construct, expected %S" closing)
  end;
  p.pos <- i + String.length closing

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

let span_is s start len t = len = String.length t && same_from s start t 0
let span_equals p s t = span_is p.src (span_off s) (span_len s) t

let predefined_entity src start len =
  if span_is src start len "lt" then Some '<'
  else if span_is src start len "gt" then Some '>'
  else if span_is src start len "amp" then Some '&'
  else if span_is src start len "quot" then Some '"'
  else if span_is src start len "apos" then Some '\''
  else None

(* The code point of a character reference's [name] (the text between
   ['&'] and [';']), by XML's grammar: ['#'] then [[0-9]+], or ['#x'] or
   ['#X'] then [[0-9a-fA-F]+].  [-1] when [name] does not match; values
   past U+10FFFF saturate at 0x110000, so a long run of digits cannot
   overflow. *)
let char_ref_code name =
  let n = String.length name in
  let hex = n > 1 && (name.[1] = 'x' || name.[1] = 'X') in
  let first = if hex then 2 else 1 in
  let rec go i acc =
    if i = n then acc
    else
      let d =
        match name.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c when hex -> Char.code c - 87
        | 'A' .. 'F' as c when hex -> Char.code c - 55
        | _ -> -1
      in
      if d < 0 then -1 else go (i + 1) (min 0x110000 ((acc * if hex then 16 else 10) + d))
  in
  if first >= n then -1 else go first 0

(* Decodes the reference at the cursor (on '&') into [p.buf]. *)
let parse_entity p =
  let src = p.src in
  let start = p.pos + 1 in
  let semi = index_either src start p.stop ';' ';' in
  if semi >= p.stop then begin
    p.pos <- p.stop;
    fail p "unterminated entity reference"
  end;
  p.pos <- semi + 1;
  match predefined_entity src start (semi - start) with
  | Some c -> Buffer.add_char p.buf c
  | None ->
    let name = String.sub src start (semi - start) in
    if String.length name > 1 && name.[0] = '#' then begin
      let code = char_ref_code name in
      if code < 0 then fail p (Printf.sprintf "bad character reference &%s;" name);
      if code > 0x10FFFF then fail p "character reference out of range";
      utf8_of_code p.buf code
    end
    else fail p (Printf.sprintf "unknown entity &%s;" name)

(* Keeps the buffered run as the current one, leaving [p.buf] empty. *)
let take_buffer p =
  p.decoded <- (if Buffer.length p.buf = 0 then "" else Buffer.contents p.buf);
  Buffer.clear p.buf;
  p.run <- -1

(* The current run, copied out; [""] copies nothing. *)
let run_value p =
  if p.run < 0 then p.decoded else if span_len p.run = 0 then "" else span_string p p.run

let run_is p t = if p.run < 0 then String.equal p.decoded t else span_equals p p.run t

let rec attr_value_rest p quote =
  let src = p.src in
  if at_end p then fail p "unterminated attribute value"
  else
    match String.unsafe_get src p.pos with
    | c when c = quote ->
      p.pos <- p.pos + 1;
      take_buffer p
    | '&' ->
      parse_entity p;
      attr_value_rest p quote
    | _ ->
      let stop = index_either src p.pos p.stop quote '&' in
      Buffer.add_substring p.buf src p.pos (stop - p.pos);
      p.pos <- stop;
      attr_value_rest p quote

(* The quoted value at the cursor becomes the current run. *)
let attr_value p =
  let src = p.src in
  let quote = if at_end p then ' ' else String.unsafe_get src p.pos in
  if quote <> '"' && quote <> '\'' then fail p "expected a quoted attribute value";
  let start = p.pos + 1 in
  let stop = index_either src start p.stop quote '&' in
  if stop < p.stop && String.unsafe_get src stop = quote then begin
    p.pos <- stop + 1;
    p.run <- span start (stop - start)
  end
  else begin
    p.pos <- start;
    attr_value_rest p quote
  end

(* One attribute at the cursor, which is on its name: leaves the cursor
   after the value (the current run) and returns the name's span.
   [count] attributes of this start tag came before it. *)
let attribute p count =
  if count >= max_attributes then fail p (Printf.sprintf "more than %d attributes on one element" max_attributes);
  let name = name_span p in
  skip_ws p;
  expect_byte p '=' expected_eq;
  skip_ws p;
  attr_value p;
  name

let rec skip_misc p =
  skip_ws p;
  if looking_at p "<?" then begin
    skip_until p "?>";
    skip_misc p
  end
  else if looking_at p "<!--" then begin
    skip_until p "-->";
    skip_misc p
  end
  else if looking_at p "<!DOCTYPE" then begin
    (* Skip to the matching '>' (internal subsets with nested brackets are
       out of scope for this subset). *)
    skip_until p ">";
    skip_misc p
  end

(* The cursor is on '<': a comment, CDATA section or PI, which character
   data continues across, starts there; any other '<' starts a child
   element or closing tag.  Only a '!' or '?' after the '<' is probed. *)
let at_interruption p =
  let i = p.pos + 1 in
  i < p.stop
  &&
  match String.unsafe_get p.src i with
  | '?' -> true
  | '!' -> looking_at p "<!--" || looking_at p "<![CDATA["
  | _ -> false

let skip_interruption p =
  if String.unsafe_get p.src (p.pos + 1) = '?' then skip_until p "?>"
  else if String.unsafe_get p.src (p.pos + 2) = '[' then begin
    let start = p.pos + 9 in
    let stop = find_from p.src start p.stop "]]>" in
    if stop < 0 then begin
      p.pos <- p.stop;
      fail p "unterminated CDATA section"
    end;
    Buffer.add_substring p.buf p.src start (stop - start);
    p.pos <- stop + 3
  end
  else skip_until p "-->"

(* Character data in [p.buf] up to the next child element or closing tag
   of the element [tag], then kept as the current run. *)
let rec buffered_text p tag =
  let src = p.src in
  if at_end p then fail p (Printf.sprintf "unterminated element <%s>" (span_string p tag))
  else
    match String.unsafe_get src p.pos with
    | '&' ->
      parse_entity p;
      buffered_text p tag
    | '<' when at_interruption p ->
      skip_interruption p;
      buffered_text p tag
    | '<' -> take_buffer p
    | _ ->
      let stop = index_either src p.pos p.stop '<' '&' in
      Buffer.add_substring p.buf src p.pos (stop - p.pos);
      p.pos <- stop;
      buffered_text p tag

(* Character data from the cursor up to the next child element or closing
   tag of the element [tag], where it leaves the cursor; the data becomes
   the current run. *)
let text_run p tag =
  let src = p.src in
  let start = p.pos in
  p.pos <- index_either src start p.stop '<' '&';
  if (not (at_end p)) && String.unsafe_get src p.pos = '<' && not (at_interruption p) then
    p.run <- span start (p.pos - start)
  else begin
    Buffer.add_substring p.buf src start (p.pos - start);
    buffered_text p tag
  end

(* The cursor is on "</": consumes the closing tag of the element [tag],
   whose name it compares in place. *)
let closing_tag p tag =
  p.pos <- p.pos + 2;
  let src = p.src and len = span_len tag in
  let e = p.pos + len in
  let same =
    e <= p.stop
    && same_bytes src (span_off tag) p.pos 0 len
    && not (e < p.stop && is_name_char (String.unsafe_get src e))
  in
  if same then p.pos <- e
  else begin
    let name = name_span p in
    fail p
      (Printf.sprintf "mismatched closing tag </%s> (expected </%s>)" (span_string p name) (span_string p tag))
  end;
  skip_ws p;
  expect_byte p '>' expected_gt

(* The cursor is on '<'; [depth] counts the element about to be read. *)
let rec parse_element p depth =
  if depth > max_depth then fail p (Printf.sprintf "elements nested deeper than %d" max_depth);
  p.pos <- p.pos + 1;
  let name = name_span p in
  parse_attrs p (span_string p name) name depth 0 []

and parse_attrs p tag name depth count acc =
  skip_ws p;
  (* The end of input reads as a blank, which no branch accepts. *)
  let c = if at_end p then ' ' else String.unsafe_get p.src p.pos in
  if c = '/' then begin
    p.pos <- p.pos + 1;
    expect_byte p '>' expected_gt;
    Element { tag; attrs = List.rev acc; children = [] }
  end
  else if c = '>' then begin
    p.pos <- p.pos + 1;
    let children = parse_content p name depth [] in
    Element { tag; attrs = List.rev acc; children }
  end
  else if is_name_char c then begin
    let key = span_string p (attribute p count) in
    if List.mem_assoc key acc then fail p (Printf.sprintf "duplicate attribute %s" key);
    let value = run_value p in
    parse_attrs p tag name depth (count + 1) ((key, value) :: acc)
  end
  else fail p "malformed start tag"

and parse_content p name depth acc =
  text_run p name;
  let text = run_value p in
  let acc = if String.length text = 0 then acc else Text text :: acc in
  if at_close p then begin
    closing_tag p name;
    List.rev acc
  end
  else parse_content p name depth (parse_element p (depth + 1) :: acc)

let root p =
  skip_misc p;
  if at_end p || String.unsafe_get p.src p.pos <> '<' then fail p "expected a root element"

let finish p =
  skip_misc p;
  if not (at_end p) then fail p "trailing content after the root element"

let document p =
  root p;
  let node = parse_element p 1 in
  finish p;
  node

let of_string src = document (make_parser src 0 (String.length src))

let of_string_opt src = try Some (of_string src) with Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* Pull cursor                                                         *)
(* ------------------------------------------------------------------ *)

module Cursor = struct
  type t = parser

  let of_slice src off len =
    let p = make_parser src off len in
    root p;
    p

  let of_string src = of_slice src 0 (String.length src)

  let fail = fail
  let finish = finish

  let at_start_tag p = at_byte p '<' && not (at_close p)

  (* A tag's handle is its name's span. *)
  let enter p =
    if not (at_start_tag p) then fail p "expected a start tag";
    if p.depth >= max_depth then fail p (Printf.sprintf "elements nested deeper than %d" max_depth);
    p.pos <- p.pos + 1;
    let tag = name_span p in
    p.depth <- p.depth + 1;
    p.attrs <- 0;
    p.empty <- false;
    tag

  let is = span_equals

  (* [s] from [i] on holds [t], which has no ':'. *)
  let rec same_unprefixed s i t j =
    j >= String.length t
    ||
    let c = String.unsafe_get t j in
    c <> ':' && String.unsafe_get s (i + j) = c && same_unprefixed s i t (j + 1)

  (* In place: the name's last [String.length name] bytes are [name], and
     its first ':', if it has one, is the byte just before them. *)
  let has_local_name p tag name =
    let src = p.src and off = span_off tag in
    let prefix = span_len tag - String.length name in
    if prefix = 0 then same_unprefixed src off name 0
    else
      prefix > 0
      && String.unsafe_get src (off + prefix - 1) = ':'
      && colon_end src off (off + prefix - 1) < 0
      && same_from src (off + prefix) name 0

  let tag_name = span_string

  let at_local_name p name =
    at_start_tag p
    &&
    let start = p.pos + 1 in
    has_local_name p (span start (name_end p.src start p.stop - start)) name

  (* Whether the attribute named [at] repeats an earlier one of the start
     tag: the last one's name is at hand, and the ones before it (read and
     validated already, from [i] on up to [limit]) are rescanned. *)
  let rec repeats_before p at i limit =
    let src = p.src in
    let i = ws_end src i p.stop in
    i < limit
    &&
    let e = name_end src i p.stop in
    same_span p (span i (e - i)) at
    ||
    let quote_at = ws_end src (ws_end src e p.stop + 1) p.stop in
    let quote = String.unsafe_get src quote_at in
    repeats_before p at (index_either src (quote_at + 1) p.stop quote quote + 1) limit

  let repeats p tag at =
    p.attrs > 0
    && (same_span p p.attr at
       || (p.attrs > 1 && repeats_before p at (span_off tag + span_len tag) (span_off p.attr)))

  let next_attr p tag =
    skip_ws p;
    let c = if at_end p then ' ' else String.unsafe_get p.src p.pos in
    if c = '/' then begin
      p.pos <- p.pos + 1;
      expect_byte p '>' expected_gt;
      p.empty <- true;
      false
    end
    else if c = '>' then begin
      p.pos <- p.pos + 1;
      false
    end
    else if is_name_char c then begin
      let at = attribute p p.attrs in
      if repeats p tag at then fail p (Printf.sprintf "duplicate attribute %s" (span_string p at));
      p.attrs <- p.attrs + 1;
      p.attr <- at;
      true
    end
    else fail p "malformed start tag"

  let attr_is p name = span_equals p p.attr name
  let attr_name p = span_string p p.attr
  let value = run_value
  let value_is = run_is

  let next_child p tag =
    if p.empty then begin
      p.run <- span 0 0;
      false
    end
    else begin
      text_run p tag;
      not (at_close p)
    end

  let unexpected_child p tag = fail p (Printf.sprintf "unexpected element inside <%s>" (span_string p tag))

  let read_text p tag =
    if p.empty then p.run <- span 0 0
    else begin
      text_run p tag;
      if not (at_close p) then unexpected_child p tag
    end

  let text p tag =
    read_text p tag;
    run_value p

  let close p tag =
    if p.empty then p.empty <- false
    else begin
      if not (at_close p) then begin
        text_run p tag;
        if not (at_close p) then unexpected_child p tag
      end;
      closing_tag p tag
    end;
    p.depth <- p.depth - 1

  (* Frame readers read each element exactly as it was written: the
     expected tag, each attribute in the writer's order, and none after. *)
  let enter_named p name =
    let tag = enter p in
    if not (has_local_name p tag name) then
      fail p (Printf.sprintf "expected <%s>, got <%s>" name (tag_name p tag));
    tag

  let attr_named p tag name =
    if not (next_attr p tag && attr_is p name) then
      fail p (Printf.sprintf "<%s> expects attribute %s next" (tag_name p tag) name);
    value p

  let end_attrs p tag =
    if next_attr p tag then
      fail p (Printf.sprintf "<%s> has an unexpected attribute" (tag_name p tag))

  let end_leaf p tag =
    end_attrs p tag;
    close p tag

  let leaf0 name p = end_leaf p (enter_named p name)

  let leaf1 p name a =
    let tag = enter_named p name in
    let va = attr_named p tag a in
    end_leaf p tag;
    va

  let leaf2 p name a b =
    let tag = enter_named p name in
    let va = attr_named p tag a in
    let vb = attr_named p tag b in
    end_leaf p tag;
    (va, vb)

  let subtree p = parse_element p (p.depth + 1)

  let with_bytes p read =
    let start = p.pos in
    let v = read p in
    (v, String.sub p.src start (p.pos - start))

  let read p f =
    match f p with
    | v -> Ok v
    | exception Parse_error { message; _ } -> Error message

  let parse src f =
    match of_string src with
    | p -> read p (fun p -> let v = f p in finish p; v)
    | exception Parse_error { message; _ } -> Error message
end
