(** XML document model for the DACS libraries.

    A deliberately small XML 1.0 subset: elements, attributes, character
    data, comments and CDATA on input (both normalised away), the five
    predefined entities and numeric character references.  This is the
    carrier for XACML policies, SAML assertions and SOAP envelopes, so it
    favours a predictable canonical form over full spec coverage. *)

type t =
  | Element of element
  | Text of string

and element = {
  tag : string;  (** possibly prefixed, e.g. ["xacml:Policy"] *)
  attrs : (string * string) list;
  children : t list;
}

(** {1 Construction} *)

val element : ?attrs:(string * string) list -> ?children:t list -> string -> t
(** [element tag] builds an element node. *)

val text : string -> t

(** {1 Accessors} *)

val tag : t -> string
(** [tag node] is the element tag, or [""] for text nodes. *)

val local_name : string -> string
(** [local_name "saml:Assertion"] is ["Assertion"]. *)

val has_local_name : string -> string -> bool
(** [has_local_name tag name] is [local_name tag = name], compared in
    place without copying the local part out of [tag]. *)

val attr : t -> string -> string option
(** [attr node name] is the value of attribute [name], if present. *)

val children : t -> t list

val find_child : t -> string -> t option
(** First child element whose local name matches. *)

val find_children : t -> string -> t list
(** All child elements whose local name matches, in document order. *)

val text_content : t -> string
(** Concatenation of all text descendants; an element whose only child is
    text returns that child's string itself. *)

val is_element : t -> bool

(** {1 Printing} *)

val to_string : t -> string
(** Compact single-line serialisation. *)

val print : Buffer.t -> t -> unit
(** [print buf node] appends [to_string node] to [buf] — how a tree rides
    inside a larger message without a string of its own. *)

val add_escaped : Buffer.t -> string -> unit
(** [add_escaped buf s] appends [escape s]: the one escaping rule that
    {!print} and every direct message writer share. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends [string_of_int n] digit by digit, without
    the intermediate string. *)

val to_pretty_string : t -> string
(** Serialisation for human consumption, indented two spaces a level. *)

val canonical_string : t -> string
(** The canonical serialisation: attributes sorted by name,
    whitespace-only text dropped, adjacent text merged, comments already
    absent.  Canonicalising is idempotent and two semantically equal
    documents share one canonical serialisation — the form that
    signatures are computed over. *)

(** {1 Parsing} *)

exception Parse_error of { line : int; column : int; message : string }
(** [line] and [column] (both 1-based; the column counts bytes) locate the
    offending byte.  The parser tracks only a byte offset and works them
    out when it raises, so well-formed input never pays for them. *)

val max_depth : int
(** The deepest element nesting {!of_string} accepts: 256, where a leaf
    root has depth 1 (as in {!depth}).  The parser recurses once per
    level, so the bound keeps hostile input from exhausting the stack;
    the deepest document the DACS encoders produce nests about ten
    levels. *)

val max_attributes : int
(** The most attributes one start tag may carry: 64.  The largest count
    any test, CLI run or [dacsbench] workload produces is 7 (an offline
    [LogEvent]). *)

val max_input_bytes : int
(** The largest input {!of_string} and {!Cursor.of_slice} accept:
    16 MiB, reported at the first byte.  The largest document any CLI run
    or [dacsbench] workload parses is 53,281 bytes ([cold-wide]; 13,393
    on [partition-offline], log-sync responses included), and the largest
    any test feeds is the 700,054-byte hostile nesting case. *)

val of_string : string -> t
(** Parse a complete document (prolog and doctype are skipped) in one
    pass over the bytes.
    @raise Parse_error on malformed input, including an element nested
    deeper than {!max_depth} (reported at its ['<']), a start tag with
    more than {!max_attributes} attributes and an input longer than
    {!max_input_bytes}. *)

val of_string_opt : string -> t option

(** {1 Pull cursor}

    The parser's own state, exposed so a decoder can read a message in
    place: one pass over the bytes that arrived, building no tree and
    copying out only the attribute values and text it keeps.  Its cost
    model: each byte is examined once (markup is tested a byte at a time,
    and a comment, CDATA or PI probe runs only after ["<!"] or ["<?"]); a
    tag or attribute name, once scanned, is known by its offset and length,
    so {!Cursor.is}, {!Cursor.has_local_name}, {!Cursor.attr_is} and the
    closing tag compare it in place; and an attribute value or text run is
    copied only when {!Cursor.value} or {!Cursor.text} asks for it
    ({!Cursor.value_is} compares it in place).  It checks
    exactly what {!of_string} checks (well-formedness, {!max_depth},
    {!max_attributes}, {!max_input_bytes}) with the same code, and every
    failure raises {!Parse_error}.

    A reader walks one element at a time: {!Cursor.enter} a start tag,
    read its attributes with {!Cursor.next_attr}, then either its
    {!Cursor.text} or its children ({!Cursor.next_child} before each),
    and {!Cursor.close} it with the tag {!Cursor.enter} returned.  Any
    element it does not read field by field can be taken whole with
    {!Cursor.subtree}. *)

module Cursor : sig
  type tree := t
  type t

  val of_slice : string -> int -> int -> t
  (** [of_slice src off len] reads the document in [src] from [off] for
      [len] bytes, positioned on the root element's ['<'] (the prolog is
      skipped).
      @raise Parse_error when no root element follows the prolog.
      @raise Invalid_argument when the slice is out of bounds. *)

  val read : t -> (t -> 'a) -> ('a, string) result
  (** [read c f] runs [f c], turning {!Parse_error} into [Error message]. *)

  val parse : string -> (t -> 'a) -> ('a, string) result
  (** [parse src f] reads the whole document [src] with [f] at its root
      element, then checks that only trailing misc follows; total like
      {!read}. *)

  val fail : t -> string -> 'a
  (** Raise {!Parse_error} at the cursor — how a reader rejects a
      well-formed document of the wrong shape. *)

  val enter : t -> int
  (** Consume ['<'] and the tag name of the start tag at the cursor and
      return the tag's handle (its name's offset and length, packed in
      one int), which names the element to {!is}, {!next_child}, {!text}
      and {!close}. *)

  val is : t -> int -> string -> bool
  (** [is c tag name]: the tag's full name (prefix included) is [name]. *)

  val has_local_name : t -> int -> string -> bool
  (** Like {!Xml.has_local_name} on the tag's name. *)

  val tag_name : t -> int -> string
  (** The tag's name, copied out (for error messages). *)

  val at_local_name : t -> string -> bool
  (** The cursor is on a start tag whose local name is the given one;
      consumes nothing. *)

  val next_attr : t -> int -> bool
  (** Read the next attribute of the start tag being read, or finish the
      tag and return [false].  Duplicates fail, as in {!of_string}. *)

  val attr_is : t -> string -> bool
  (** The attribute just read is named exactly this. *)

  val attr_name : t -> string
  (** The name of the attribute just read, copied out. *)

  val value : t -> string
  (** The attribute value just read, or the character data {!read_text}
      or {!next_child} just read, entities decoded and copied out.  The
      next move of the cursor replaces it. *)

  val value_is : t -> string -> bool
  (** [value_is c s] is [value c = s], compared in place. *)

  val next_child : t -> int -> bool
  (** Skip character data inside the tag's element and report whether a
      child element starts at the cursor ([false] at the closing tag).
      The data skipped (possibly none) is left for {!value}. *)

  val text : t -> int -> string
  (** The character data of a text-only element, as [text_content] of
      the tree would give it; a child element fails. *)

  val read_text : t -> int -> unit
  (** {!text} without the copy: the character data is left for {!value}
      and {!value_is}, until the cursor moves on. *)

  val close : t -> int -> unit
  (** Consume the rest of the tag's element: character data and its
      closing tag (nothing for a self-closing tag).  A child element
      still unread fails. *)

  (** {2 Frames read as written}

      A frame reader expects each element exactly as its writer emits
      it: the named tag, each attribute in the writer's order, and none
      after.  Every mismatch fails at the cursor. *)

  val enter_named : t -> string -> int
  (** {!enter} a start tag whose local name is the given one; fails with
      ["expected <name>, got <other>"]. *)

  val attr_named : t -> int -> string -> string
  (** [attr_named c tag name]: the tag's next attribute must be [name];
      returns its value.  Fails with ["<tag> expects attribute name next"]. *)

  val end_attrs : t -> int -> unit
  (** The tag has no attribute left; fails with
      ["<tag> has an unexpected attribute"]. *)

  val end_leaf : t -> int -> unit
  (** {!end_attrs}, then {!close}: a childless element whose attributes
      have been read. *)

  val leaf0 : string -> t -> unit
  (** [leaf0 name c] reads a childless element with no attribute. *)

  val leaf1 : t -> string -> string -> string
  (** [leaf1 c name a] reads a childless element with exactly the
      attribute [a], returning its value. *)

  val leaf2 : t -> string -> string -> string -> string * string
  (** [leaf2 c name a b] reads a childless element with exactly the
      attributes [a] then [b]. *)

  val subtree : t -> tree
  (** The element at the cursor, parsed whole (the escape to the tree
      for content a reader does not walk field by field). *)

  val with_bytes : t -> (t -> 'a) -> 'a * string
  (** [with_bytes c read], at an element's ['<'], is [read c] paired with
      the bytes it consumed: the element it read, exactly as it was
      written (what a signature over a writer's bytes is checked
      against). *)

  val finish : t -> unit
  (** After the root element: only trailing misc may follow. *)
end

(** {1 Comparison} *)
