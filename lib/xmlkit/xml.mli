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

val cdata_text : string -> t
(** Same as {!text}; CDATA sections are represented as plain text. *)

(** {1 Accessors} *)

val tag : t -> string
(** [tag node] is the element tag, or [""] for text nodes. *)

val local_name : string -> string
(** [local_name "saml:Assertion"] is ["Assertion"]. *)

val prefix : string -> string option
(** [prefix "saml:Assertion"] is [Some "saml"]. *)

val has_local_name : string -> string -> bool
(** [has_local_name tag name] is [local_name tag = name], compared in
    place without copying the local part out of [tag]. *)

val attr : t -> string -> string option
(** [attr node name] is the value of attribute [name], if present. *)

val attr_exn : t -> string -> string
(** @raise Not_found when the attribute is missing or [node] is text. *)

val set_attr : t -> string -> string -> t
(** Functional attribute update (replaces an existing binding). *)

val children : t -> t list

val child_elements : t -> element list

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

val to_pretty_string : ?indent:int -> t -> string
(** Indented serialisation for human consumption. *)

val canonical : t -> t
(** Canonical form: attributes sorted by name, whitespace-only text dropped,
    adjacent text merged, comments already absent.  [canonical] is
    idempotent and two semantically equal documents share one canonical
    serialisation — the form that signatures are computed over. *)

val canonical_string : t -> string
(** [to_string (canonical t)]. *)

val escape : string -> string
(** Escape the five XML-special characters for use in attribute values
    and character data. *)

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

val of_string : string -> t
(** Parse a complete document (prolog and doctype are skipped) in one
    pass over the bytes.
    @raise Parse_error on malformed input, including an element nested
    deeper than {!max_depth} (reported at its ['<']). *)

val of_string_opt : string -> t option

val parse_error_to_string : exn -> string option
(** Human-readable rendering of {!Parse_error}; [None] on other exceptions. *)

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Structural equality on canonical forms. *)

val size : t -> int
(** Number of nodes (elements plus text nodes). *)

val depth : t -> int
(** Longest element nesting chain; a leaf element has depth 1. *)
