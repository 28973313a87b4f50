(** Request context: the attributes describing one access request.

    The XACML request context carries four attribute categories — subject,
    resource, action and environment — each a set of named attribute bags
    (Fig. 4 of the paper). *)

type category = Subject | Resource | Action | Environment

val category_name : category -> string
val category_of_name : string -> category option

type t
(** One bag per (category, id), held sorted in canonical order (category
    as declared, then id). *)

val empty : t

val add : t -> category -> string -> Value.t -> t
(** Append one value to the bag of attribute [id] in [category].  Copies
    the context: building one of [n] attributes this way costs O(n²);
    {!make} and {!read} build it once. *)

val add_bag : t -> category -> string -> Value.bag -> t

val bag : t -> category -> string -> Value.bag
(** The (possibly empty) bag bound to the attribute: a binary search
    that allocates nothing, the lookup every target match makes. *)

val fold : (category -> string -> Value.bag -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every attribute bag in canonical (category, id) order
    without building the intermediate lists of {!attributes} — the
    traversal the hot request-key builder uses: given a function that
    captures nothing, the fold allocates nothing. *)

(** {1 Convenience constructors} *)

val make :
  ?subject:(string * Value.t) list ->
  ?resource:(string * Value.t) list ->
  ?action:(string * Value.t) list ->
  ?environment:(string * Value.t) list ->
  unit ->
  t
(** Builds the context once, like {!read}: a repeated id keeps its
    values in list order. *)

val subject_id : t -> string option
(** The conventional ["subject-id"] attribute, when present. *)

(** {1 XML encoding} *)

(** {1 The [Request] element}

    One encoder and one decoder; the string and tree forms are adapters
    over them. *)

val write : Buffer.t -> t -> unit
(** [write buf t] appends [<Request>] with one section per category (in
    declaration order, empty ones as [<Action/>]) holding one
    [<Attribute AttributeId=… DataType=…>value</Attribute>] per value,
    ids ascending. *)

val read : Dacs_xml.Xml.Cursor.t -> t
(** Reads a [Request] element from its ['<'] in one pass: each attribute
    becomes one entry as it is read and the context is built once at
    the end, values of a repeated id in document order.  A request
    written by {!write} is already in canonical order and sorts in one
    comparison per attribute.  Stricter than a tree walk: a category holds only
    [Attribute] elements, and an [Attribute] only text.
    @raise Dacs_xml.Xml.Parse_error on malformed or misshapen input. *)

val read_data_type : Dacs_xml.Xml.Cursor.t -> Value.data_type option
(** The data type the attribute value just read names (a
    {!Value.type_name}), compared in place; [None] for any other name. *)

val of_string : string -> (t, string) result

(** {1 The compact form}

    How an offline log records the context it decided: the count of
    values, then one record per value in canonical order — category
    char ([S], [R], [A], [E]), type char ([s], [i], [b], [d], [t],
    [u]), [len:id], [len:value] with lengths in bytes and the value in
    its {!Value.to_string} form.  Nothing is escaped: a context holding
    only [subject-id = "alice"] is [1:Ss10:subject-id5:alice]. *)

val write_compact : Buffer.t -> t -> unit
(** Appends the compact form of [t]: integers digit by digit, and
    nothing allocated but a Double or Time value's rendering. *)

val read_compact : string -> (t, string) result
(** Total: the context {!write_compact} wrote, value for value and
    bit for bit (a NaN as the quiet NaN of its sign; a bag left empty
    is not written), values of a repeated id in bag order; [Error] for
    any other bytes, truncated, trailing or malformed.  It never
    raises. *)

val equal : t -> t -> bool
