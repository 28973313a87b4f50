(** Request context: the attributes describing one access request.

    The XACML request context carries four attribute categories — subject,
    resource, action and environment — each a set of named attribute bags
    (Fig. 4 of the paper). *)

type category = Subject | Resource | Action | Environment

val category_name : category -> string
val category_of_name : string -> category option
val all_categories : category list

type t

val empty : t

val add : t -> category -> string -> Value.t -> t
(** Append one value to the bag of attribute [id] in [category]. *)

val add_bag : t -> category -> string -> Value.bag -> t

val bag : t -> category -> string -> Value.bag
(** The (possibly empty) bag bound to the attribute. *)

val attributes : t -> category -> (string * Value.bag) list
(** All attributes of a category, sorted by id. *)

val iter : t -> (category -> string -> Value.bag -> unit) -> unit
(** Visit every attribute bag in canonical (category, id) order without
    building the intermediate lists of {!attributes} — the traversal the
    hot request-key builder uses. *)

(** {1 Convenience constructors} *)

val make :
  ?subject:(string * Value.t) list ->
  ?resource:(string * Value.t) list ->
  ?action:(string * Value.t) list ->
  ?environment:(string * Value.t) list ->
  unit ->
  t

val subject_id : t -> string option
(** The conventional ["subject-id"] attribute, when present. *)

(** {1 XML encoding} *)

(** {1 The [Request] element}

    One encoder and one decoder; the string and tree forms are adapters
    over them. *)

val write : Buffer.t -> t -> unit
(** [write buf t] appends [<Request>] with one section per category (in
    {!all_categories} order, empty ones as [<Action/>]) holding one
    [<Attribute AttributeId=… DataType=…>value</Attribute>] per value,
    ids ascending. *)

val read : Dacs_xml.Xml.Cursor.t -> t
(** Reads a [Request] element from its ['<'], adding the attributes in
    document order.  Stricter than a tree walk: a category holds only
    [Attribute] elements, and an [Attribute] only text.
    @raise Dacs_xml.Xml.Parse_error on malformed or misshapen input. *)

val read_data_type : Dacs_xml.Xml.Cursor.t -> Value.data_type option
(** The data type the attribute value just read names (a
    {!Value.type_name}), compared in place; [None] for any other name. *)

val to_string : t -> string
val of_string : string -> (t, string) result
val to_xml : t -> Dacs_xml.Xml.t
val of_xml : Dacs_xml.Xml.t -> (t, string) result

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
