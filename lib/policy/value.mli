(** Typed attribute values — the data model of the policy language.

    Mirrors the XACML primitive data types that matter in practice:
    strings, integers, booleans, doubles, times and URIs.  Attribute
    {e bags} (unordered multisets) are plain lists. *)

type t =
  | String of string
  | Int of int
  | Bool of bool
  | Double of float
  | Time of float  (** seconds since the simulation epoch *)
  | Uri of string

type bag = t list

(** {1 Types} *)

type data_type = String_t | Int_t | Bool_t | Double_t | Time_t | Uri_t

val type_of : t -> data_type
val type_name : data_type -> string
(** ["string"], ["integer"], ["boolean"], ["double"], ["time"], ["anyURI"] —
    the local names used in the XML encoding. *)

val data_type_of_name : string -> data_type option

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Same type and same content. *)

val compare_same_type : t -> t -> (int, string) result
(** Ordering within one type; [Error] explains a type mismatch or an
    unordered type (booleans are not ordered). *)

(** {1 Rendering and parsing} *)

val to_string : t -> string
(** Lexical form, e.g. ["42"], ["true"], ["urn:x"].  Exact: {!of_string}
    reads it back to the same value.  A Double or Time is written with
    [%g] when that reads back bit-identically, and otherwise with the
    shortest of [%.7g] .. [%.17g] that does, so [1000000.4] is
    ["1000000.4"], not ["1e+06"].  A NaN is written ["nan"] or ["-nan"]
    by its sign and reads back as the quiet NaN of that sign. *)

val of_string : data_type -> string -> (t, string) result
(** Parse the lexical form of the given type. *)

val pp : Format.formatter -> t -> unit
(** Type-annotated, e.g. [integer:42]. *)

(** {1 Bags} *)

val bag_contains : bag -> t -> bool
val bag_equal : bag -> bag -> bool
(** Multiset equality. *)

val bag_intersection : bag -> bag -> bag
val bag_union : bag -> bag -> bag
(** Set-style union (duplicates collapsed), as in XACML. *)

val bag_subset : bag -> bag -> bool
