(** XML encoding of the policy language — the interoperability surface.

    An XACML-like dialect (same structure, compact names): this is what
    travels between PAPs, PDPs and PEPs in the multi-domain architecture,
    and what the message-size experiments measure. *)

(** {1 Expressions} *)

val expr_to_xml : Expr.t -> Dacs_xml.Xml.t
val expr_of_xml : Dacs_xml.Xml.t -> (Expr.t, string) result

(** {1 Targets} *)

(** {1 Rules, policies, policy sets} *)

val policy_to_xml : Policy.t -> Dacs_xml.Xml.t
val policy_of_xml : Dacs_xml.Xml.t -> (Policy.t, string) result

val child_to_xml : Policy.child -> Dacs_xml.Xml.t
val child_of_xml : Dacs_xml.Xml.t -> (Policy.child, string) result
(** Dispatches on the element name: [Policy], [PolicySet] or
    [PolicyIdReference]. *)

(** {1 Obligations} *)

(** {1 Decisions} *)

val write_result : Buffer.t -> Decision.result -> unit
(** The one decision encoder: [<Response><Result><Decision>…</Decision>]
    then a [Status] carrying an Indeterminate's message and the
    [Obligations], if any. *)

val read_result : Dacs_xml.Xml.Cursor.t -> Decision.result
(** The one decision decoder, from the [Response] element's ['<'].
    Stricter than a tree walk: the Response holds one Result, whose
    first child is the Decision, followed only by at most one Status and
    one Obligations.
    @raise Dacs_xml.Xml.Parse_error on malformed or misshapen input. *)

val result_to_xml : Decision.result -> Dacs_xml.Xml.t
val result_of_xml : Dacs_xml.Xml.t -> (Decision.result, string) result
(** Tree adapters over {!write_result} and {!read_result}: the tree is the
    parse of the written bytes (so an empty message comes back as an
    element without children), and a tree is read by printing it. *)

(** {1 Convenience round-trips through strings} *)

val child_to_string : Policy.child -> string
val child_of_string : string -> (Policy.child, string) result
val result_to_string : Decision.result -> string
val result_of_string : string -> (Decision.result, string) result
val request_of_string : string -> (Context.t, string) result
