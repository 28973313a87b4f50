(** XML encoding of the policy language — the interoperability surface.

    An XACML-like dialect (same structure, compact names): this is what
    travels between PAPs, PDPs and PEPs in the multi-domain architecture,
    and what the message-size experiments measure. *)

(** {1 Rules, policies, policy sets} *)

val policy_to_xml : Policy.t -> Dacs_xml.Xml.t

val child_to_xml : Policy.child -> Dacs_xml.Xml.t
val child_of_xml : Dacs_xml.Xml.t -> (Policy.child, string) result
(** Dispatches on the element name: [Policy], [PolicySet] or
    [PolicyIdReference]. *)

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

(** {1 Convenience round-trips through strings} *)

val child_to_string : Policy.child -> string
val child_of_string : string -> (Policy.child, string) result
