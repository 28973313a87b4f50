(** SOAP 1.2-style envelopes.

    Every exchange between access-control components travels as one of
    these (the paper's Web-Service substrate), so envelope bytes are what
    the §3.2 message-size experiments measure. *)

type envelope = {
  headers : Dacs_xml.Xml.t list;
  body : Dacs_xml.Xml.t;  (** the single body element *)
}

val write : ?headers:Dacs_xml.Xml.t list -> Buffer.t -> (Buffer.t -> unit) -> unit
(** [write ?headers buf body] appends
    [<soap:Envelope …>[<soap:Header>…</soap:Header>]<soap:Body>…</soap:Body></soap:Envelope>]
    with [body] writing the single body element in place — the one
    envelope encoder.  The Header element appears only when [headers] is
    non-empty. *)

val read :
  string -> int -> int -> (Dacs_xml.Xml.Cursor.t -> 'a) -> (Dacs_xml.Xml.t list * 'a, string) result
(** [read src off len body] reads the envelope in that slice of [src]
    with a pull cursor — the one envelope decoder.  The first [Header]
    child gives the headers (as trees) and the first [Body] child must
    hold exactly one element, which [body] reads from its ['<'];
    anything else in the envelope is ignored, as a tree reading would.
    Total: malformed XML, a wrong shape or a {!Dacs_xml.Xml.Parse_error}
    raised by [body] come back as [Error].  A read allocates the cursor,
    what [body] returns, and the pair and [Ok] it comes back in: no
    closure and no option around the body, and an envelope without a
    Header gives the shared [[]]. *)

val to_string : envelope -> string
(** {!write} of a tree body. *)

val envelope : Dacs_xml.Xml.t -> Dacs_xml.Xml.t
(** The envelope {!write} produces for a body without headers, as a
    tree. *)

val parse : string -> (envelope, string) result
(** {!read} with the body taken as a tree. *)

(** {1 Faults} *)

type fault = { code : string; reason : string }

val fault_body : fault -> Dacs_xml.Xml.t
(** A [<Fault>] body element. *)

val fault_of_body : Dacs_xml.Xml.t -> fault option
(** [Some f] when the body element is a fault. *)
