(** Small path-query language over {!Xml.t}.

    Grammar (slash-separated steps, evaluated from the given node's
    children):

    {v
      path  ::= step ('/' step)*
      step  ::= name pred?  |  '*' pred?  |  '..'
      pred  ::= '[@' attr '=' value ']'  |  '[' index ']'
    v}

    Names match on local names, so ["Policy/Rule"] finds
    [<xacml:Rule>] children of [<xacml:Policy>].  Indexes are 1-based,
    as in XPath. *)

exception Bad_path of string

val select : Xml.t -> string -> Xml.t list
(** All nodes reached by the path, in document order.
    @raise Bad_path when the path does not parse. *)

val select_text : Xml.t -> string -> string option
(** Text content of the first match. *)

val select_attr : Xml.t -> string -> string -> string option
(** [select_attr node path name] is attribute [name] of the first match. *)

val exists : Xml.t -> string -> bool
