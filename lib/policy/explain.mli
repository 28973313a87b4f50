(** Decision explanation: why did a request get this answer?

    Multi-domain policy stores are authored by many hands (§3.2
    management), and "poor understanding of how a security policy is being
    enforced" is exactly what the paper warns about.  [explain] evaluates
    a request the same way the engine does while recording, per policy set
    / policy / rule, what its target said, what its condition evaluated
    to, and how the combining algorithm settled the outcome. *)

type node = {
  label : string;  (** e.g. ["policy doctor-read"], ["rule default-deny"] *)
  outcome : string;  (** rendered decision or applicability *)
  detail : string;  (** target/condition/combining specifics; may be [""] *)
  children : node list;
}

val explain : Context.t -> Policy.child -> node * Decision.result
(** The returned result is exactly what {!Policy.evaluate_child} returns
    for the same inputs (property-tested).  A {!Policy.Policy_ref} is
    explained as unresolvable. *)

val to_string : node -> string
(** Indented tree rendering. *)
