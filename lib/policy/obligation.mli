(** Obligations: actions a PEP must perform when enforcing a decision.

    Obligations attach to policies and policy sets; a decision carries up
    the obligations whose [fulfill_on] effect matches the final decision
    (§2.3 of the paper — e.g. "encrypt the resource before provisioning",
    "write an audit record"). *)

type effect = Permit | Deny

type t = {
  id : string;  (** e.g. ["urn:dacs:obligation:audit"] *)
  fulfill_on : effect;
  parameters : (string * Value.t) list;
}

val applicable : t list -> effect -> t list
(** Obligations to hand to the PEP for a decision with the given effect. *)

val audit : t
(** Stock audit obligation ([fulfill_on = Permit]). *)

val encrypt_response : strength:int -> t
(** Stock content-protection obligation, parameterised by key strength. *)

val pp : Format.formatter -> t -> unit
