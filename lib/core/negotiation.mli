(** Iterative trust negotiation (Traust-style, §3.1).

    Two parties with no pre-established trust exchange credentials in
    rounds: each credential has a release policy naming what the
    counterparty must have disclosed first.  Negotiation succeeds when the
    resource's access requirement is met by disclosed client credentials,
    and fails when a full round makes no progress. *)

type requirement = string list list
(** Disjunction of conjunctions over counterparty credential names;
    [[]] (no alternatives) is unsatisfiable, [[[]]] is trivially met. *)

type credential = {
  name : string;
  release : requirement;  (** what the other side must show first *)
}

type party = {
  party_name : string;
  credentials : credential list;
}

val unprotected : string -> credential
(** A credential released freely. *)

val protected_by : string -> string list -> credential
(** [protected_by name needed]: released once the counterparty has shown
    all of [needed]. *)

type outcome = {
  success : bool;
  rounds : int;  (** full client+server rounds consumed *)
  messages : int;  (** credential-bearing messages exchanged *)
  disclosed_by_client : string list;
  disclosed_by_server : string list;
}

val negotiate : client:party -> server:party -> target:requirement -> outcome
(** The client starts.  At most 20 rounds are played, which bounds
    pathological policies. *)

val satisfied : requirement -> string list -> bool
(** Is the requirement met by the given disclosed-credential names? *)
