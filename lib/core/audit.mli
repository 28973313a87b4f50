(** Audit log: the uniform accounting function externalised authorisation
    enables (§2.2), and the history that history-based meta-policies
    (Chinese Wall, dynamic SoD) consult. *)

type entry = {
  at : float;
  domain : string;
  subject : string;
  resource : string;
  action : string;
  decision : Dacs_policy.Decision.t;
  provenance : Provenance.t option;
      (** how the decision was served — present on every entry a PEP
          records; [None] for history entries minted outside the serving
          path (meta-policy bookkeeping, tests) *)
}

type t

val create : unit -> t

val record : t -> entry -> unit

val entries : t -> entry list
(** Oldest first. *)

val size : t -> int

val permitted_resources : t -> subject:string -> string list
(** Distinct resources the subject has been {e permitted} to access. *)

val merge : t list -> t
(** Consolidated, time-ordered view across domains (§3.2 management). *)
