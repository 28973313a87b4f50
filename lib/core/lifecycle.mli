(** Policy administration lifecycle (§3.2 "Management of Access Control
    Systems").

    The paper: "policy management involves many different steps including
    writing, reviewing, testing, approving, issuing ... Providing means of
    securing all those steps should be considered mandatory."

    This module drives a draft through that pipeline:

    {v  Draft --review--> Reviewed --approve(×k)--> Approved --issue--> Issued
          \__________________ rejected review findings ______________/      v}

    - {b review} runs the static validator, test-evaluates the draft
      against sample requests, and checks for modality conflicts with the
      currently issued policy; blocking findings reject the draft.
    - {b approve} requires a signature over the draft's canonical form by
      a registered approver — approvals are cryptographically bound to the
      exact text that was reviewed.
    - {b issue} publishes to the PAP only after the configured number of
      approvals; any edit restarts the pipeline. *)

type state =
  | Draft
  | Reviewed
  | Approved
  | Issued
  | Rejected of string

val state_to_string : state -> string

type review_report = {
  problems : Dacs_policy.Validate.problem list;
  conflicts_with_current : Conflict.conflict list;
  test_failures : string list;
      (** sample requests whose decision differed from the expectation *)
}

type t

val create :
  pap:Pap.t ->
  approvers:(string * Dacs_crypto.Rsa.public_key) list ->
  ?required_approvals:int ->
  now:(unit -> float) ->
  unit ->
  t
(** [required_approvals] defaults to 1.  [now] stamps the audit trail
    (pass the simulation clock). *)

val submit : t -> author:string -> Dacs_policy.Policy.child -> string
(** Register a draft; returns its draft id. *)

val state_of : t -> draft:string -> state option

val review :
  t ->
  draft:string ->
  ?expectations:(Dacs_policy.Context.t * Dacs_policy.Decision.t) list ->
  unit ->
  (review_report, string) result
(** Validation + conflict analysis + test evaluation.  Validation
    problems or failed expectations reject the draft (conflicts with the
    current policy are reported but do not block — the combining
    algorithm resolves them, and the report says how many there are). *)

val signing_payload : t -> draft:string -> string option
(** What an approver must sign (the draft's canonical XML). *)

val approve :
  t -> draft:string -> approver:string -> signature:string -> (int, string) result
(** Verify the signature and record the approval; returns how many
    approvals the draft now has.  Fails for unknown approvers, bad
    signatures, double approval, or drafts not yet reviewed. *)

val issue : t -> draft:string -> (int, string) result
(** Publish to the PAP; returns the PAP's new version.  Only approved
    drafts can be issued. *)

val history : t -> draft:string -> (float * string) list
(** Timestamped transitions, oldest first. *)
