type t =
  | Permit
  | Deny
  | Not_applicable
  | Indeterminate of string

type result = {
  decision : t;
  obligations : Obligation.t list;
}

let permit = { decision = Permit; obligations = [] }
let deny = { decision = Deny; obligations = [] }
let not_applicable = { decision = Not_applicable; obligations = [] }
let indeterminate message = { decision = Indeterminate message; obligations = [] }

let append r obligations effect =
  match Obligation.applicable obligations effect with
  | [] -> r
  | applicable -> { r with obligations = r.obligations @ applicable }

(* [r] itself when nothing applies, so a result without obligations is
   not copied. *)
let with_obligations r obligations =
  match (obligations, r.decision) with
  | [], _ | _, (Not_applicable | Indeterminate _) -> r
  | _, Permit -> append r obligations Obligation.Permit
  | _, Deny -> append r obligations Obligation.Deny

let is_permit r = r.decision = Permit
let is_deny r = r.decision = Deny

let decision_to_string = function
  | Permit -> "Permit"
  | Deny -> "Deny"
  | Not_applicable -> "NotApplicable"
  | Indeterminate _ -> "Indeterminate"

let decision_of_string = function
  | "Permit" -> Some Permit
  | "Deny" -> Some Deny
  | "NotApplicable" -> Some Not_applicable
  | "Indeterminate" -> Some (Indeterminate "")
  | _ -> None

let equal_decision a b =
  match (a, b) with
  | Permit, Permit | Deny, Deny | Not_applicable, Not_applicable -> true
  | Indeterminate _, Indeterminate _ -> true
  | (Permit | Deny | Not_applicable | Indeterminate _), _ -> false
