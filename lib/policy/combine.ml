type algorithm =
  | Deny_overrides
  | Permit_overrides
  | First_applicable
  | Only_one_applicable
  | Ordered_deny_overrides
  | Ordered_permit_overrides

let name = function
  | Deny_overrides -> "deny-overrides"
  | Permit_overrides -> "permit-overrides"
  | First_applicable -> "first-applicable"
  | Only_one_applicable -> "only-one-applicable"
  | Ordered_deny_overrides -> "ordered-deny-overrides"
  | Ordered_permit_overrides -> "ordered-permit-overrides"

let of_name = function
  | "deny-overrides" -> Some Deny_overrides
  | "permit-overrides" -> Some Permit_overrides
  | "first-applicable" -> Some First_applicable
  | "only-one-applicable" -> Some Only_one_applicable
  | "ordered-deny-overrides" -> Some Ordered_deny_overrides
  | "ordered-permit-overrides" -> Some Ordered_permit_overrides
  | _ -> None

let all =
  [
    Deny_overrides;
    Permit_overrides;
    First_applicable;
    Only_one_applicable;
    Ordered_deny_overrides;
    Ordered_permit_overrides;
  ]

type ('env, 'parent, 'cursor) children = {
  first : Context.t -> 'parent -> 'cursor;
  next : Context.t -> 'parent -> 'cursor -> 'cursor;
  finished : 'cursor -> bool;
  label : 'parent -> 'cursor -> string;
  applicability : 'env -> Context.t -> 'parent -> 'cursor -> Target.outcome;
  evaluate : 'env -> Context.t -> 'parent -> 'cursor -> Decision.result;
}

(* Every algorithm is a top-level loop over explicit arguments, so
   combining allocates no closure; a label is built only for an
   Indeterminate message.  Obligations propagate from children whose
   decision equals the combined one, in document order: [chunks] holds
   the non-empty obligation lists of the children agreeing with the
   pending decision, newest first.  A short-circuiting child is the
   first of its decision, so its own obligations are the whole set. *)

let with_chunks (base : Decision.result) = function
  | [] -> base
  | chunks -> { base with Decision.obligations = List.concat (List.rev chunks) }

let add_chunk (r : Decision.result) chunks =
  match r.Decision.obligations with [] -> chunks | obligations -> obligations :: chunks

(* Short-circuit on the first Deny; an Indeterminate is a potential Deny
   and therefore also decides immediately. *)
let rec deny_overrides ch env ctx parent c permitted chunks =
  if ch.finished c then
    if permitted then with_chunks Decision.permit chunks else Decision.not_applicable
  else
    let r = ch.evaluate env ctx parent c in
    match r.Decision.decision with
    | Decision.Deny -> r
    | Decision.Indeterminate e ->
      Decision.indeterminate
        (Printf.sprintf "%s: %s (treated as potential deny)" (ch.label parent c) e)
    | Decision.Permit -> deny_overrides ch env ctx parent (ch.next ctx parent c) true (add_chunk r chunks)
    | Decision.Not_applicable -> deny_overrides ch env ctx parent (ch.next ctx parent c) permitted chunks

(* [indeterminate] keeps the first Indeterminate message, labelled. *)
let rec permit_overrides ch env ctx parent c indeterminate denied chunks =
  if ch.finished c then
    match indeterminate with
    | Some e -> Decision.indeterminate e
    | None -> if denied then with_chunks Decision.deny chunks else Decision.not_applicable
  else
    let r = ch.evaluate env ctx parent c in
    match r.Decision.decision with
    | Decision.Permit -> r
    | Decision.Indeterminate e ->
      let indeterminate =
        match indeterminate with
        | None -> Some (Printf.sprintf "%s: %s" (ch.label parent c) e)
        | first -> first
      in
      permit_overrides ch env ctx parent (ch.next ctx parent c) indeterminate denied chunks
    | Decision.Deny ->
      permit_overrides ch env ctx parent (ch.next ctx parent c) indeterminate true (add_chunk r chunks)
    | Decision.Not_applicable ->
      permit_overrides ch env ctx parent (ch.next ctx parent c) indeterminate denied chunks

let rec first_applicable ch env ctx parent c =
  if ch.finished c then Decision.not_applicable
  else
    let r = ch.evaluate env ctx parent c in
    match r.Decision.decision with
    | Decision.Permit | Decision.Deny -> r
    | Decision.Indeterminate e ->
      Decision.indeterminate (Printf.sprintf "%s: %s" (ch.label parent c) e)
    | Decision.Not_applicable -> first_applicable ch env ctx parent (ch.next ctx parent c)

(* [only] is the applicable child seen so far, when [found]; a second
   applicable child already decides the outcome. *)
let rec only_one_applicable ch env ctx parent c found only =
  if ch.finished c then
    if found then ch.evaluate env ctx parent only else Decision.not_applicable
  else
    match ch.applicability env ctx parent c with
    | Target.Match ->
      if found then
        Decision.indeterminate
          (Printf.sprintf "more than one applicable policy: %s, %s" (ch.label parent only)
             (ch.label parent c))
      else only_one_applicable ch env ctx parent (ch.next ctx parent c) true c
    | Target.No_match -> only_one_applicable ch env ctx parent (ch.next ctx parent c) found only
    | Target.Indeterminate_match e ->
      Decision.indeterminate (Printf.sprintf "%s target: %s" (ch.label parent c) e)

let combine algorithm ch env ctx parent =
  let c = ch.first ctx parent in
  match algorithm with
  | Deny_overrides | Ordered_deny_overrides -> deny_overrides ch env ctx parent c false []
  | Permit_overrides | Ordered_permit_overrides -> permit_overrides ch env ctx parent c None false []
  | First_applicable -> first_applicable ch env ctx parent c
  | Only_one_applicable -> only_one_applicable ch env ctx parent c false c
