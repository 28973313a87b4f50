module Policy = Dacs_policy.Policy
module Decision = Dacs_policy.Decision
module Validate = Dacs_policy.Validate
module Xacml = Dacs_policy.Xacml_xml

type state =
  | Draft
  | Reviewed
  | Approved
  | Issued
  | Rejected of string

let state_to_string = function
  | Draft -> "draft"
  | Reviewed -> "reviewed"
  | Approved -> "approved"
  | Issued -> "issued"
  | Rejected reason -> Printf.sprintf "rejected (%s)" reason

type review_report = {
  problems : Validate.problem list;
  conflicts_with_current : Conflict.conflict list;
  test_failures : string list;
}

type entry = {
  policy : Policy.child;
  author : string;
  mutable state : state;
  mutable approvals : string list;
  mutable history : (float * string) list;  (* newest first *)
}

type t = {
  pap : Pap.t;
  approvers : (string * Dacs_crypto.Rsa.public_key) list;
  required_approvals : int;
  now : unit -> float;
  entries : (string, entry) Hashtbl.t;
  mutable next_id : int;
}

let create ~pap ~approvers ?(required_approvals = 1) ~now () =
  if required_approvals < 1 then invalid_arg "Lifecycle.create: required_approvals";
  { pap; approvers; required_approvals; now; entries = Hashtbl.create 16; next_id = 0 }

let log t entry event = entry.history <- (t.now (), event) :: entry.history

let submit t ~author policy =
  let id = Printf.sprintf "draft-%d" t.next_id in
  t.next_id <- t.next_id + 1;
  let entry = { policy; author; state = Draft; approvals = []; history = [] } in
  log t entry (Printf.sprintf "submitted by %s" author);
  Hashtbl.replace t.entries id entry;
  id

let find t draft = Hashtbl.find_opt t.entries draft

let state_of t ~draft = Option.map (fun e -> e.state) (find t draft)

(* Conflicts between the draft and the currently issued policy. *)
let conflicts_with_current t policy =
  match Pap.current t.pap with
  | None -> []
  | Some current ->
    let as_children c =
      match c with
      | Policy.Inline_set s -> s.Policy.children
      | Policy.Inline_policy _ | Policy.Policy_ref _ -> [ c ]
    in
    let set =
      Policy.make_set ~id:"lifecycle-check" (as_children current @ as_children policy)
    in
    (* Keep only conflicts that straddle the draft and the current tree. *)
    let draft_policy_ids =
      let rec ids c =
        match c with
        | Policy.Inline_policy p -> [ p.Policy.id ]
        | Policy.Inline_set s -> List.concat_map ids s.Policy.children
        | Policy.Policy_ref _ -> []
      in
      ids policy
    in
    List.filter
      (fun c ->
        List.mem c.Conflict.permit.Conflict.policy_id draft_policy_ids
        <> List.mem c.Conflict.deny.Conflict.policy_id draft_policy_ids)
      (Conflict.find_in_set set)

let review t ~draft ?(expectations = []) () =
  match find t draft with
  | None -> Error "unknown draft"
  | Some entry -> (
    match entry.state with
    | Issued -> Error "draft is already issued"
    | Draft | Reviewed | Approved | Rejected _ ->
      let problems = Validate.check_child entry.policy in
      let test_failures =
        List.filter_map
          (fun (ctx, expected) ->
            let actual = (Policy.evaluate_child ctx entry.policy).Decision.decision in
            if Decision.equal_decision actual expected then None
            else
              Some
                (Printf.sprintf "expected %s, got %s"
                   (Decision.decision_to_string expected)
                   (Decision.decision_to_string actual)))
          expectations
      in
      let conflicts = conflicts_with_current t entry.policy in
      let report = { problems; conflicts_with_current = conflicts; test_failures } in
      if problems <> [] then begin
        entry.state <- Rejected "validation problems";
        log t entry (Printf.sprintf "review rejected: %d validation problem(s)" (List.length problems))
      end
      else if test_failures <> [] then begin
        entry.state <- Rejected "test expectations failed";
        log t entry (Printf.sprintf "review rejected: %d test failure(s)" (List.length test_failures))
      end
      else begin
        entry.state <- Reviewed;
        entry.approvals <- [];
        log t entry
          (Printf.sprintf "review passed (%d conflict(s) with the current policy noted)"
             (List.length conflicts))
      end;
      Ok report)

let signing_payload t ~draft =
  Option.map
    (fun e -> Dacs_xml.Xml.canonical_string (Xacml.child_to_xml e.policy))
    (find t draft)

let approve t ~draft ~approver ~signature =
  match find t draft with
  | None -> Error "unknown draft"
  | Some entry -> (
    match entry.state with
    | Draft -> Error "draft has not been reviewed"
    | Rejected reason -> Error (Printf.sprintf "draft was rejected: %s" reason)
    | Issued -> Error "draft is already issued"
    | Reviewed | Approved -> (
      match List.assoc_opt approver t.approvers with
      | None -> Error (Printf.sprintf "%s is not a registered approver" approver)
      | Some key ->
        if List.mem approver entry.approvals then Error "already approved by this approver"
        else begin
          let payload = Dacs_xml.Xml.canonical_string (Xacml.child_to_xml entry.policy) in
          if not (Dacs_crypto.Rsa.verify key payload ~signature) then
            Error "approval signature does not verify"
          else begin
            entry.approvals <- approver :: entry.approvals;
            log t entry (Printf.sprintf "approved by %s" approver);
            if List.length entry.approvals >= t.required_approvals then begin
              entry.state <- Approved;
              log t entry "fully approved"
            end;
            Ok (List.length entry.approvals)
          end
        end))

let issue t ~draft =
  match find t draft with
  | None -> Error "unknown draft"
  | Some entry -> (
    match entry.state with
    | Approved ->
      Pap.publish t.pap entry.policy;
      entry.state <- Issued;
      log t entry (Printf.sprintf "issued as PAP version %d" (Pap.version t.pap));
      Ok (Pap.version t.pap)
    | Draft | Reviewed -> Error "draft lacks the required approvals"
    | Rejected reason -> Error (Printf.sprintf "draft was rejected: %s" reason)
    | Issued -> Error "draft is already issued")

let history t ~draft =
  match find t draft with None -> [] | Some e -> List.rev e.history

let drafts t =
  Hashtbl.fold (fun id e acc -> (id, e.state) :: acc) t.entries [] |> List.sort compare
