type node = {
  label : string;
  outcome : string;
  detail : string;
  children : node list;
}

let target_outcome = function
  | Target.Match -> "match"
  | Target.No_match -> "no match"
  | Target.Indeterminate_match e -> Printf.sprintf "indeterminate (%s)" e

let decision_outcome (r : Decision.result) =
  let base = Decision.decision_to_string r.Decision.decision in
  match r.Decision.decision with
  | Decision.Indeterminate m when m <> "" -> Printf.sprintf "%s (%s)" base m
  | _ -> base

let describe_target t =
  (* Target.pp uses format breaks; flatten to one line for the detail. *)
  String.trim (String.map (fun c -> if c = '\n' then ' ' else c) (Format.asprintf "target %a" Target.pp t))

let explain_rule ctx variables (rule : Rule.t) =
  let target = Target.evaluate ctx rule.Rule.target in
  let result = Rule.evaluate ctx rule in
  let condition_detail =
    match (target, rule.Rule.condition) with
    | Target.Match, Some c -> (
      let resolved =
        Expr.substitute (fun name -> List.assoc_opt name variables) c
      in
      match resolved with
      | Error e -> Printf.sprintf "condition unresolved: %s" e
      | Ok c -> (
        match Expr.eval_condition ctx c with
        | Ok b -> Printf.sprintf "condition = %b" b
        | Error e -> Printf.sprintf "condition error: %s" (Expr.error_to_string e)))
    | _, None -> "no condition"
    | (Target.No_match | Target.Indeterminate_match _), Some _ -> "condition not reached"
  in
  {
    label = Printf.sprintf "rule %s" rule.Rule.id;
    outcome = decision_outcome result;
    detail =
      Printf.sprintf "%s: %s; %s" (describe_target rule.Rule.target) (target_outcome target)
        condition_detail;
    children = [];
  }

(* Rule evaluation ignores policy variables in its own path: conditions
   are substituted before this is reached in Policy.evaluate.  For the
   explanation we redo the substitution explicitly so the condition line
   reflects what the engine actually evaluated. *)

let rec explain ctx child =
  let result = Policy.evaluate_child ctx child in
  let node =
    match child with
    | Policy.Policy_ref id ->
      {
        label = Printf.sprintf "policy reference %s" id;
        outcome = decision_outcome result;
        detail = "unresolvable reference";
        children = [];
      }
    | Policy.Inline_policy p ->
      let target = Target.evaluate ctx p.Policy.target in
      let children =
        match target with
        | Target.Match ->
          List.map (explain_rule ctx p.Policy.variables) p.Policy.rules
        | Target.No_match | Target.Indeterminate_match _ -> []
      in
      {
        label = Printf.sprintf "policy %s" p.Policy.id;
        outcome = decision_outcome result;
        detail =
          Printf.sprintf "%s: %s; combining: %s" (describe_target p.Policy.target)
            (target_outcome target)
            (Combine.name p.Policy.rule_combining);
        children;
      }
    | Policy.Inline_set s ->
      let target = Target.evaluate ctx s.Policy.set_target in
      let children =
        match target with
        | Target.Match ->
          List.map
            (fun c -> fst (explain ctx c))
            s.Policy.children
        | Target.No_match | Target.Indeterminate_match _ -> []
      in
      {
        label = Printf.sprintf "policy set %s" s.Policy.set_id;
        outcome = decision_outcome result;
        detail =
          Printf.sprintf "%s: %s; combining: %s"
            (describe_target s.Policy.set_target)
            (target_outcome target)
            (Combine.name s.Policy.policy_combining);
        children;
      }
  in
  (node, result)

let to_string node =
  let buf = Buffer.create 256 in
  let rec go indent node =
    Buffer.add_string buf
      (Printf.sprintf "%s%s -> %s\n" (String.make indent ' ') node.label node.outcome);
    if node.detail <> "" then
      Buffer.add_string buf (Printf.sprintf "%s  [%s]\n" (String.make indent ' ') node.detail);
    List.iter (go (indent + 4)) node.children
  in
  go 0 node;
  Buffer.contents buf
