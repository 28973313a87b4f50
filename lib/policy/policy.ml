type t = {
  id : string;
  version : int;
  description : string;
  issuer : string;
  target : Target.t;
  variables : (string * Expr.t) list;
  rules : Rule.t list;
  rule_combining : Combine.algorithm;
  obligations : Obligation.t list;
}

type child =
  | Inline_policy of t
  | Inline_set of set
  | Policy_ref of string

and set = {
  set_id : string;
  set_version : int;
  set_description : string;
  set_target : Target.t;
  children : child list;
  policy_combining : Combine.algorithm;
  set_obligations : Obligation.t list;
}

let make ?(version = 1) ?(description = "") ?(issuer = "") ?(target = Target.any)
    ?(variables = []) ?(rule_combining = Combine.Deny_overrides) ?(obligations = []) ~id rules =
  { id; version; description; issuer; target; variables; rules; rule_combining; obligations }

let make_set ?(version = 1) ?(description = "") ?(target = Target.any)
    ?(policy_combining = Combine.Deny_overrides) ?(obligations = []) ~id children =
  {
    set_id = id;
    set_version = version;
    set_description = description;
    set_target = target;
    children;
    policy_combining;
    set_obligations = obligations;
  }

type ref_resolver = string -> child option

let child_id = function
  | Inline_policy p -> p.id
  | Inline_set s -> s.set_id
  | Policy_ref id -> id

let rec evaluate ?resolve ?resolve_ref ctx policy =
  ignore resolve_ref;
  match Target.evaluate ?resolve ctx policy.target with
  | Target.No_match -> Decision.not_applicable
  | Target.Indeterminate_match e ->
    Decision.indeterminate (Printf.sprintf "policy %s target: %s" policy.id e)
  | Target.Match ->
    let lookup name = List.assoc_opt name policy.variables in
    let resolved_rule rule =
      (* Inline variable definitions into the condition; a broken
         reference surfaces as Indeterminate for that rule only. *)
      match rule.Rule.condition with
      | None -> Ok rule
      | Some condition -> (
        match Expr.substitute lookup condition with
        | Ok condition -> Ok { rule with Rule.condition = Some condition }
        | Error e -> Error e)
    in
    let children =
      List.map
        (fun rule ->
          {
            Combine.label = "rule " ^ rule.Rule.id;
            applicability = (fun () -> Target.evaluate ?resolve ctx rule.Rule.target);
            evaluate =
              (fun () ->
                match resolved_rule rule with
                | Ok rule -> Rule.evaluate ?resolve ctx rule
                | Error e ->
                  Decision.indeterminate (Printf.sprintf "rule %s: %s" rule.Rule.id e));
          })
        policy.rules
    in
    let result = Combine.combine policy.rule_combining children in
    Decision.with_obligations result policy.obligations

and evaluate_set ?resolve ?resolve_ref ctx set =
  match Target.evaluate ?resolve ctx set.set_target with
  | Target.No_match -> Decision.not_applicable
  | Target.Indeterminate_match e ->
    Decision.indeterminate (Printf.sprintf "policy set %s target: %s" set.set_id e)
  | Target.Match ->
    let children =
      List.map
        (fun child ->
          {
            Combine.label = "policy " ^ child_id child;
            applicability = (fun () -> applicability ?resolve ?resolve_ref ctx child);
            evaluate = (fun () -> evaluate_child ?resolve ?resolve_ref ctx child);
          })
        set.children
    in
    let result = Combine.combine set.policy_combining children in
    Decision.with_obligations result set.set_obligations

and evaluate_child ?resolve ?resolve_ref ctx child =
  match child with
  | Inline_policy p -> evaluate ?resolve ?resolve_ref ctx p
  | Inline_set s -> evaluate_set ?resolve ?resolve_ref ctx s
  | Policy_ref id -> (
    (* Reference-to-reference chains are rejected to rule out resolver
       cycles. *)
    match resolve_ref with
    | None -> Decision.indeterminate (Printf.sprintf "unresolved policy reference %s" id)
    | Some r -> (
      match r id with
      | Some (Policy_ref _) | None ->
        Decision.indeterminate (Printf.sprintf "unresolved policy reference %s" id)
      | Some resolved -> evaluate_child ?resolve ?resolve_ref ctx resolved))

and applicability ?resolve ?resolve_ref ctx child =
  match child with
  | Inline_policy p -> Target.evaluate ?resolve ctx p.target
  | Inline_set s -> Target.evaluate ?resolve ctx s.set_target
  | Policy_ref id -> (
    match resolve_ref with
    | None -> Target.Indeterminate_match (Printf.sprintf "unresolved policy reference %s" id)
    | Some r -> (
      match r id with
      | Some (Policy_ref _) | None ->
        Target.Indeterminate_match (Printf.sprintf "unresolved policy reference %s" id)
      | Some resolved -> applicability ?resolve ?resolve_ref ctx resolved))

let rule_count p = List.length p.rules
