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

let inline_variables policy condition =
  Expr.substitute (fun name -> List.assoc_opt name policy.variables) condition

(* A rule with the policy's variables inlined into its condition; a
   broken reference surfaces as Indeterminate for that rule only. *)
let evaluate_rule resolve ctx policy rule =
  match rule.Rule.condition with
  | None -> Rule.evaluate ?resolve ctx rule
  | Some condition -> (
    match inline_variables policy condition with
    | Ok condition -> Rule.evaluate ?resolve ctx { rule with Rule.condition = Some condition }
    | Error e -> Decision.indeterminate (Printf.sprintf "rule %s: %s" rule.Rule.id e))

(* A policy's rules, walked by their list tails. *)
let rule_children =
  {
    Combine.first = (fun _ policy -> policy.rules);
    next = (fun _ _ rules -> List.tl rules);
    finished = List.is_empty;
    label = (fun _ rules -> Rule.label (List.hd rules));
    applicability =
      (fun resolve ctx _ rules -> Target.evaluate ?resolve ctx (List.hd rules).Rule.target);
    evaluate = (fun resolve ctx policy rules -> evaluate_rule resolve ctx policy (List.hd rules));
  }

let evaluate_policy resolve ctx policy =
  match Target.evaluate ?resolve ctx policy.target with
  | Target.No_match -> Decision.not_applicable
  | Target.Indeterminate_match e ->
    Decision.indeterminate (Printf.sprintf "policy %s target: %s" policy.id e)
  | Target.Match ->
    let result = Combine.combine policy.rule_combining rule_children resolve ctx policy in
    Decision.with_obligations result policy.obligations

let evaluate ?resolve ?resolve_ref ctx policy =
  ignore resolve_ref;
  evaluate_policy resolve ctx policy

(* What evaluating a set's children reads besides the context. *)
type resolvers = { resolve : Expr.resolver option; resolve_ref : ref_resolver option }

(* Reference-to-reference chains are rejected to rule out resolver
   cycles. *)
let dereference env id =
  match env.resolve_ref with
  | None -> None
  | Some r -> ( match r id with Some (Policy_ref _) | None -> None | resolved -> resolved)

let unresolved id = Printf.sprintf "unresolved policy reference %s" id

(* A set's children, walked by their list tails. *)
let rec set_children =
  {
    Combine.first = (fun _ set -> set.children);
    next = (fun _ _ children -> List.tl children);
    finished = List.is_empty;
    label = (fun _ children -> "policy " ^ child_id (List.hd children));
    applicability = (fun env ctx _ children -> applicability_in env ctx (List.hd children));
    evaluate = (fun env ctx _ children -> evaluate_in env ctx (List.hd children));
  }

and evaluate_set_in env ctx set =
  match Target.evaluate ?resolve:env.resolve ctx set.set_target with
  | Target.No_match -> Decision.not_applicable
  | Target.Indeterminate_match e ->
    Decision.indeterminate (Printf.sprintf "policy set %s target: %s" set.set_id e)
  | Target.Match ->
    let result = Combine.combine set.policy_combining set_children env ctx set in
    Decision.with_obligations result set.set_obligations

and evaluate_in env ctx child =
  match child with
  | Inline_policy p -> evaluate_policy env.resolve ctx p
  | Inline_set s -> evaluate_set_in env ctx s
  | Policy_ref id -> (
    match dereference env id with
    | Some resolved -> evaluate_in env ctx resolved
    | None -> Decision.indeterminate (unresolved id))

and applicability_in env ctx child =
  match child with
  | Inline_policy p -> Target.evaluate ?resolve:env.resolve ctx p.target
  | Inline_set s -> Target.evaluate ?resolve:env.resolve ctx s.set_target
  | Policy_ref id -> (
    match dereference env id with
    | Some resolved -> applicability_in env ctx resolved
    | None -> Target.Indeterminate_match (unresolved id))

let evaluate_set ?resolve ?resolve_ref ctx set = evaluate_set_in { resolve; resolve_ref } ctx set
let evaluate_child ?resolve ?resolve_ref ctx child = evaluate_in { resolve; resolve_ref } ctx child
let applicability ?resolve ?resolve_ref ctx child = applicability_in { resolve; resolve_ref } ctx child

let rule_count p = List.length p.rules

(* Only a condition with variable references can fail to resolve. *)
let rule_pins policy rule =
  match rule.Rule.condition with
  | Some condition
    when Expr.variable_refs condition <> [] && Result.is_error (inline_variables policy condition) ->
    []
  | None | Some _ -> Target.pins rule.Rule.target
