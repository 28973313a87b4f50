module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Target = Dacs_policy.Target
module Combine = Dacs_policy.Combine
module Decision = Dacs_policy.Decision

type rule_ref = {
  policy_id : string;
  policy_issuer : string;
  rule_id : string;
  effect : Rule.effect;
}

type conflict = {
  permit : rule_ref;
  deny : rule_ref;
  permit_first : bool;
  cross_policy : bool;
  cross_authority : bool;
  witness : string;
}

(* A clause's bindings: the value each position it pins
   (Target.clause_pins, keyed by (category, attribute)) must hold.
   Under the single-valued-attribute assumption a clause demanding two
   values at one position is unsatisfiable (None).  Every other match
   is treated as satisfiable alongside anything. *)
let clause_constraint clause =
  List.fold_right
    (fun (pos, values) acc ->
      match (values, acc) with [ v ], Some bindings -> Some ((pos, v) :: bindings) | _ -> None)
    (Target.clause_pins clause) (Some [])

(* Two clause constraints are compatible when they do not demand
   different values at the same position. *)
let compatible a b =
  List.for_all
    (fun (pos, v) ->
      match List.assoc_opt pos b with
      | Some v' -> v = v'
      | None -> true)
    a

(* Section overlap: empty section = matches anything. *)
let sections_overlap sa sb =
  match (sa, sb) with
  | [], _ | _, [] ->
    let any_satisfiable s = s = [] || List.exists (fun c -> clause_constraint c <> None) s in
    if sa = [] then any_satisfiable sb else any_satisfiable sa
  | _ ->
    List.exists
      (fun ca ->
        match clause_constraint ca with
        | None -> false
        | Some ba ->
          List.exists
            (fun cb ->
              match clause_constraint cb with
              | None -> false
              | Some bb -> compatible ba bb)
            sb)
      sa

(* Effective target of a rule inside a policy: both targets constrain the
   request, so overlap must hold for the pair (policy ∧ rule) on each
   side.  We approximate the conjunction by checking both. *)
let targets_overlap (pa, ra) (pb, rb) =
  let sections t = [ t.Target.subjects; t.Target.resources; t.Target.actions; t.Target.environments ] in
  let overlap ta tb = List.for_all2 sections_overlap (sections ta) (sections tb) in
  (* Overlap of the combined constraints: every one of the four targets
     involved must pairwise overlap on each section. *)
  overlap ra.Rule.target rb.Rule.target
  && overlap pa.Policy.target pb.Policy.target
  && overlap pa.Policy.target rb.Rule.target
  && overlap pb.Policy.target ra.Rule.target

let witness_for (p, r) =
  let describe t =
    let part name section =
      match section with
      | [] -> []
      | clause :: _ ->
        List.filter_map
          (fun m ->
            match clause_constraint [ m ] with
            | Some [ ((_, attr), v) ] -> Some (Printf.sprintf "%s %s=%s" name attr v)
            | _ -> None)
          clause
    in
    part "subject" t.Target.subjects
    @ part "resource" t.Target.resources
    @ part "action" t.Target.actions
  in
  let all = describe p.Policy.target @ describe r.Rule.target in
  if all = [] then "any request" else String.concat ", " all

(* Gather (policy, rule, document position) triples from a set. *)
let rec rules_of_set pos set =
  List.concat_map
    (fun child ->
      match child with
      | Policy.Inline_policy p -> rules_of_policy pos p
      | Policy.Inline_set s -> rules_of_set pos s
      | Policy.Policy_ref _ -> [])
    set.Policy.children

and rules_of_policy pos (p : Policy.t) =
  (* Explicit fold: document positions must follow rule order. *)
  List.rev
    (List.fold_left
       (fun acc r ->
         incr pos;
         (p, r, !pos) :: acc)
       [] p.Policy.rules)

let make_ref (p : Policy.t) (r : Rule.t) =
  { policy_id = p.Policy.id; policy_issuer = p.Policy.issuer; rule_id = r.Rule.id; effect = r.Rule.effect }

let conflicts_among triples =
  let rec pairs acc = function
    | [] -> List.rev acc
    | (pa, ra, posa) :: rest ->
      let found =
        List.filter_map
          (fun (pb, rb, posb) ->
            if ra.Rule.effect = rb.Rule.effect then None
            else if not (targets_overlap (pa, ra) (pb, rb)) then None
            else begin
              let (pp, pr, ppos), (dp, dr, dpos) =
                if ra.Rule.effect = Rule.Permit then ((pa, ra, posa), (pb, rb, posb))
                else ((pb, rb, posb), (pa, ra, posa))
              in
              Some
                {
                  permit = make_ref pp pr;
                  deny = make_ref dp dr;
                  permit_first = ppos < dpos;
                  cross_policy = pp.Policy.id <> dp.Policy.id;
                  cross_authority = pp.Policy.issuer <> dp.Policy.issuer;
                  witness = witness_for (pp, pr);
                }
            end)
          rest
      in
      pairs (List.rev_append found acc) rest
  in
  pairs [] triples

let find_in_set set = conflicts_among (rules_of_set (ref 0) set)

let find_between a b =
  let pos = ref 0 in
  let from_a = rules_of_policy pos a in
  let from_b = rules_of_policy pos b in
  conflicts_among (from_a @ from_b)

let resolution algorithm c =
  match algorithm with
  | Combine.Deny_overrides | Combine.Ordered_deny_overrides -> Decision.Deny
  | Combine.Permit_overrides | Combine.Ordered_permit_overrides -> Decision.Permit
  | Combine.First_applicable -> if c.permit_first then Decision.Permit else Decision.Deny
  | Combine.Only_one_applicable -> Decision.Indeterminate "more than one applicable policy"
