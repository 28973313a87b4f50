type problem = {
  location : string;
  message : string;
}

let problem_to_string p = Printf.sprintf "%s: %s" p.location p.message

let problem location message = { location; message }

let check_matches location target =
  let sections =
    [
      target.Target.subjects;
      target.Target.resources;
      target.Target.actions;
      target.Target.environments;
    ]
  in
  List.concat_map
    (fun section ->
      List.concat_map
        (fun clause ->
          List.filter_map
            (fun m ->
              if Option.is_none m.Target.matcher then
                Some (problem location (Printf.sprintf "unknown match function %s" m.Target.fn))
              else None)
            clause)
        section)
    sections

let check_rule policy_id (r : Rule.t) =
  let location = Printf.sprintf "policy %s / rule %s" policy_id r.Rule.id in
  check_matches location r.Rule.target
  @
  match r.Rule.condition with
  | None -> []
  | Some c -> List.map (problem location) (Expr.validate c)

let duplicates ids =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun id ->
      if Hashtbl.mem seen id then Some id
      else begin
        Hashtbl.add seen id ();
        None
      end)
    ids

(* Variable definitions must be resolvable and acyclic, and every
   reference in a condition must name a definition. *)
let check_variables (p : Policy.t) =
  let location = Printf.sprintf "policy %s" p.Policy.id in
  let defined = List.map fst p.Policy.variables in
  let dup_defs =
    List.map
      (fun name -> problem location (Printf.sprintf "duplicate variable definition %s" name))
      (duplicates defined)
  in
  (* Cycle detection: DFS over the reference graph of definitions. *)
  let rec reaches seen name =
    if List.mem name seen then true
    else
      match List.assoc_opt name p.Policy.variables with
      | None -> false
      | Some e -> List.exists (reaches (name :: seen)) (Expr.variable_refs e)
  in
  let cycles =
    List.filter_map
      (fun (name, e) ->
        if List.exists (reaches [ name ]) (Expr.variable_refs e) then
          Some (problem location (Printf.sprintf "variable %s participates in a reference cycle" name))
        else None)
      p.Policy.variables
  in
  let unresolved_in where e =
    List.filter_map
      (fun name ->
        if List.mem_assoc name p.Policy.variables then None
        else Some (problem where (Printf.sprintf "reference to undefined variable %s" name)))
      (Expr.variable_refs e)
  in
  let in_definitions =
    List.concat_map (fun (name, e) -> unresolved_in (location ^ " / variable " ^ name) e) p.Policy.variables
  in
  let in_conditions =
    List.concat_map
      (fun (r : Rule.t) ->
        match r.Rule.condition with
        | None -> []
        | Some c -> unresolved_in (Printf.sprintf "policy %s / rule %s" p.Policy.id r.Rule.id) c)
      p.Policy.rules
  in
  dup_defs @ cycles @ in_definitions @ in_conditions

let check_policy (p : Policy.t) =
  let location = Printf.sprintf "policy %s" p.Policy.id in
  let structural =
    (if p.Policy.rules = [] then [ problem location "policy has no rules" ] else [])
    @ (if p.Policy.rule_combining = Combine.Only_one_applicable then
         [ problem location "only-one-applicable is a policy-combining algorithm, not rule-combining" ]
       else [])
    @ List.map
        (fun id -> problem location (Printf.sprintf "duplicate rule id %s" id))
        (duplicates (List.map (fun r -> r.Rule.id) p.Policy.rules))
  in
  structural @ check_matches location p.Policy.target @ check_variables p
  @ List.concat_map (check_rule p.Policy.id) p.Policy.rules

let rec check_set (s : Policy.set) =
  let location = Printf.sprintf "policy set %s" s.Policy.set_id in
  let ids = List.map Policy.child_id s.Policy.children in
  (if s.Policy.children = [] then [ problem location "policy set has no children" ] else [])
  @ List.map
      (fun id -> problem location (Printf.sprintf "duplicate child id %s" id))
      (duplicates ids)
  @ check_matches location s.Policy.set_target
  @ List.concat_map check_child s.Policy.children

and check_child = function
  | Policy.Inline_policy p -> check_policy p
  | Policy.Inline_set s -> check_set s
  | Policy.Policy_ref _ -> []

let shadowed_rules (p : Policy.t) =
  if p.Policy.rule_combining <> Combine.First_applicable then []
  else begin
    (* A condition-free earlier rule shadows a later one when its target
       is at least as permissive.  We recognise two sound cases: the
       wildcard target, and exact target equality. *)
    let covers (a : Rule.t) (b : Rule.t) =
      a.Rule.condition = None
      && (a.Rule.target = Target.any || a.Rule.target = b.Rule.target)
    in
    let rec scan earlier acc = function
      | [] -> List.rev acc
      | rule :: rest ->
        let acc =
          match List.find_opt (fun a -> covers a rule) (List.rev earlier) with
          | Some a -> (a.Rule.id, rule.Rule.id) :: acc
          | None -> acc
        in
        scan (rule :: earlier) acc rest
    in
    scan [] [] p.Policy.rules
  end
