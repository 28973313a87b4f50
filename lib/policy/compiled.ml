(* Compilation partitions each leaf policy's rules into four classes by
   the string-equality pins of their targets: pinned on resource-id and
   action-id, pinned on one axis, or pinned on neither (fallback).
   Dispatch unions the buckets selected by the request's resource-id /
   action-id values with the fallback bucket and restores document
   order, so the combining algorithm sees exactly the interpreter's rule
   sequence minus rules whose targets provably cannot match.

   Pruning is attempted on an axis only when the request's bag for that
   attribute is non-empty and all-string: [string-equal] errors on any
   other value type, so a pinned rule could then be Indeterminate rather
   than NotApplicable and must not be skipped.

   Target sections evaluate in order (subjects, resources, actions,
   environments) and an error in an earlier section short-circuits the
   whole target to Indeterminate — before the pinned section's mismatch
   is ever seen.  A rule is therefore indexable on an axis only when
   every match in the sections evaluated before that axis is a
   [string-equal] on a string literal (the only shape that cannot error
   against an all-string bag), and those matches' attributes are
   recorded as the leaf's guard set for the axis: dispatch prunes only
   when every guard attribute's request bag is also non-empty and
   all-string (emptiness would hand the match to the resolver, whose
   answer we cannot see here).

   Rule conditions have policy variables substituted at compile time;
   an unresolvable variable is remembered as a per-rule error that
   evaluation reports exactly as the interpreter would. *)

type prepared = {
  prule : Rule.t;  (* condition already substituted when [prep_error] is None *)
  prep_error : string option;
}

type leaf = {
  lp : Policy.t;
  prules : prepared array;  (* document order *)
  by_pair : (string * string, int list) Hashtbl.t;  (* pinned on both axes *)
  by_res : (string, int list) Hashtbl.t;  (* resource-pinned, action-free *)
  by_act : (string, int list) Hashtbl.t;  (* action-pinned, resource-free *)
  res_pinned : (string, int list) Hashtbl.t;  (* resource-pinned, either way on action *)
  act_pinned : (string, int list) Hashtbl.t;  (* action-pinned, either way on resource *)
  res_free : int list;  (* no resource pin *)
  act_free : int list;  (* no action pin *)
  wild : int list;  (* fallback: pinned on neither axis *)
  all_pos : int list;  (* 0..n-1 *)
  res_guards : (Context.category * string) list;
      (* attributes read by sections evaluated before the resource
         section of any resource-indexed rule *)
  act_guards : (Context.category * string) list;  (* likewise for action *)
}

type node = Leaf_node of leaf | Set_node of cset | Ref_node of string

and cset = { cs : Policy.set; centries : (Policy.child * node) list }

type t = { root : Policy.child; node : node; epoch : int; reused : int }

(* --- leaf compilation --------------------------------------------------- *)

(* The axis values a clause accepts when it pins [attr] by string
   equality; None when the clause leaves the attribute free. *)
let clause_axis_values attr clause =
  let values =
    List.filter_map
      (fun m ->
        if m.Target.attribute_id = attr && m.Target.fn = "string-equal" then
          match m.Target.value with
          | Value.String s -> Some s
          | _ -> None
        else None)
      clause
  in
  match values with [] -> None | vs -> Some vs

(* All values of [attr] a rule's [section] can apply to, or None when
   unconstrained (some clause leaves the attribute free, or the section
   is empty and so matches everything). *)
let section_axis_values attr section =
  match section with
  | [] -> None
  | clauses ->
    let per_clause = List.map (clause_axis_values attr) clauses in
    if List.exists (fun v -> v = None) per_clause then None
    else
      Some
        (List.sort_uniq compare
           (List.concat_map (fun v -> Option.value v ~default:[]) per_clause))

(* A match that cannot evaluate to an error against a non-empty
   all-string bag: string equality between string operands always
   answers true or false. *)
let guardable_match m =
  m.Target.fn = "string-equal"
  && (match m.Target.value with Value.String _ -> true | _ -> false)

(* The (category, attribute) pairs a section's matches read, or None
   when some match could error in a way a bag-shape check at dispatch
   time cannot rule out. *)
let section_guards section =
  if List.for_all (List.for_all guardable_match) section then
    Some
      (List.concat_map
         (List.map (fun m -> (m.Target.category, m.Target.attribute_id)))
         section)
  else None

(* Axis pins are usable only when the sections the interpreter evaluates
   *before* the pinned one provably cannot short-circuit to
   Indeterminate: subjects come before resources, and subjects and
   resources both come before actions.  Eligible rules contribute their
   earlier sections' attributes to the leaf's guard set. *)
let rule_resource_values (rule : Rule.t) =
  match section_axis_values "resource-id" rule.Rule.target.Target.resources with
  | None -> None
  | Some rs -> (
    match section_guards rule.Rule.target.Target.subjects with
    | None -> None
    | Some guards -> Some (rs, guards))

let rule_action_values (rule : Rule.t) =
  match section_axis_values "action-id" rule.Rule.target.Target.actions with
  | None -> None
  | Some as_ -> (
    match
      ( section_guards rule.Rule.target.Target.subjects,
        section_guards rule.Rule.target.Target.resources )
    with
    | Some g1, Some g2 -> Some (as_, g1 @ g2)
    | _ -> None)

let tbl_add tbl key pos =
  let prev = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
  Hashtbl.replace tbl key (pos :: prev)

let tbl_freeze tbl = Hashtbl.iter (fun k v -> Hashtbl.replace tbl k (List.rev v)) tbl

let prepare_rule policy rule =
  match rule.Rule.condition with
  | None -> { prule = rule; prep_error = None }
  | Some condition -> (
    let lookup name = List.assoc_opt name policy.Policy.variables in
    match Expr.substitute lookup condition with
    | Ok condition -> { prule = { rule with Rule.condition = Some condition }; prep_error = None }
    | Error e -> { prule = rule; prep_error = Some e })

let compile_leaf policy =
  let by_pair = Hashtbl.create 16 in
  let by_res = Hashtbl.create 16 in
  let by_act = Hashtbl.create 16 in
  let res_pinned = Hashtbl.create 16 in
  let act_pinned = Hashtbl.create 16 in
  let res_free = ref [] in
  let act_free = ref [] in
  let wild = ref [] in
  let res_guards = ref [] in
  let act_guards = ref [] in
  List.iteri
    (fun pos rule ->
      let rvals = rule_resource_values rule in
      let avals = rule_action_values rule in
      (match rvals with
      | None -> res_free := pos :: !res_free
      | Some (rs, guards) ->
        res_guards := guards @ !res_guards;
        List.iter (fun r -> tbl_add res_pinned r pos) rs);
      (match avals with
      | None -> act_free := pos :: !act_free
      | Some (as_, guards) ->
        act_guards := guards @ !act_guards;
        List.iter (fun a -> tbl_add act_pinned a pos) as_);
      match (rvals, avals) with
      | None, None -> wild := pos :: !wild
      | Some (rs, _), None -> List.iter (fun r -> tbl_add by_res r pos) rs
      | None, Some (as_, _) -> List.iter (fun a -> tbl_add by_act a pos) as_
      | Some (rs, _), Some (as_, _) ->
        List.iter (fun r -> List.iter (fun a -> tbl_add by_pair (r, a) pos) as_) rs)
    policy.Policy.rules;
  tbl_freeze by_pair;
  tbl_freeze by_res;
  tbl_freeze by_act;
  tbl_freeze res_pinned;
  tbl_freeze act_pinned;
  {
    lp = policy;
    prules = Array.of_list (List.map (prepare_rule policy) policy.Policy.rules);
    by_pair;
    by_res;
    by_act;
    res_pinned;
    act_pinned;
    res_free = List.rev !res_free;
    act_free = List.rev !act_free;
    wild = List.rev !wild;
    all_pos = List.init (List.length policy.Policy.rules) Fun.id;
    res_guards = List.sort_uniq compare !res_guards;
    act_guards = List.sort_uniq compare !act_guards;
  }

(* --- dispatch ----------------------------------------------------------- *)

(* The request's values for one axis attribute, but only when pruning on
   it is sound: a non-empty bag of strings and nothing else.  An empty
   bag may be filled by a resolver later; a non-string value makes
   [string-equal] error instead of mismatch. *)
let clean_ids ctx category attr =
  match Context.bag ctx category attr with
  | [] -> None
  | bag ->
    let rec strings acc = function
      | [] -> Some (List.rev acc)
      | Value.String s :: rest -> strings (s :: acc) rest
      | _ -> None
    in
    strings [] bag

let find_list tbl key = Option.value (Hashtbl.find_opt tbl key) ~default:[]

(* Every guard attribute must carry a non-empty all-string bag, so the
   sections evaluated before a pinned one resolve to Match or No_match —
   never Indeterminate — and the pin's mismatch decides the target. *)
let guards_clean ctx guards =
  List.for_all
    (fun (category, attr) ->
      match Context.bag ctx category attr with
      | [] -> false
      | bag -> List.for_all (function Value.String _ -> true | _ -> false) bag)
    guards

(* Candidate positions in document order. *)
let dispatch leaf ctx =
  let rids =
    if guards_clean ctx leaf.res_guards then clean_ids ctx Context.Resource "resource-id"
    else None
  in
  let aids =
    if guards_clean ctx leaf.act_guards then clean_ids ctx Context.Action "action-id"
    else None
  in
  match (rids, aids) with
  | None, None -> leaf.all_pos
  | Some rs, None ->
    List.sort_uniq compare
      (List.concat (leaf.res_free :: List.map (find_list leaf.res_pinned) rs))
  | None, Some as_ ->
    List.sort_uniq compare
      (List.concat (leaf.act_free :: List.map (find_list leaf.act_pinned) as_))
  | Some rs, Some as_ ->
    let pairs =
      List.concat_map (fun r -> List.map (fun a -> find_list leaf.by_pair (r, a)) as_) rs
    in
    List.sort_uniq compare
      (List.concat
         ((leaf.wild :: List.map (find_list leaf.by_res) rs)
         @ List.map (find_list leaf.by_act) as_
         @ pairs))

(* --- evaluation --------------------------------------------------------- *)

let evaluate_leaf ?resolve ctx leaf =
  let policy = leaf.lp in
  match Target.evaluate ?resolve ctx policy.Policy.target with
  | Target.No_match -> Decision.not_applicable
  | Target.Indeterminate_match e ->
    Decision.indeterminate (Printf.sprintf "policy %s target: %s" policy.Policy.id e)
  | Target.Match ->
    let children =
      List.map
        (fun pos ->
          let p = leaf.prules.(pos) in
          {
            Combine.label = "rule " ^ p.prule.Rule.id;
            applicability = (fun () -> Target.evaluate ?resolve ctx p.prule.Rule.target);
            evaluate =
              (fun () ->
                match p.prep_error with
                | None -> Rule.evaluate ?resolve ctx p.prule
                | Some e ->
                  Decision.indeterminate (Printf.sprintf "rule %s: %s" p.prule.Rule.id e));
          })
        (dispatch leaf ctx)
    in
    let result = Combine.combine policy.Policy.rule_combining children in
    Decision.with_obligations result policy.Policy.obligations

let rec evaluate_node ?resolve ?resolve_ref ctx node =
  match node with
  | Leaf_node leaf -> evaluate_leaf ?resolve ctx leaf
  | Ref_node id -> (
    (* References stay dynamic: they resolve against the live PAP at
       evaluation time, exactly as the interpreter does. *)
    match resolve_ref with
    | None -> Decision.indeterminate (Printf.sprintf "unresolved policy reference %s" id)
    | Some r -> (
      match r id with
      | Some (Policy.Policy_ref _) | None ->
        Decision.indeterminate (Printf.sprintf "unresolved policy reference %s" id)
      | Some resolved -> Policy.evaluate_child ?resolve ?resolve_ref ctx resolved))
  | Set_node { cs; centries } -> (
    match Target.evaluate ?resolve ctx cs.Policy.set_target with
    | Target.No_match -> Decision.not_applicable
    | Target.Indeterminate_match e ->
      Decision.indeterminate (Printf.sprintf "policy set %s target: %s" cs.Policy.set_id e)
    | Target.Match ->
      let children =
        List.map
          (fun (child, cnode) ->
            {
              Combine.label = "policy " ^ Policy.child_id child;
              applicability = (fun () -> Policy.applicability ?resolve ?resolve_ref ctx child);
              evaluate = (fun () -> evaluate_node ?resolve ?resolve_ref ctx cnode);
            })
          centries
      in
      let result = Combine.combine cs.Policy.policy_combining children in
      Decision.with_obligations result cs.Policy.set_obligations)

let evaluate ?resolve ?resolve_ref ctx t = evaluate_node ?resolve ?resolve_ref ctx t.node

(* --- compilation and incremental recompilation -------------------------- *)

let rec compile_node ~reuse ~reused child =
  match child with
  | Policy.Policy_ref id -> Ref_node id
  | Policy.Inline_policy p -> (
    match Hashtbl.find_opt reuse p.Policy.id with
    | Some leaf when leaf.lp = p ->
      incr reused;
      Leaf_node leaf
    | _ -> Leaf_node (compile_leaf p))
  | Policy.Inline_set s ->
    Set_node
      { cs = s; centries = List.map (fun c -> (c, compile_node ~reuse ~reused c)) s.Policy.children }

let rec collect_leaves reuse node =
  match node with
  | Leaf_node leaf ->
    if not (Hashtbl.mem reuse leaf.lp.Policy.id) then Hashtbl.add reuse leaf.lp.Policy.id leaf
  | Ref_node _ -> ()
  | Set_node { centries; _ } -> List.iter (fun (_, n) -> collect_leaves reuse n) centries

let compile child =
  let reused = ref 0 in
  { root = child; node = compile_node ~reuse:(Hashtbl.create 1) ~reused child; epoch = 1; reused = 0 }

let recompile t child =
  if t.root = child then t
  else begin
    let reuse = Hashtbl.create 16 in
    collect_leaves reuse t.node;
    let reused = ref 0 in
    let node = compile_node ~reuse ~reused child in
    { root = child; node; epoch = t.epoch + 1; reused = !reused }
  end

let epoch t = t.epoch
let source t = t.root

(* --- inspection --------------------------------------------------------- *)

let fold_leaves f acc t =
  let rec go acc = function
    | Leaf_node leaf -> f acc leaf
    | Ref_node _ -> acc
    | Set_node { centries; _ } -> List.fold_left (fun acc (_, n) -> go acc n) acc centries
  in
  go acc t.node

let rule_count t = fold_leaves (fun acc leaf -> acc + Array.length leaf.prules) 0 t

let bucket_count t =
  fold_leaves
    (fun acc leaf ->
      acc + Hashtbl.length leaf.by_pair + Hashtbl.length leaf.by_res + Hashtbl.length leaf.by_act)
    0 t

let reused_leaves t = t.reused

let candidate_count t ctx =
  fold_leaves (fun acc leaf -> acc + List.length (dispatch leaf ctx)) 0 t

let pruned_rules t ctx =
  List.rev
    (fold_leaves
       (fun acc leaf ->
         let kept = dispatch leaf ctx in
         let acc = ref acc in
         Array.iteri
           (fun pos p -> if not (List.mem pos kept) then acc := p.prule :: !acc)
           leaf.prules;
         !acc)
       [] t)
