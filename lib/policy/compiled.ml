(* Compilation partitions each leaf policy's rules into four classes by
   their targets' pins (Target.pins): pinned on Resource resource-id and
   Action action-id, pinned on one axis, or pinned on neither
   (fallback).  Dispatch unions the buckets selected by the request's
   resource-id / action-id values with the fallback bucket and restores
   document order, so the combining algorithm sees exactly the
   interpreter's rule sequence minus rules whose targets provably cannot
   match.

   Target owns the soundness argument: a pin excludes a request only
   when the pinned bag is clean and so are the guards (the positions the
   sections evaluated before the pinned one read).  Each leaf unions the
   guards of its indexed rules per axis, and dispatch prunes on an axis
   only when all of them are clean.

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
      (* the pin guards of every resource-indexed rule *)
  act_guards : (Context.category * string) list;  (* likewise for action *)
}

type node = Leaf_node of leaf | Set_node of cset | Ref_node of string

and cset = { cs : Policy.set; centries : (Policy.child * node) list }

type t = { root : Policy.child; node : node; epoch : int; reused : int }

(* --- leaf compilation --------------------------------------------------- *)

(* A rule's pin on one axis position, as (values, guards). *)
let axis_pin pins category attr =
  List.find_map
    (fun (p : Target.pin) ->
      if p.pin_category = category && p.pin_attribute = attr then Some (p.pin_values, p.pin_guards)
      else None)
    pins

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
      let pins = Target.pins rule.Rule.target in
      let rvals = axis_pin pins Context.Resource "resource-id" in
      let avals = axis_pin pins Context.Action "action-id" in
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

let find_list tbl key = Option.value (Hashtbl.find_opt tbl key) ~default:[]

(* Candidate positions in document order. *)
let dispatch leaf ctx =
  let rids =
    if Target.guards_clean ctx leaf.res_guards then
      Target.clean_ids ctx Context.Resource "resource-id"
    else None
  in
  let aids =
    if Target.guards_clean ctx leaf.act_guards then Target.clean_ids ctx Context.Action "action-id"
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
