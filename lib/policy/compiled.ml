(* Compilation partitions each leaf policy's rules into four classes by
   their targets' pins (Target.pins): pinned on Resource resource-id and
   Action action-id, pinned on one axis, or pinned on neither
   (fallback).  Dispatch walks the buckets selected by the request's
   resource-id / action-id values together with the fallback bucket in
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

module Stbl = Hashtbl.Make (String)

type prepared = {
  prule : Rule.t;  (* condition already substituted when [prep_error] is None *)
  prep_error : string option;
}

(* Every bucket is a sorted array of rule positions. *)
type leaf = {
  lp : Policy.t;
  prules : prepared array;  (* document order *)
  by_pair : int array Stbl.t Stbl.t;  (* resource, then action: pinned on both axes *)
  by_res : int array Stbl.t;  (* resource-pinned, action-free *)
  by_act : int array Stbl.t;  (* action-pinned, resource-free *)
  res_pinned : int array Stbl.t;  (* resource-pinned, either way on action *)
  act_pinned : int array Stbl.t;  (* action-pinned, either way on resource *)
  res_free : int array;  (* no resource pin *)
  act_free : int array;  (* no action pin *)
  wild : int array;  (* fallback: pinned on neither axis *)
  res_guards : (Context.category * string) list;
      (* the pin guards of every resource-indexed rule *)
  act_guards : (Context.category * string) list;  (* likewise for action *)
  rule_pins : Target.pin list array;
      (* Policy.rule_pins per position, kept only by a leaf a recompile
         built, for the next one to reuse; empty after a fresh compile,
         so a tree that is never republished does not hold them *)
}

type node = Leaf_node of leaf | Set_node of cset | Ref_node of string

and cset = { cs : Policy.set; centries : (Policy.child * node) list }

type t = { root : Policy.child; node : node; epoch : int; reused : int; reused_rules : int }

(* --- leaf compilation --------------------------------------------------- *)

(* A rule's pin on one axis position, as (values, guards). *)
let axis_pin pins category attr =
  List.find_map
    (fun (p : Target.pin) ->
      if p.pin_category = category && p.pin_attribute = attr then Some (p.pin_values, p.pin_guards)
      else None)
    pins

(* Positions are added in descending order, so each list reads
   ascending. *)
let tbl_add tbl key pos =
  let prev = Option.value (Stbl.find_opt tbl key) ~default:[] in
  Stbl.replace tbl key (pos :: prev)

let tbl_freeze tbl =
  let frozen = Stbl.create (Stbl.length tbl) in
  Stbl.iter (fun k v -> Stbl.replace frozen k (Array.of_list v)) tbl;
  frozen

let prepare_rule policy rule =
  match rule.Rule.condition with
  | None -> { prule = rule; prep_error = None }
  | Some condition -> (
    let lookup name = List.assoc_opt name policy.Policy.variables in
    match Expr.substitute lookup condition with
    | Ok condition -> { prule = { rule with Rule.condition = Some condition }; prep_error = None }
    | Error e -> { prule = rule; prep_error = Some e })

let compile_leaf policy prules rule_pins =
  let by_pair = Stbl.create 16 in
  let by_res = Stbl.create 16 in
  let by_act = Stbl.create 16 in
  let res_pinned = Stbl.create 16 in
  let act_pinned = Stbl.create 16 in
  let res_free = ref [] in
  let act_free = ref [] in
  let wild = ref [] in
  let res_guards = ref [] in
  let act_guards = ref [] in
  for pos = Array.length prules - 1 downto 0 do
    let pins =
      if Array.length rule_pins > 0 then rule_pins.(pos) else Policy.rule_pins policy prules.(pos).prule
    in
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
      List.iter
        (fun r ->
          let actions =
            match Stbl.find_opt by_pair r with
            | Some actions -> actions
            | None ->
              let actions = Stbl.create 4 in
              Stbl.replace by_pair r actions;
              actions
          in
          List.iter (fun a -> tbl_add actions a pos) as_)
        rs
  done;
  let by_pair_frozen = Stbl.create (Stbl.length by_pair) in
  Stbl.iter (fun r actions -> Stbl.replace by_pair_frozen r (tbl_freeze actions)) by_pair;
  {
    lp = policy;
    prules;
    by_pair = by_pair_frozen;
    by_res = tbl_freeze by_res;
    by_act = tbl_freeze by_act;
    res_pinned = tbl_freeze res_pinned;
    act_pinned = tbl_freeze act_pinned;
    res_free = Array.of_list !res_free;
    act_free = Array.of_list !act_free;
    wild = Array.of_list !wild;
    res_guards = List.sort_uniq compare !res_guards;
    act_guards = List.sort_uniq compare !act_guards;
    rule_pins;
  }

let fresh_leaf policy =
  compile_leaf policy (Array.of_list (List.map (prepare_rule policy) policy.Policy.rules)) [||]

(* A rule's prepared form and pins depend on the rule and its policy's
   variables alone, so a changed leaf whose variables are unchanged
   reuses them for every rule whose id and source are unchanged; only
   the buckets are rebuilt. *)
let recompiled_leaf prev ~reused_rules policy =
  let rules = Array.of_list policy.Policy.rules in
  let previous = Stbl.create (Array.length rules) in
  if prev.lp.Policy.variables = policy.Policy.variables then
    List.iteri (fun pos rule -> Stbl.replace previous rule.Rule.id (rule, pos)) prev.lp.Policy.rules;
  let old rule =
    match Stbl.find_opt previous rule.Rule.id with
    | Some (source, pos) when source = rule -> pos
    | Some _ | None -> -1
  in
  let olds = Array.map old rules in
  let prules =
    Array.mapi
      (fun i rule ->
        if olds.(i) < 0 then prepare_rule policy rule
        else begin
          incr reused_rules;
          prev.prules.(olds.(i))
        end)
      rules
  in
  let rule_pins =
    Array.mapi
      (fun i p ->
        if olds.(i) >= 0 && Array.length prev.rule_pins > 0 then prev.rule_pins.(olds.(i))
        else Policy.rule_pins policy p.prule)
      prules
  in
  compile_leaf policy prules rule_pins

(* --- dispatch ----------------------------------------------------------- *)

(* Dispatch is a cursor: [next ctx leaf pos] is the first candidate
   after position [pos] ([-1] before the first), or [-1] past the last.
   It takes the least position above [pos] over the selected buckets,
   which walks their union in document order without building it; a
   rule several buckets hold (a rule pinned to two of a multi-valued
   bag's values) is visited once.  All helpers are top-level functions
   over explicit arguments, so a step allocates nothing. *)

let none = max_int

(* The least element of a sorted bucket above [pos], searching
   [lo, hi). *)
let rec above bucket pos lo hi =
  if lo >= hi then if lo < Array.length bucket then bucket.(lo) else none
  else
    let mid = (lo + hi) / 2 in
    if bucket.(mid) > pos then above bucket pos lo mid else above bucket pos (mid + 1) hi

let after bucket pos = above bucket pos 0 (Array.length bucket)

let empty_bucket : int array = [||]

let find tbl key =
  if Stbl.length tbl = 0 then empty_bucket
  else match Stbl.find tbl key with bucket -> bucket | exception Not_found -> empty_bucket

let no_actions : int array Stbl.t = Stbl.create 1

let find_actions by_pair r =
  if Stbl.length by_pair = 0 then no_actions
  else match Stbl.find by_pair r with actions -> actions | exception Not_found -> no_actions

(* The least candidate above [pos] in the buckets the bag's values
   select, or [best]. *)
let rec after_each tbl bag pos best =
  match bag with
  | Value.String v :: rest -> after_each tbl rest pos (Int.min best (after (find tbl v) pos))
  | _ -> best

let rec after_pairs by_pair rbag abag pos best =
  match rbag with
  | Value.String r :: rest ->
    after_pairs by_pair rest abag pos (after_each (find_actions by_pair r) abag pos best)
  | _ -> best

(* The request's bag on one axis when dispatch may prune on it — some
   rule is indexed there, the bag is clean and so are those rules'
   guards — else []. *)
let axis_bag ctx pinned guards category attr =
  if Stbl.length pinned > 0 && Target.guards_clean ctx guards then
    let bag = Context.bag ctx category attr in
    if Target.clean bag then bag else []
  else []

let next ctx leaf pos =
  let rbag = axis_bag ctx leaf.res_pinned leaf.res_guards Context.Resource "resource-id" in
  let abag = axis_bag ctx leaf.act_pinned leaf.act_guards Context.Action "action-id" in
  let best =
    match (rbag, abag) with
    | [], [] -> if pos + 1 < Array.length leaf.prules then pos + 1 else none
    | _, [] -> after_each leaf.res_pinned rbag pos (after leaf.res_free pos)
    | [], _ -> after_each leaf.act_pinned abag pos (after leaf.act_free pos)
    | _, _ ->
      let best = after_each leaf.by_res rbag pos (after leaf.wild pos) in
      let best = after_each leaf.by_act abag pos best in
      after_pairs leaf.by_pair rbag abag pos best
  in
  if best = none then -1 else best

(* --- evaluation --------------------------------------------------------- *)

let evaluate_prepared resolve ctx p =
  match p.prep_error with
  | None -> Rule.evaluate ?resolve ctx p.prule
  | Some e -> Decision.indeterminate (Printf.sprintf "rule %s: %s" p.prule.Rule.id e)

(* A leaf's candidate rules, walked by position. *)
let rule_children =
  {
    Combine.first = (fun ctx leaf -> next ctx leaf (-1));
    next;
    finished = (fun pos -> pos < 0);
    label = (fun leaf pos -> Rule.label leaf.prules.(pos).prule);
    applicability =
      (fun resolve ctx leaf pos -> Target.evaluate ?resolve ctx leaf.prules.(pos).prule.Rule.target);
    evaluate = (fun resolve ctx leaf pos -> evaluate_prepared resolve ctx leaf.prules.(pos));
  }

let evaluate_leaf resolve ctx leaf =
  let policy = leaf.lp in
  match Target.evaluate ?resolve ctx policy.Policy.target with
  | Target.No_match -> Decision.not_applicable
  | Target.Indeterminate_match e ->
    Decision.indeterminate (Printf.sprintf "policy %s target: %s" policy.Policy.id e)
  | Target.Match ->
    let result = Combine.combine policy.Policy.rule_combining rule_children resolve ctx leaf in
    Decision.with_obligations result policy.Policy.obligations

(* What evaluating a set's children reads besides the context; built
   only when the tree has a set. *)
type resolvers = { resolve : Expr.resolver option; resolve_ref : Policy.ref_resolver option }

let rec set_children =
  {
    Combine.first = (fun _ set -> set.centries);
    next = (fun _ _ entries -> List.tl entries);
    finished = List.is_empty;
    label = (fun _ entries -> "policy " ^ Policy.child_id (fst (List.hd entries)));
    applicability =
      (fun env ctx _ entries ->
        Policy.applicability ?resolve:env.resolve ?resolve_ref:env.resolve_ref ctx
          (fst (List.hd entries)));
    evaluate = (fun env ctx _ entries -> evaluate_node env ctx (snd (List.hd entries)));
  }

and evaluate_node env ctx node =
  match node with
  | Leaf_node leaf -> evaluate_leaf env.resolve ctx leaf
  | Ref_node id -> (
    (* References stay dynamic: they resolve against the live PAP at
       evaluation time, exactly as the interpreter does. *)
    match env.resolve_ref with
    | None -> Decision.indeterminate (Printf.sprintf "unresolved policy reference %s" id)
    | Some r -> (
      match r id with
      | Some (Policy.Policy_ref _) | None ->
        Decision.indeterminate (Printf.sprintf "unresolved policy reference %s" id)
      | Some resolved ->
        Policy.evaluate_child ?resolve:env.resolve ?resolve_ref:env.resolve_ref ctx resolved))
  | Set_node set -> (
    let cs = set.cs in
    match Target.evaluate ?resolve:env.resolve ctx cs.Policy.set_target with
    | Target.No_match -> Decision.not_applicable
    | Target.Indeterminate_match e ->
      Decision.indeterminate (Printf.sprintf "policy set %s target: %s" cs.Policy.set_id e)
    | Target.Match ->
      let result = Combine.combine cs.Policy.policy_combining set_children env ctx set in
      Decision.with_obligations result cs.Policy.set_obligations)

let evaluate ?resolve ?resolve_ref ctx t =
  match t.node with
  | Leaf_node leaf -> evaluate_leaf resolve ctx leaf
  | node -> evaluate_node { resolve; resolve_ref } ctx node

(* --- compilation and incremental recompilation -------------------------- *)

let rec compile_node ~reuse ~reused ~reused_rules child =
  match child with
  | Policy.Policy_ref id -> Ref_node id
  | Policy.Inline_policy p -> (
    match Hashtbl.find_opt reuse p.Policy.id with
    | Some leaf when leaf.lp = p ->
      incr reused;
      reused_rules := !reused_rules + Array.length leaf.prules;
      Leaf_node leaf
    | Some prev -> Leaf_node (recompiled_leaf prev ~reused_rules p)
    | None -> Leaf_node (fresh_leaf p))
  | Policy.Inline_set s ->
    Set_node
      {
        cs = s;
        centries = List.map (fun c -> (c, compile_node ~reuse ~reused ~reused_rules c)) s.Policy.children;
      }

let rec collect_leaves reuse node =
  match node with
  | Leaf_node leaf ->
    if not (Hashtbl.mem reuse leaf.lp.Policy.id) then Hashtbl.add reuse leaf.lp.Policy.id leaf
  | Ref_node _ -> ()
  | Set_node { centries; _ } -> List.iter (fun (_, n) -> collect_leaves reuse n) centries

let build ~reuse ~epoch child =
  let reused = ref 0 and reused_rules = ref 0 in
  let node = compile_node ~reuse ~reused ~reused_rules child in
  { root = child; node; epoch; reused = !reused; reused_rules = !reused_rules }

let compile child = build ~reuse:(Hashtbl.create 1) ~epoch:1 child

let recompile t child =
  if t.root = child then t
  else begin
    let reuse = Hashtbl.create 16 in
    collect_leaves reuse t.node;
    build ~reuse ~epoch:(t.epoch + 1) child
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
      Stbl.fold (fun _ actions acc -> acc + Stbl.length actions) leaf.by_pair acc
      + Stbl.length leaf.by_res + Stbl.length leaf.by_act)
    0 t

let reused_leaves t = t.reused
let reused_rules t = t.reused_rules

(* The positions dispatch keeps for [ctx] in one leaf, as flags. *)
let kept leaf ctx =
  let flags = Array.make (Array.length leaf.prules) false in
  let rec go pos = if pos >= 0 then (flags.(pos) <- true; go (next ctx leaf pos)) in
  go (next ctx leaf (-1));
  flags

let candidate_count t ctx =
  fold_leaves
    (fun acc leaf -> Array.fold_left (fun acc k -> if k then acc + 1 else acc) acc (kept leaf ctx))
    0 t

let pruned_rules t ctx =
  List.rev
    (fold_leaves
       (fun acc leaf ->
         let kept = kept leaf ctx in
         let acc = ref acc in
         Array.iteri (fun pos p -> if not kept.(pos) then acc := p.prule :: !acc) leaf.prules;
         !acc)
       [] t)
