(* Soundness suite for the change-impact analysis (Delta.between).

   The contract under test: for any pair of policy trees (before, after)
   and any request the computed region does NOT cover, evaluation must
   be identical under both trees — decision, obligations and
   Indeterminate message.  The region may be as wide as it likes
   (Unbounded makes the property trivially true); it may never be too
   narrow.

   The suite proves this three ways:

   - a QCheck differential property (1000 cases with shrinking, all six
     combining algorithms): a random policy, a random structural edit
     (rule added / removed / replaced, shell obligation change), a
     random request — outside the region, decisions must match;
   - the same property over policy sets (random children, child-level
     edits) so the set/children recursion is covered;
   - directed pins for each edit class, plus a mutation check: the same
     soundness checker handed a deliberately under-approximated region
     (Empty, where the publish really changes decisions) must fail —
     proving the gate can detect an unsound analysis at all.

   Policies are integer-coded specs (the test_oracle idiom) so QCheck
   shrinks to a minimal counterexample. *)

module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Target = Dacs_policy.Target
module Expr = Dacs_policy.Expr
module Combine = Dacs_policy.Combine
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Obligation = Dacs_policy.Obligation
module Value = Dacs_policy.Value
module Delta = Dacs_policy.Delta
module Conflict = Dacs_core.Conflict

(* --- spec encoding (the oracle vocabulary) ------------------------------ *)

let roles = [| "doctor"; "nurse"; "admin" |]
let resources = [| "chart"; "lab"; "note" |]
let actions = [| "read"; "write" |]

type rule_spec = {
  effect_code : int;
  target_code : int;
  condition_code : int;
}

let pin_shapes_base = 1 + Array.length resources + Array.length actions + Array.length roles

let rule_of_spec i s =
  let effect = if s.effect_code = 0 then Rule.Permit else Rule.Deny in
  let target =
    match s.target_code with
    | 0 -> Target.any
    | c when c <= Array.length resources ->
      Target.(any |> resource_is "resource-id" resources.(c - 1))
    | c when c <= Array.length resources + Array.length actions ->
      Target.(any |> action_is "action-id" actions.(c - 1 - Array.length resources))
    | c when c < pin_shapes_base ->
      Target.(
        any |> subject_is "role" roles.(c - 1 - Array.length resources - Array.length actions))
    | c -> Pin_shapes.target (c - pin_shapes_base)
  in
  let condition =
    match s.condition_code with
    | 0 -> None
    | c when c <= Array.length roles ->
      Some (Expr.one_of (Expr.subject_attr "role") [ roles.(c - 1) ])
    | c when c = Array.length roles + 1 ->
      Some (Expr.one_of (Expr.subject_attr ~must_be_present:true "clearance") [ "secret" ])
    | _ ->
      (* Names no variable the policy defines: Indeterminate whatever
         the rule's target. *)
      Some (Expr.Variable_ref "undefined")
  in
  Rule.make ~target ?condition effect (Printf.sprintf "r%d" i)

let target_code_max = pin_shapes_base + Pin_shapes.kinds - 1
let condition_code_max = Array.length roles + 2

type pspec = { rule_specs : rule_spec list; obligation_code : int }

let policy_of_spec ?(id = "delta-policy") alg p =
  let obligations =
    if p.obligation_code = 0 then []
    else [ Obligation.make ~fulfill_on:Obligation.Permit (Printf.sprintf "urn:test:o%d" p.obligation_code) ]
  in
  Policy.make ~id ~rule_combining:alg ~obligations (List.mapi rule_of_spec p.rule_specs)

type ctx_spec = { role_code : int; resource_code : int; action_code : int; cross_code : int }

let ctx_of_spec s =
  let subject =
    ("subject-id", Value.String "alice")
    ::
    (if s.role_code = 0 then []
     else [ ("role", Value.String roles.((s.role_code - 1) mod Array.length roles)) ])
  in
  Pin_shapes.with_cross s.cross_code
    (Context.make ~subject
       ~resource:
         [ ("resource-id", Value.String resources.(s.resource_code mod Array.length resources)) ]
       ~action:[ ("action-id", Value.String actions.(s.action_code mod Array.length actions)) ]
       ())

(* Every context the vocabulary can express, including the role-absent
   ones — the enumerated population the soundness and mutation checks
   sweep. *)
let all_ctx_specs =
  List.concat_map
    (fun role_code ->
      List.concat_map
        (fun resource_code ->
          List.map
            (fun action_code -> { role_code; resource_code; action_code; cross_code = 0 })
            [ 0; 1 ])
        [ 0; 1; 2 ])
    [ 0; 1; 2; 3 ]

let all_ctxs = List.map ctx_of_spec all_ctx_specs

(* --- structural edits --------------------------------------------------- *)

(* An edit is encoded as (kind, position, rule_spec): the decoded edit
   is applied to the old spec to produce the new one, so QCheck shrinks
   over the edit too. *)
type edit =
  | No_op
  | Drop_rule of int
  | Add_rule of int * rule_spec
  | Replace_rule of int * rule_spec
  | Shell_obligations

let apply_edit p = function
  | No_op -> p
  | Drop_rule i ->
    { p with rule_specs = List.filteri (fun j _ -> j <> i mod max 1 (List.length p.rule_specs)) p.rule_specs }
  | Add_rule (i, s) ->
    let n = List.length p.rule_specs in
    let at = if n = 0 then 0 else i mod (n + 1) in
    let rec insert j = function
      | rest when j = at -> s :: rest
      | [] -> [ s ]
      | r :: rest -> r :: insert (j + 1) rest
    in
    { p with rule_specs = insert 0 p.rule_specs }
  | Replace_rule (i, s) ->
    let n = List.length p.rule_specs in
    if n = 0 then { p with rule_specs = [ s ] }
    else { p with rule_specs = List.mapi (fun j r -> if j = i mod n then s else r) p.rule_specs }
  | Shell_obligations -> { p with obligation_code = 1 - min 1 p.obligation_code }

let edit_of_code (kind, pos, s) =
  match kind with
  | 0 -> No_op
  | 1 -> Drop_rule pos
  | 2 -> Add_rule (pos, s)
  | 3 -> Replace_rule (pos, s)
  | _ -> Shell_obligations

(* --- generators --------------------------------------------------------- *)

let arb_rule =
  let open QCheck in
  map
    ~rev:(fun s -> (s.effect_code, s.target_code, s.condition_code))
    (fun (e, t, c) -> { effect_code = e; target_code = t; condition_code = c })
    (triple (int_bound 1) (int_bound target_code_max) (int_bound condition_code_max))

let arb_pspec =
  let open QCheck in
  map
    ~rev:(fun p -> (p.rule_specs, p.obligation_code))
    (fun (rs, o) -> { rule_specs = rs; obligation_code = o })
    (pair (list_of_size (Gen.int_bound 6) arb_rule) (int_bound 1))

let arb_edit =
  let open QCheck in
  map ~rev:(fun _ -> (0, 0, { effect_code = 0; target_code = 0; condition_code = 0 }))
    edit_of_code
    (triple (int_bound 4) (int_bound 6) arb_rule)

let arb_ctx =
  let open QCheck in
  map
    ~rev:(fun s -> (s.role_code, s.resource_code, s.action_code, s.cross_code))
    (fun (r, rs, a, x) -> { role_code = r; resource_code = rs; action_code = a; cross_code = x })
    (quad (int_bound (Array.length roles)) (int_bound 2) (int_bound 1)
       (int_bound Pin_shapes.cross_codes))

let result_equal (a : Decision.result) (b : Decision.result) =
  Decision.equal_decision a.Decision.decision b.Decision.decision
  && List.length a.Decision.obligations = List.length b.Decision.obligations
  && List.for_all2 Obligation.equal a.Decision.obligations b.Decision.obligations

let show_result (r : Decision.result) =
  Printf.sprintf "%s [%s]"
    (Decision.decision_to_string r.Decision.decision)
    (String.concat "; " (List.map (fun o -> o.Obligation.id) r.Decision.obligations))

let algorithms =
  [
    ("deny-overrides", Combine.Deny_overrides);
    ("permit-overrides", Combine.Permit_overrides);
    ("first-applicable", Combine.First_applicable);
    ("only-one-applicable", Combine.Only_one_applicable);
    ("ordered-deny-overrides", Combine.Ordered_deny_overrides);
    ("ordered-permit-overrides", Combine.Ordered_permit_overrides);
  ]

(* The soundness checker itself — shared with the mutation check, which
   proves it can detect an unsound region at all. *)
let region_sound region old_root new_root ctx =
  Delta.covers region ctx
  ||
  let before = Policy.evaluate_child ctx old_root in
  let after = Policy.evaluate_child ctx new_root in
  result_equal before after

(* --- property 1: single-policy edits ------------------------------------ *)

let soundness_prop (name, alg) =
  QCheck.Test.make
    ~name:(Printf.sprintf "outside region => identical decision (%s)" name)
    ~count:1000
    QCheck.(triple arb_pspec arb_edit arb_ctx)
    (fun (pspec, edit, cspec) ->
      let old_root = Policy.Inline_policy (policy_of_spec alg pspec) in
      let new_root = Policy.Inline_policy (policy_of_spec alg (apply_edit pspec edit)) in
      let region = Delta.between (Some old_root) (Some new_root) in
      let ctx = ctx_of_spec cspec in
      if region_sound region old_root new_root ctx then true
      else
        QCheck.Test.fail_reportf
          "[%s] request outside region %s decided %s before and %s after the publish" name
          (Delta.to_string region)
          (show_result (Policy.evaluate_child ctx old_root))
          (show_result (Policy.evaluate_child ctx new_root)))

(* A structurally identical pair must always produce the empty region —
   the publish plane's no-op fast path. *)
let noop_prop (name, alg) =
  QCheck.Test.make
    ~name:(Printf.sprintf "no-op publish => empty region (%s)" name)
    ~count:300 arb_pspec
    (fun pspec ->
      let root = Policy.Inline_policy (policy_of_spec alg pspec) in
      Delta.is_empty (Delta.between (Some root) (Some root)))

(* --- property 2: policy-set edits --------------------------------------- *)

type set_edit = Set_noop | Drop_child of int | Add_child of int * pspec | Edit_child of int * edit

let set_of_specs alg specs =
  Policy.Inline_set
    (Policy.make_set ~id:"delta-set" ~policy_combining:alg
       (List.mapi
          (fun i p ->
            Policy.Inline_policy (policy_of_spec ~id:(Printf.sprintf "child%d" i) alg p))
          specs))

let apply_set_edit specs = function
  | Set_noop -> specs
  | Drop_child i ->
    List.filteri (fun j _ -> j <> i mod max 1 (List.length specs)) specs
  | Add_child (i, p) ->
    let n = List.length specs in
    let at = if n = 0 then 0 else i mod (n + 1) in
    let rec insert j = function
      | rest when j = at -> p :: rest
      | [] -> [ p ]
      | c :: rest -> c :: insert (j + 1) rest
    in
    insert 0 specs
  | Edit_child (i, e) ->
    let n = List.length specs in
    if n = 0 then specs
    else List.mapi (fun j p -> if j = i mod n then apply_edit p e else p) specs

let arb_set_edit =
  let open QCheck in
  map
    ~rev:(fun _ -> (0, 0, { rule_specs = []; obligation_code = 0 }, (0, 0, { effect_code = 0; target_code = 0; condition_code = 0 })))
    (fun (kind, pos, p, ecode) ->
      match kind with
      | 0 -> Set_noop
      | 1 -> Drop_child pos
      | 2 -> Add_child (pos, p)
      | _ -> Edit_child (pos, edit_of_code ecode))
    (quad (int_bound 3) (int_bound 4) arb_pspec
       (triple (int_bound 4) (int_bound 6) arb_rule))

let set_soundness_prop (name, alg) =
  QCheck.Test.make
    ~name:(Printf.sprintf "set edit: outside region => identical decision (%s)" name)
    ~count:500
    QCheck.(triple (list_of_size (Gen.int_bound 3) arb_pspec) arb_set_edit arb_ctx)
    (fun (specs, edit, cspec) ->
      let old_root = set_of_specs alg specs in
      let new_root = set_of_specs alg (apply_set_edit specs edit) in
      let region = Delta.between (Some old_root) (Some new_root) in
      let ctx = ctx_of_spec cspec in
      if region_sound region old_root new_root ctx then true
      else
        QCheck.Test.fail_reportf
          "[%s] set-edit request outside region %s changed decision across the publish" name
          (Delta.to_string region))

(* --- directed pins ------------------------------------------------------ *)

let check = Alcotest.(check bool)

let permit_rule ?(id = "permit-doctor-chart-read") () =
  Rule.permit
    ~target:
      Target.(
        any
        |> subject_is "role" "doctor"
        |> resource_is "resource-id" "chart"
        |> action_is "action-id" "read")
    id

let deny_all = Rule.deny "default-deny"

let pol ?(id = "directed") rules = Policy.Inline_policy (Policy.make ~id ~rule_combining:Combine.First_applicable rules)

let ctx ?role ?(resource = "chart") ?(action = "read") () =
  let subject =
    ("subject-id", Value.String "alice")
    :: (match role with None -> [] | Some r -> [ ("role", Value.String r) ])
  in
  Context.make ~subject
    ~resource:[ ("resource-id", Value.String resource) ]
    ~action:[ ("action-id", Value.String action) ]
    ()

let directed_rule_added () =
  let before = pol [ deny_all ] in
  let after = pol [ permit_rule (); deny_all ] in
  let region = Delta.between (Some before) (Some after) in
  check "region is bounded" true (not (Delta.is_unbounded region) && not (Delta.is_empty region));
  check "added rule's request is covered" true (Delta.covers region (ctx ~role:"doctor" ()));
  check "other-role request excluded" false (Delta.covers region (ctx ~role:"nurse" ()));
  check "other-resource request excluded" false
    (Delta.covers region (ctx ~role:"doctor" ~resource:"lab" ()));
  check "role-absent request conservatively covered" true (Delta.covers region (ctx ()))

let directed_rule_removed () =
  let before = pol [ permit_rule (); deny_all ] in
  let after = pol [ deny_all ] in
  let region = Delta.between (Some before) (Some after) in
  check "removed rule's request is covered" true (Delta.covers region (ctx ~role:"doctor" ()));
  check "other-action request excluded" false
    (Delta.covers region (ctx ~role:"doctor" ~action:"write" ()))

let directed_rule_retargeted () =
  let retargeted =
    Rule.permit
      ~target:
        Target.(
          any
          |> subject_is "role" "doctor"
          |> resource_is "resource-id" "lab"
          |> action_is "action-id" "read")
      "permit-doctor-chart-read"
  in
  let before = pol [ permit_rule (); deny_all ] in
  let after = pol [ retargeted; deny_all ] in
  let region = Delta.between (Some before) (Some after) in
  check "old target covered" true (Delta.covers region (ctx ~role:"doctor" ~resource:"chart" ()));
  check "new target covered" true (Delta.covers region (ctx ~role:"doctor" ~resource:"lab" ()));
  check "untouched resource excluded" false
    (Delta.covers region (ctx ~role:"doctor" ~resource:"note" ()))

let directed_condition_only () =
  let conditioned c =
    Rule.make ~target:(permit_rule ()).Rule.target ?condition:c Rule.Permit "r"
  in
  let before = pol [ conditioned None; deny_all ] in
  let after =
    pol [ conditioned (Some (Expr.one_of (Expr.subject_attr "role") [ "doctor" ])); deny_all ]
  in
  let region = Delta.between (Some before) (Some after) in
  check "region is bounded" true (not (Delta.is_unbounded region));
  check "condition change covers the rule's target" true
    (Delta.covers region (ctx ~role:"doctor" ()));
  check "outside the target stays excluded" false (Delta.covers region (ctx ~role:"nurse" ()))

(* A rule whose condition names an undefined variable decides
   Indeterminate wherever its policy applies, not only where its target
   does: adding one must cover requests its target never pins. *)
let directed_undefined_variable () =
  let lab_rule =
    Rule.make
      ~target:Target.(any |> resource_is "resource-id" "lab")
      ~condition:(Expr.Variable_ref "undefined") Rule.Deny "x"
  in
  let mk rules = Policy.Inline_policy (Policy.make ~id:"undefined-var" rules) in
  let before = mk [ Rule.permit "all" ] and after = mk [ Rule.permit "all"; lab_rule ] in
  let chart = ctx ~role:"doctor" () in
  check "the publish changes the chart request" false
    (result_equal (Policy.evaluate_child chart before) (Policy.evaluate_child chart after));
  check "the chart request is covered" true
    (Delta.covers (Delta.between (Some before) (Some after)) chart)

let directed_obligation_only () =
  let mk obligations =
    Policy.Inline_policy
      (Policy.make ~id:"directed" ~rule_combining:Combine.First_applicable ~obligations
         [ permit_rule (); deny_all ])
  in
  let before = mk [] in
  let after = mk [ Obligation.make ~fulfill_on:Obligation.Permit "urn:log" ] in
  let region = Delta.between (Some before) (Some after) in
  (* A shell change affects every request the policy's target admits —
     here the target is [any], so the region must cover everything. *)
  check "region nonempty" false (Delta.is_empty region);
  List.iter
    (fun c -> check "obligation change covers the policy's whole target" true (Delta.covers region c))
    all_ctxs

let directed_appearance () =
  let p = pol [ deny_all ] in
  check "first publish unbounded" true (Delta.is_unbounded (Delta.between None (Some p)));
  check "retirement unbounded" true (Delta.is_unbounded (Delta.between (Some p) None));
  check "absent to absent empty" true (Delta.is_empty (Delta.between None None))

let directed_env_guard_conservative () =
  (* A rule pinned on an environment attribute changes; requests carry
     no environment bags, so the pin's guard is never clean and every
     request must stay covered (the caches' keys drop conservatively). *)
  let env_rule v =
    Rule.make
      ~target:
        (Target.make
           ~environments:[ [ Target.match_string Context.Environment "time-of-day" v ] ]
           ())
      Rule.Permit "night-shift"
  in
  let before = pol [ env_rule "night"; deny_all ] in
  let after = pol [ env_rule "day"; deny_all ] in
  let region = Delta.between (Some before) (Some after) in
  check "region is bounded" true (not (Delta.is_unbounded region));
  List.iter
    (fun c -> check "env-pinned region covers env-less requests" true (Delta.covers region c))
    all_ctxs

(* The mutation check: the churn-style publish really flips a decision
   (doctor-chart-read goes Deny -> Permit), so the soundness checker
   handed the deliberately under-approximated Empty region must detect
   the divergence — if this test ever passes with [sound = true], the
   gate lost its teeth. *)
let directed_mutation_check () =
  let before = pol [ deny_all ] in
  let after = pol [ permit_rule (); deny_all ] in
  let changed = ctx ~role:"doctor" () in
  check "the publish really changes this decision" false
    (result_equal
       (Policy.evaluate_child changed before)
       (Policy.evaluate_child changed after));
  check "true region is sound over the population" true
    (List.for_all (fun c -> region_sound (Delta.between (Some before) (Some after)) before after c) all_ctxs);
  check "under-approximated Empty region is caught" false
    (List.for_all (fun c -> region_sound Delta.empty before after c) all_ctxs)

let directed_attributes () =
  let before = pol [ deny_all ] in
  let after = pol [ permit_rule (); deny_all ] in
  let attrs =
    match Delta.between (Some before) (Some after) with
    | Delta.Zones zones ->
      List.concat_map
        (List.concat_map (fun (pin : Delta.pin) -> (pin.pin_category, pin.pin_attribute) :: pin.pin_guards))
        zones
    | Delta.Empty | Delta.Unbounded -> []
  in
  check "pinned positions reported" true
    (List.mem (Context.Subject, "role") attrs
    && List.mem (Context.Resource, "resource-id") attrs
    && List.mem (Context.Action, "action-id") attrs)

let directed =
  [
    Alcotest.test_case "rule added" `Quick directed_rule_added;
    Alcotest.test_case "rule removed" `Quick directed_rule_removed;
    Alcotest.test_case "rule retargeted" `Quick directed_rule_retargeted;
    Alcotest.test_case "condition-only change" `Quick directed_condition_only;
    Alcotest.test_case "undefined-variable condition" `Quick directed_undefined_variable;
    Alcotest.test_case "obligation-only change" `Quick directed_obligation_only;
    Alcotest.test_case "appearance and retirement" `Quick directed_appearance;
    Alcotest.test_case "environment pins stay conservative" `Quick directed_env_guard_conservative;
    Alcotest.test_case "mutation check: Empty region is caught" `Quick directed_mutation_check;
    Alcotest.test_case "pinned attribute positions" `Quick directed_attributes;
  ]

let () =
  Alcotest.run "dacs_delta"
    [
      ("directed", directed);
      ("soundness", List.map (fun a -> QCheck_alcotest.to_alcotest (soundness_prop a)) algorithms);
      ("no-op", List.map (fun a -> QCheck_alcotest.to_alcotest (noop_prop a)) algorithms);
      ( "set-soundness",
        List.map (fun a -> QCheck_alcotest.to_alcotest (set_soundness_prop a)) algorithms );
    ]
