(* The compiler's own test suite: recompilation wiring through PAP
   publish and PDP fetch, epoch semantics, obligation order through
   mixed dispatch buckets, Indeterminate-coarsening parity on the
   pruning guards, and QCheck properties over the compiler itself —
   idempotence, no-op epoch preservation, leaf reuse, and soundness of
   the fallback bucket (every pruned rule's target is No_match).

   The cross-evaluator decision equivalence lives in test_oracle; this
   suite pins the properties of compilation as an operation. *)

module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Target = Dacs_policy.Target
module Expr = Dacs_policy.Expr
module Combine = Dacs_policy.Combine
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Obligation = Dacs_policy.Obligation
module Value = Dacs_policy.Value
module Compiled = Dacs_policy.Compiled
module Net = Dacs_net.Net
module Service = Dacs_ws.Service
open Dacs_core

let result_equal (a : Decision.result) (b : Decision.result) =
  Decision.equal_decision a.Decision.decision b.Decision.decision
  && List.length a.Decision.obligations = List.length b.Decision.obligations
  && List.for_all2 Obligation.equal a.Decision.obligations b.Decision.obligations

let show_result (r : Decision.result) =
  Printf.sprintf "%s [%s]"
    (Decision.decision_to_string r.Decision.decision)
    (String.concat "; " (List.map (fun o -> o.Obligation.id) r.Decision.obligations))

let check_result name expected got =
  if not (result_equal expected got) then
    Alcotest.failf "%s: expected %s, got %s" name (show_result expected) (show_result got)

let ctx =
  Context.make
    ~subject:[ ("subject-id", Value.String "alice"); ("role", Value.String "doctor") ]
    ~resource:[ ("resource-id", Value.String "chart") ]
    ~action:[ ("action-id", Value.String "read") ]
    ()

(* --- recompilation on publish ------------------------------------------- *)

let inline_policy ?obligations ?target id rules =
  Policy.Inline_policy
    (Policy.make ?obligations ?target ~id ~rule_combining:Combine.First_applicable rules)

let permit_policy id = inline_policy id [ Rule.permit "r" ]
let deny_policy id = inline_policy id [ Rule.deny "r" ]

(* A PDP on Every_query refresh must pick up a published policy on its
   next decision — and recompile, bumping its epoch — without being
   told. *)
let test_recompile_on_publish () =
  let net = Net.create ~seed:3L () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  Net.add_node net "pap";
  Net.add_node net "pdp";
  let pap = Pap.create services ~node:"pap" ~name:"pap" ~root:(permit_policy "a") () in
  let pdp =
    Pdp_service.create services ~node:"pdp" ~name:"pdp" ~pap:"pap"
      ~refresh:Pdp_service.Every_query ()
  in
  let decide () =
    let answer = ref None in
    Pdp_service.evaluate_local pdp ctx (fun r -> answer := Some r);
    Net.run net;
    Option.get !answer
  in
  check_result "before publish" Decision.permit (decide ());
  let epoch_before = Pdp_service.compilation_epoch pdp in
  Alcotest.(check bool) "compiled is the serving evaluator" true
    (Pdp_service.compiled_enabled pdp);
  Pap.publish pap (deny_policy "a");
  check_result "after publish" Decision.deny (decide ());
  Alcotest.(check bool) "pdp epoch bumped" true (Pdp_service.compilation_epoch pdp > epoch_before);
  Alcotest.(check int) "pap epoch" 2 (Pap.compilation_epoch pap)

(* Compiled evaluation is the default, not an option: a shard built with
   no optional arguments answers a live query through a sharded PEP with
   a compilation epoch in its provenance, which moves on a changing
   install and stays put on a structurally identical one. *)
let test_default_shard_serves_compiled () =
  let net = Net.create ~seed:9L () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  Net.add_node net "pdp";
  Net.add_node net "pep";
  let pdp = Pdp_service.create services ~node:"pdp" ~name:"pdp" () in
  Pdp_service.install_policy pdp (permit_policy "a");
  let tier = Pdp_tier.create services ~node:"pep" ~shards:[ "pdp" ] () in
  let pep =
    Pep.create services ~node:"pep" ~domain:"d" ~resource:"chart"
      (Pep.Sharded { tier; cache = None })
  in
  let decide () =
    let answer = ref None in
    Pep.decide_explained pep ctx (fun r p -> answer := Some (r, p));
    Net.run net;
    Option.get !answer
  in
  let result, prov = decide () in
  check_result "live answer" Decision.permit result;
  Alcotest.(check bool) "answered live" true (prov.Provenance.stage = Provenance.Live);
  Alcotest.(check bool) "epoch >= 1" true (prov.Provenance.epoch >= 1);
  Pdp_service.install_policy pdp (deny_policy "a");
  let result, changed = decide () in
  check_result "changed policy served" Decision.deny result;
  Alcotest.(check bool) "changing install bumps the epoch" true
    (changed.Provenance.epoch > prov.Provenance.epoch);
  Pdp_service.install_policy pdp (deny_policy "a");
  let _, same = decide () in
  Alcotest.(check int) "identical install keeps the epoch" changed.Provenance.epoch
    same.Provenance.epoch

(* Epochs count *semantic* changes: a no-op publish bumps the version
   (it is still an administrative action) but leaves the compiled epoch
   alone, so downstream consumers can use the epoch as a cheap "did the
   tree really change" signal. *)
let test_epoch_monotonic () =
  let net = Net.create ~seed:5L () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  Net.add_node net "pap";
  let pap = Pap.create services ~node:"pap" ~name:"pap" ~root:(permit_policy "a") () in
  Alcotest.(check int) "initial epoch" 1 (Pap.compilation_epoch pap);
  let v0 = Pap.version pap in
  Pap.publish pap (permit_policy "a");
  Alcotest.(check int) "no-op publish preserves epoch" 1 (Pap.compilation_epoch pap);
  Alcotest.(check bool) "no-op publish still bumps version" true (Pap.version pap > v0);
  Pap.publish pap (deny_policy "a");
  Alcotest.(check int) "change bumps epoch" 2 (Pap.compilation_epoch pap);
  Pap.publish pap (deny_policy "a");
  Alcotest.(check int) "repeat publish preserves epoch" 2 (Pap.compilation_epoch pap);
  Pap.publish pap (permit_policy "a");
  Alcotest.(check int) "revert bumps epoch again" 3 (Pap.compilation_epoch pap)

(* --- obligation order through mixed dispatch buckets -------------------- *)

let ob id = Obligation.make ~fulfill_on:Obligation.Permit ("urn:test:" ^ id)

(* Three children landing in different buckets of their leaves — pair-
   pinned (matches), resource-pinned (matches), action-pinned
   (mismatches, pruned) — under deny-overrides, which evaluates every
   non-deciding child and merges obligations in document order.  The
   compiled form must reproduce the interpreter's exact order. *)
let test_obligation_order () =
  let pair_pinned =
    inline_policy ~obligations:[ ob "pair" ] "p-pair"
      [ Rule.permit ~target:Target.(any |> resource_is "resource-id" "chart" |> action_is "action-id" "read") "r" ]
  in
  let res_pinned =
    inline_policy ~obligations:[ ob "res" ] "p-res"
      [ Rule.permit ~target:Target.(any |> resource_is "resource-id" "chart") "r" ]
  in
  let act_pruned =
    inline_policy ~obligations:[ ob "never" ] "p-act"
      [ Rule.permit ~target:Target.(any |> action_is "action-id" "write") "r" ]
  in
  let s =
    Policy.Inline_set
      (Policy.make_set ~id:"s" ~policy_combining:Combine.Deny_overrides
         ~obligations:[ ob "set" ]
         [ pair_pinned; res_pinned; act_pruned ])
  in
  let interpreted = Policy.evaluate_child ctx s in
  let compiled = Compiled.evaluate ctx (Compiled.compile s) in
  check_result "compiled == interpreted" interpreted compiled;
  Alcotest.(check (list string)) "document order" [ "urn:test:pair"; "urn:test:res"; "urn:test:set" ]
    (List.map (fun o -> o.Obligation.id) compiled.Decision.obligations)

(* --- Indeterminate coarsening parity on the pruning guards -------------- *)

(* A non-string resource-id makes string-equal error, so a pinned rule
   is Indeterminate under the interpreter; the compiled form must
   decline to prune (full scan) rather than answer NotApplicable. *)
let test_non_string_axis_disables_pruning () =
  let p = inline_policy "p" [ Rule.permit ~target:Target.(any |> resource_is "resource-id" "chart") "r" ] in
  let uri_ctx =
    Context.make
      ~subject:[ ("subject-id", Value.String "alice") ]
      ~resource:[ ("resource-id", Value.Uri "urn:lab") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  let c = Compiled.compile p in
  let reference = Policy.evaluate_child uri_ctx p in
  check_result "compiled == reference" reference (Compiled.evaluate uri_ctx c);
  (match reference.Decision.decision with
  | Decision.Indeterminate _ -> ()
  | d -> Alcotest.failf "expected Indeterminate, got %s" (Decision.decision_to_string d));
  Alcotest.(check int) "no pruning" (Compiled.rule_count c) (Compiled.candidate_count c uri_ctx)

(* Subject sections evaluate before resource sections, and an error
   there short-circuits the whole target to Indeterminate — even when
   the resource pin mismatches.  A non-string value under a guard
   attribute must therefore disable pruning. *)
let test_guard_attribute_disables_pruning () =
  let p =
    inline_policy "p"
      [ Rule.permit ~target:Target.(any |> subject_is "role" "doctor" |> resource_is "resource-id" "chart") "r" ]
  in
  let c = Compiled.compile p in
  let int_role_ctx =
    Context.make
      ~subject:[ ("subject-id", Value.String "alice"); ("role", Value.Int 3) ]
      ~resource:[ ("resource-id", Value.String "lab") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  let reference = Policy.evaluate_child int_role_ctx p in
  (match reference.Decision.decision with
  | Decision.Indeterminate _ -> ()
  | d -> Alcotest.failf "expected Indeterminate, got %s" (Decision.decision_to_string d));
  check_result "compiled == reference" reference (Compiled.evaluate int_role_ctx c);
  Alcotest.(check int) "guard blocks pruning" (Compiled.rule_count c)
    (Compiled.candidate_count c int_role_ctx);
  (* With a clean guard bag the same rule prunes — and both evaluators
     answer NotApplicable. *)
  let clean_ctx =
    Context.make
      ~subject:[ ("subject-id", Value.String "alice"); ("role", Value.String "doctor") ]
      ~resource:[ ("resource-id", Value.String "lab") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  Alcotest.(check int) "clean guard prunes" 0 (Compiled.candidate_count c clean_ctx);
  check_result "pruned == reference" (Policy.evaluate_child clean_ctx p)
    (Compiled.evaluate clean_ctx c);
  (* An absent guard attribute could be supplied by a resolver later:
     pruning must be declined then too. *)
  let no_role_ctx =
    Context.make
      ~subject:[ ("subject-id", Value.String "alice") ]
      ~resource:[ ("resource-id", Value.String "lab") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  Alcotest.(check int) "absent guard blocks pruning" (Compiled.rule_count c)
    (Compiled.candidate_count c no_role_ctx);
  check_result "absent guard == reference" (Policy.evaluate_child no_role_ctx p)
    (Compiled.evaluate no_role_ctx c)

(* A guard match that is not string-equal-on-a-string-literal makes the
   rule ineligible for indexing entirely: it is always scanned. *)
let test_unguardable_rule_never_indexed () =
  let target =
    Target.make
      ~subjects:[ [ { Target.fn = "string-equal"; value = Value.Int 1; category = Context.Subject; attribute_id = "level" } ] ]
      ~resources:[ [ Target.match_string Context.Resource "resource-id" "chart" ] ]
      ()
  in
  let p = inline_policy "p" [ Rule.permit ~target "r" ] in
  let c = Compiled.compile p in
  Alcotest.(check int) "always scanned" (Compiled.rule_count c) (Compiled.candidate_count c ctx);
  check_result "compiled == reference" (Policy.evaluate_child ctx p) (Compiled.evaluate ctx c)

(* --- QCheck: the compiler as an operation ------------------------------- *)

(* Spec vocabulary mirrors test_oracle's, extended with combined
   subject+resource targets so the guard machinery is exercised. *)
let roles = [| "doctor"; "nurse"; "admin" |]
let resources = [| "chart"; "lab"; "note" |]
let actions = [| "read"; "write" |]

type rule_spec = {
  effect_code : int;
  target_code : int;  (* 0 any; then resource_is; action_is; subject_is; then combined *)
  condition_code : int;
  obligation_code : int;
}

let combined_base = 1 + Array.length resources + Array.length actions + Array.length roles

let rule_of_spec i s =
  let effect = if s.effect_code = 0 then Rule.Permit else Rule.Deny in
  let target =
    match s.target_code with
    | 0 -> Target.any
    | c when c <= Array.length resources ->
      Target.(any |> resource_is "resource-id" resources.(c - 1))
    | c when c <= Array.length resources + Array.length actions ->
      Target.(any |> action_is "action-id" actions.(c - 1 - Array.length resources))
    | c when c < combined_base ->
      Target.(any |> subject_is "role" roles.(c - 1 - Array.length resources - Array.length actions))
    | c ->
      (* Combined role + resource pins: the resource pin only prunes
         when the role guard bag is clean. *)
      let k = c - combined_base in
      Target.(
        any
        |> subject_is "role" roles.(k mod Array.length roles)
        |> resource_is "resource-id" resources.(k / Array.length roles mod Array.length resources))
  in
  let condition =
    match s.condition_code with
    | 0 -> None
    | c when c <= Array.length roles -> Some (Expr.one_of (Expr.subject_attr "role") [ roles.(c - 1) ])
    | _ -> Some (Expr.one_of (Expr.subject_attr ~must_be_present:true "clearance") [ "secret" ])
  in
  Rule.make ~target ?condition effect (Printf.sprintf "r%d" i)

let target_code_max = combined_base + (Array.length roles * Array.length resources) - 1
let condition_code_max = Array.length roles + 1

let policy_of_spec id (rule_specs, obligation_code) =
  let rules = List.mapi rule_of_spec rule_specs in
  let obligations =
    if obligation_code = 0 then []
    else [ Obligation.make ~fulfill_on:Obligation.Permit (Printf.sprintf "urn:test:%s" id) ]
  in
  Policy.make ~id ~rule_combining:Combine.Deny_overrides ~obligations rules

type ctx_spec = { role_code : int; resource_code : int; action_code : int }

let ctx_of_spec s =
  let subject =
    ("subject-id", Value.String "alice")
    :: (if s.role_code = 0 then []
        else [ ("role", Value.String roles.((s.role_code - 1) mod Array.length roles)) ])
  in
  Context.make ~subject
    ~resource:[ ("resource-id", Value.String resources.(s.resource_code mod Array.length resources)) ]
    ~action:[ ("action-id", Value.String actions.(s.action_code mod Array.length actions)) ]
    ()

let arb_rule =
  let open QCheck in
  map
    ~rev:(fun s -> (s.effect_code, s.target_code, s.condition_code, s.obligation_code))
    (fun (e, t, c, o) -> { effect_code = e; target_code = t; condition_code = c; obligation_code = o })
    (quad (int_bound 1) (int_bound target_code_max) (int_bound condition_code_max) (int_bound 2))

let arb_pspec =
  QCheck.(pair (list_of_size (Gen.int_bound 6) arb_rule) (int_bound 1))

let arb_ctx =
  let open QCheck in
  map
    ~rev:(fun s -> (s.role_code, s.resource_code, s.action_code))
    (fun (r, rs, a) -> { role_code = r; resource_code = rs; action_code = a })
    (triple (int_bound (Array.length roles)) (int_bound 2) (int_bound 1))

let arb_case = QCheck.pair arb_pspec arb_ctx

let seed_hint () =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> Printf.sprintf "QCHECK_SEED=%s" s
  | None -> "rerun with QCHECK_SEED=<'qcheck random seed' printed above> to reproduce"

(* Compiling is a pure function of the tree: compiling twice yields
   equal decisions and the same fresh epoch, and recompiling a compiled
   form against its own source is the identity. *)
let compile_idempotent =
  QCheck.Test.make ~name:"compile is idempotent" ~count:500 arb_case
    (fun (pspec, cspec) ->
      let child = Policy.Inline_policy (policy_of_spec "p" pspec) in
      let ctx = ctx_of_spec cspec in
      let c1 = Compiled.compile child in
      let c2 = Compiled.compile child in
      if Compiled.epoch c1 <> 1 || Compiled.epoch c2 <> 1 then
        QCheck.Test.fail_reportf "fresh compiles must have epoch 1 (%s)" (seed_hint ());
      if not (result_equal (Compiled.evaluate ctx c1) (Compiled.evaluate ctx c2)) then
        QCheck.Test.fail_reportf "two compiles of one tree diverged (%s)" (seed_hint ());
      let c3 = Compiled.recompile c1 (Compiled.source c1) in
      if Compiled.epoch c3 <> Compiled.epoch c1 then
        QCheck.Test.fail_reportf "self-recompile changed the epoch (%s)" (seed_hint ());
      true)

(* Epoch and reuse across publishes of multi-policy sets: a no-op
   preserves the epoch; changing one of two leaves bumps it and reuses
   the untouched leaf's compiled form. *)
let recompile_epochs =
  QCheck.Test.make ~name:"recompile: no-op preserves epoch, change reuses leaves" ~count:500
    QCheck.(pair arb_pspec arb_pspec)
    (fun (spec_a, spec_b) ->
      let set_of pa pb =
        Policy.Inline_set
          (Policy.make_set ~id:"s" ~policy_combining:Combine.Deny_overrides
             [ Policy.Inline_policy pa; Policy.Inline_policy pb ])
      in
      let a = policy_of_spec "a" spec_a in
      let b = policy_of_spec "b" spec_b in
      let c1 = Compiled.compile (set_of a b) in
      (* No-op recompile: same tree, same epoch. *)
      let c2 = Compiled.recompile c1 (set_of a b) in
      if Compiled.epoch c2 <> Compiled.epoch c1 then
        QCheck.Test.fail_reportf "no-op recompile bumped the epoch (%s)" (seed_hint ());
      (* Change leaf b only: epoch bumps, leaf a is reused. *)
      let b' = { b with Policy.rules = b.Policy.rules @ [ Rule.deny "extra" ] } in
      let c3 = Compiled.recompile c1 (set_of a b') in
      if Compiled.epoch c3 <> Compiled.epoch c1 + 1 then
        QCheck.Test.fail_reportf "changed tree did not bump the epoch (%s)" (seed_hint ());
      if Compiled.reused_leaves c3 < 1 then
        QCheck.Test.fail_reportf "unchanged leaf was recompiled (%s)" (seed_hint ());
      true)

(* Fallback-bucket soundness: dispatch may only drop rules whose targets
   cannot match, so every pruned rule's target must evaluate to
   No_match, and kept + pruned must account for every rule. *)
let pruning_sound =
  QCheck.Test.make ~name:"every pruned rule's target is No_match" ~count:1000 arb_case
    (fun (pspec, cspec) ->
      let policy = policy_of_spec "p" pspec in
      let ctx = ctx_of_spec cspec in
      let c = Compiled.compile (Policy.Inline_policy policy) in
      let pruned = Compiled.pruned_rules c ctx in
      if Compiled.candidate_count c ctx + List.length pruned <> Compiled.rule_count c then
        QCheck.Test.fail_reportf "kept + pruned <> total (%s)" (seed_hint ());
      List.iter
        (fun rule ->
          match Target.evaluate ctx rule.Rule.target with
          | Target.No_match -> ()
          | Target.Match ->
            QCheck.Test.fail_reportf "pruned rule %s actually matches (%s)" rule.Rule.id
              (seed_hint ())
          | Target.Indeterminate_match e ->
            QCheck.Test.fail_reportf "pruned rule %s is indeterminate: %s (%s)" rule.Rule.id e
              (seed_hint ()))
        pruned;
      true)

let () =
  Alcotest.run "dacs_compiled"
    [
      ( "recompilation",
        [
          Alcotest.test_case "PDP picks up a publish and recompiles" `Quick test_recompile_on_publish;
          Alcotest.test_case "epoch counts semantic changes only" `Quick test_epoch_monotonic;
          Alcotest.test_case "default shard serves compiled" `Quick
            test_default_shard_serves_compiled;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "obligation document order across buckets" `Quick test_obligation_order;
          Alcotest.test_case "non-string axis value disables pruning" `Quick
            test_non_string_axis_disables_pruning;
          Alcotest.test_case "dirty guard attribute disables pruning" `Quick
            test_guard_attribute_disables_pruning;
          Alcotest.test_case "unguardable rule is never indexed" `Quick
            test_unguardable_rule_never_indexed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ compile_idempotent; recompile_epochs; pruning_sound ]
      );
    ]
