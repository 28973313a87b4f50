(* The compiler's own test suite: recompilation wiring through PAP
   publish and PDP fetch, the PAP's change signal, obligation order through
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
module Delta = Dacs_policy.Delta
module Net = Dacs_net.Net
module Service = Dacs_ws.Service
open Dacs_core

(* A string-equal match on one attribute, in any section. *)
let match_string category attribute_id s =
  Target.make_match ~fn:"string-equal" ~value:(Value.String s) ~category ~attribute_id

let result_equal (a : Decision.result) (b : Decision.result) =
  Decision.equal_decision a.Decision.decision b.Decision.decision
  && List.length a.Decision.obligations = List.length b.Decision.obligations
  && List.for_all2 ( = ) a.Decision.obligations b.Decision.obligations

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

let inline_policy ?obligations ?(target = Target.any) id rules =
  Policy.Inline_policy
    { (Policy.make ?obligations ~id ~rule_combining:Combine.First_applicable rules) with target }

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
  let announced = ref [] in
  Pap.on_update pap (fun region -> announced := region :: !announced);
  Pap.publish pap (deny_policy "a");
  check_result "after publish" Decision.deny (decide ());
  Alcotest.(check bool) "pdp epoch bumped" true (Pdp_service.compilation_epoch pdp > epoch_before);
  Alcotest.(check bool) "pap announced a change" true
    (match !announced with [ r ] -> not (Delta.is_empty r) | _ -> false)

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

(* A PAP's announced region tells semantic changes from no-ops: a no-op
   publish bumps the version (it is still an administrative action) but
   announces the empty region, so downstream consumers can use
   [not (Delta.is_empty region)] as a cheap "did the tree really change"
   signal. *)
let test_region_marks_semantic_changes () =
  let net = Net.create ~seed:5L () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  Net.add_node net "pap";
  let pap = Pap.create services ~node:"pap" ~name:"pap" ~root:(permit_policy "a") () in
  let changed = ref [] in
  Pap.on_update pap (fun region -> changed := not (Delta.is_empty region) :: !changed);
  let publish policy =
    Pap.publish pap policy;
    match !changed with
    | [ c ] ->
      changed := [];
      c
    | cs -> Alcotest.failf "expected one announced region, got %d" (List.length cs)
  in
  let v0 = Pap.version pap in
  Alcotest.(check bool) "no-op publish is empty" false (publish (permit_policy "a"));
  Alcotest.(check bool) "no-op publish still bumps version" true (Pap.version pap > v0);
  Alcotest.(check bool) "change is announced" true (publish (deny_policy "a"));
  Alcotest.(check bool) "repeat publish is empty" false (publish (deny_policy "a"));
  Alcotest.(check bool) "revert is announced again" true (publish (permit_policy "a"))

(* --- obligation order through mixed dispatch buckets -------------------- *)

let ob id = { Obligation.id = "urn:test:" ^ id; fulfill_on = Permit; parameters = [] }

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
      {
        (Policy.make_set ~id:"s" ~policy_combining:Combine.Deny_overrides
           [ pair_pinned; res_pinned; act_pruned ])
        with
        Policy.set_obligations = [ ob "set" ];
      }
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
    {
      Target.any with
        subjects = [ [ Target.make_match ~fn:"string-equal" ~value:(Value.Int 1) ~category:Context.Subject ~attribute_id:"level" ] ];
        resources = [ [ match_string Context.Resource "resource-id" "chart" ] ]
    }
  in
  let p = inline_policy "p" [ Rule.permit ~target "r" ] in
  let c = Compiled.compile p in
  Alcotest.(check int) "always scanned" (Compiled.rule_count c) (Compiled.candidate_count c ctx);
  check_result "compiled == reference" (Policy.evaluate_child ctx p) (Compiled.evaluate ctx c)

(* A match reads its own category's bag, whatever section it sits in: a
   resources-section match on the subject's resource-id pins nothing on
   the resource axis.  Indexing it there would prune the deny rule for a
   request whose resource is "chart" although the rule matches, and the
   permit-all rule behind it would answer Permit where the reference
   says Deny. *)
let test_category_mismatch_never_indexed () =
  let p =
    inline_policy "p"
      [
        Rule.deny
          ~target:{ Target.any with resources = [ [ match_string Context.Subject "resource-id" "lab" ] ] }
          "deny-lab";
        Rule.permit "permit-all";
      ]
  in
  let probe =
    Context.make
      ~subject:[ ("resource-id", Value.String "lab") ]
      ~resource:[ ("resource-id", Value.String "chart") ]
      ()
  in
  let reference = Policy.evaluate_child probe p in
  check_result "reference denies" Decision.deny reference;
  check_result "compiled == reference" reference (Compiled.evaluate probe (Compiled.compile p))

(* A rule whose condition names an undefined variable is Indeterminate
   under the interpreter whatever its target, so the compiled form
   must keep it in every candidate set: pruned on its resource pin, it
   would answer NotApplicable. *)
let test_undefined_variable_never_pruned () =
  let p =
    inline_policy "p"
      [
        Rule.permit
          ~target:Target.(any |> resource_is "resource-id" "lab")
          ~condition:(Expr.Variable_ref "undefined") "r";
      ]
  in
  let c = Compiled.compile p in
  let reference = Policy.evaluate_child ctx p in
  (match reference.Decision.decision with
  | Decision.Indeterminate _ -> ()
  | d -> Alcotest.failf "expected Indeterminate, got %s" (Decision.decision_to_string d));
  Alcotest.(check bool) "same result, reason included" true (reference = Compiled.evaluate ctx c);
  Alcotest.(check int) "kept" 1 (Compiled.candidate_count c ctx)

(* --- allocation ---------------------------------------------------------- *)

let words_per_call f =
  for _ = 1 to 10 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let rounds = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int rounds

(* The serving policy's shape: per resource a doctors rule pinned on
   role and resource and a nurses rule pinned on role, resource and the
   read action, then a default deny, under first-applicable. *)
let serving_policy ~resources =
  let per_resource i =
    let res = Printf.sprintf "res%d" i in
    [
      Rule.permit
        ~target:Target.(any |> subject_is "role" "doctor" |> resource_is "resource-id" res)
        (Printf.sprintf "doctors-%d" i);
      Rule.permit
        ~target:
          Target.(
            any |> subject_is "role" "nurse" |> resource_is "resource-id" res
            |> action_is "action-id" "read")
        (Printf.sprintf "nurses-read-%d" i);
    ]
  in
  Policy.make ~id:"workload-policy" ~rule_combining:Combine.First_applicable
    (List.concat_map per_resource (List.init resources Fun.id) @ [ Rule.deny "default-deny" ])

(* Minor words of one compiled evaluation of the 129-rule serving
   policy, for every role and action: dispatch, target matching and
   first-applicable combining allocate nothing, and every decision is
   one of Decision's shared constants.  Measured: 0 words (313-539 when
   dispatch built candidate lists and combining a record and two
   closures per candidate); the bound, 1 word, fails as soon as any
   allocation per call comes back. *)
let compiled_words_bound = 1.0

let test_compiled_allocation () =
  let c = Compiled.compile (Policy.Inline_policy (serving_policy ~resources:64)) in
  List.iter
    (fun role ->
      List.iter
        (fun action ->
          let ctx =
            Context.make
              ~subject:[ ("subject-id", Value.String "user7"); ("role", Value.String role) ]
              ~resource:[ ("resource-id", Value.String "res5") ]
              ~action:[ ("action-id", Value.String action) ]
              ()
          in
          let words = words_per_call (fun () -> Compiled.evaluate ctx c) in
          Printf.printf "compiled evaluate, %s %s: %.1f minor words (bound %.1f)\n" role action words
            compiled_words_bound;
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: %.1f words <= %.1f" role action words compiled_words_bound)
            true
            (words <= compiled_words_bound))
        [ "read"; "write" ])
    [ "doctor"; "nurse"; "admin" ]

(* Minor words of parsing a 4-attribute Request with [Context.read],
   cursor set-up (23 words) included: per attribute its id, its value
   and one entry, and the sorted array built once.  Measured: 90 words
   (163 when every attribute went through [Context.add]); the bound
   leaves 30 % headroom. *)
let read_words_bound = 117.0

let test_read_allocation () =
  let request =
    let buf = Buffer.create 256 in
    Context.write buf
      (Context.make
         ~subject:[ ("subject-id", Value.String "user7"); ("role", Value.String "nurse") ]
         ~resource:[ ("resource-id", Value.String "res5") ]
         ~action:[ ("action-id", Value.String "read") ]
         ());
    Buffer.contents buf
  in
  let words = words_per_call (fun () -> Dacs_xml.Xml.Cursor.parse request Context.read) in
  Printf.printf "Context.read of 4 attributes: %.1f minor words (bound %.1f)\n" words read_words_bound;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words <= %.1f" words read_words_bound)
    true (words <= read_words_bound)

(* --- QCheck: the compiler as an operation ------------------------------- *)

(* Spec vocabulary mirrors test_oracle's, extended with combined
   subject+resource targets so the guard machinery is exercised, and
   with Pin_shapes' targets and cross-category context attributes. *)
let roles = [| "doctor"; "nurse"; "admin" |]
let resources = [| "chart"; "lab"; "note" |]
let actions = [| "read"; "write" |]

type rule_spec = {
  effect_code : int;
  target_code : int;
      (* 0 any; then resource_is; action_is; subject_is; then combined; then Pin_shapes *)
  condition_code : int;
  obligation_code : int;
}

let combined_base = 1 + Array.length resources + Array.length actions + Array.length roles
let pin_shapes_base = combined_base + (Array.length roles * Array.length resources)

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
    | c when c >= pin_shapes_base -> Pin_shapes.target (c - pin_shapes_base)
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
    | _ -> Some (Expr.one_of (Expr.Designator { Expr.category = Dacs_policy.Context.Subject; attribute_id = "clearance"; must_be_present = true }) [ "secret" ])
  in
  { (Rule.make ~target effect (Printf.sprintf "r%d" i)) with Rule.condition }

let target_code_max = pin_shapes_base + Pin_shapes.kinds - 1
let condition_code_max = Array.length roles + 1

let policy_of_spec id (rule_specs, obligation_code) =
  let rules = List.mapi rule_of_spec rule_specs in
  let obligations =
    if obligation_code = 0 then []
    else [ { Obligation.id = Printf.sprintf "urn:test:%s" id; fulfill_on = Permit; parameters = [] } ]
  in
  Policy.make ~id ~rule_combining:Combine.Deny_overrides ~obligations rules

type ctx_spec = { role_code : int; resource_code : int; action_code : int; cross_code : int }

let ctx_of_spec s =
  let subject =
    ("subject-id", Value.String "alice")
    :: (if s.role_code = 0 then []
        else [ ("role", Value.String roles.((s.role_code - 1) mod Array.length roles)) ])
  in
  Pin_shapes.with_cross s.cross_code
    (Context.make ~subject
       ~resource:[ ("resource-id", Value.String resources.(s.resource_code mod Array.length resources)) ]
       ~action:[ ("action-id", Value.String actions.(s.action_code mod Array.length actions)) ]
       ())

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
    ~rev:(fun s -> (s.role_code, s.resource_code, s.action_code, s.cross_code))
    (fun (r, rs, a, x) -> { role_code = r; resource_code = rs; action_code = a; cross_code = x })
    (quad (int_bound (Array.length roles)) (int_bound 2) (int_bound 1) (int_bound Pin_shapes.cross_codes))

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
   the untouched leaf's compiled form.  Within the changed leaf, a
   one-rule edit reuses every other rule's prepared form, and the
   recompiled value decides exactly as a fresh compile, whole result
   (Indeterminate reasons included). *)
let recompile_epochs =
  QCheck.Test.make ~name:"recompile: no-op preserves epoch, change reuses leaves and rules"
    ~count:500
    QCheck.(
      quad arb_pspec arb_pspec (pair small_nat arb_rule) (list_of_size (Gen.int_range 1 4) arb_ctx))
    (fun (spec_a, spec_b, (at, edit), cspecs) ->
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
      if Compiled.reused_rules c3 <> Compiled.rule_count c3 - 1 then
        QCheck.Test.fail_reportf "appending a rule reused %d of %d old rules (%s)"
          (Compiled.reused_rules c3) (Compiled.rule_count c3 - 1) (seed_hint ());
      (* Edit one rule of leaf b' in place, against c3: a recompiled
         leaf, so its rules' pins are reused too. *)
      let rules = b'.Policy.rules in
      let at = at mod List.length rules in
      let edited = List.mapi (fun i r -> if i = at then rule_of_spec i edit else r) rules in
      if edited <> rules then begin
        let tree = set_of a { b' with Policy.rules = edited } in
        let c4 = Compiled.recompile c3 tree in
        if Compiled.reused_rules c4 <> Compiled.rule_count c4 - 1 then
          QCheck.Test.fail_reportf "a one-rule edit reused %d of %d other rules (%s)"
            (Compiled.reused_rules c4) (Compiled.rule_count c4 - 1) (seed_hint ());
        let fresh = Compiled.compile tree in
        List.iter
          (fun cspec ->
            let ctx = ctx_of_spec cspec in
            if Compiled.evaluate ctx c4 <> Compiled.evaluate ctx fresh then
              QCheck.Test.fail_reportf "recompiled %s <> fresh compile %s (%s)"
                (show_result (Compiled.evaluate ctx c4))
                (show_result (Compiled.evaluate ctx fresh))
                (seed_hint ()))
          cspecs
      end;
      true)

(* Rule reuse is keyed on the policy's variables too: the prepared form
   of a condition holds its substituted variables, so a publish that
   changes a variable recompiles every rule, and decides by the new
   value. *)
let test_variables_change_recompiles_rules () =
  let policy clearance =
    {
      (Policy.make ~id:"v" ~rule_combining:Combine.First_applicable
         [
           Rule.permit
             ~condition:
               (Expr.Apply
                  ( "string-equal",
                    [ Expr.Apply ("string-one-and-only", [ Expr.subject_attr "role" ]);
                      Expr.Variable_ref "clearance" ] ))
             "cleared";
           Rule.deny "otherwise";
         ])
      with
      Policy.variables = [ ("clearance", Expr.Const (Value.String clearance)) ];
    }
  in
  let c1 = Compiled.compile (Policy.Inline_policy (policy "nurse")) in
  let c2 = Compiled.recompile c1 (Policy.Inline_policy (policy "doctor")) in
  Alcotest.(check int) "no rule reused across a variable change" 0 (Compiled.reused_rules c2);
  check_result "the new variable decides" Decision.permit (Compiled.evaluate ctx c2);
  check_result "the old one did not" Decision.deny (Compiled.evaluate ctx c1)

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
          Alcotest.test_case "a region marks semantic changes only" `Quick test_region_marks_semantic_changes;
          Alcotest.test_case "a variable change recompiles every rule" `Quick
            test_variables_change_recompiles_rules;
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
          Alcotest.test_case "category-mismatched match is never indexed" `Quick
            test_category_mismatch_never_indexed;
          Alcotest.test_case "a rule with an undefined variable is never pruned" `Quick
            test_undefined_variable_never_pruned;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "compiled evaluation allocates nothing" `Quick test_compiled_allocation;
          Alcotest.test_case "Context.read words" `Quick test_read_allocation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ compile_idempotent; recompile_epochs; pruning_sound ]
      );
    ]
