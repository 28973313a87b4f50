(* Golden conformance corpus for the combining algorithms.

   Each case pins the implemented semantics of one edge interaction —
   empty sets, all-NotApplicable children, Indeterminate propagation,
   obligation merge order — as a (policy, request, expected) triple.
   The corpus is data, not test closures: every entry is evaluated twice,
   through the interpreter (Policy.evaluate_child) and through the compiled
   form (Compiled.compile + evaluate), and both passes must produce
   byte-identical decisions and obligation order.

   Note on Indeterminate: XACML 3.0 refines Indeterminate into
   Indeterminate{D}, {P} and {DP} and lets e.g. deny-overrides turn
   Indeterminate{D} + Deny into Deny.  This engine carries a single
   Indeterminate (with the error message), i.e. it conservatively treats
   every evaluation error as a potential decision of either effect.  The
   cases below pin that coarsening explicitly wherever the two semantics
   diverge, so any future refinement has to revisit them deliberately. *)

module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Target = Dacs_policy.Target
module Expr = Dacs_policy.Expr
module Combine = Dacs_policy.Combine
module Compiled = Dacs_policy.Compiled
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Obligation = Dacs_policy.Obligation
module Value = Dacs_policy.Value

let ctx =
  Context.make
    ~subject:[ ("subject-id", Value.String "alice"); ("role", Value.String "user") ]
    ~resource:[ ("resource-id", Value.String "doc") ]
    ~action:[ ("action-id", Value.String "read") ]
    ()

(* Building blocks: one rule per behaviour, wrapped one-per-policy so a
   child policy's decision is exactly its rule's. *)
let permit_rule id = Rule.permit id
let deny_rule id = Rule.deny id

let na_rule id = Rule.permit ~target:Target.(any |> subject_is "role" "nobody") id

let indet_rule id =
  (* A condition over a designator that must be present but is not: the
     canonical missing-attribute evaluation error. *)
  Rule.permit ~condition:(Expr.one_of (Expr.Designator { Expr.category = Dacs_policy.Context.Subject; attribute_id = "clearance"; must_be_present = true }) [ "x" ]) id

let policy_of ?obligations id rule =
  Policy.Inline_policy (Policy.make ?obligations ~id ~rule_combining:Combine.First_applicable [ rule ])

(* NotApplicable by *policy target* — what only-one-applicable's
   applicability test inspects (a child whose target matches but whose
   rules all fall through is still "applicable" to that algorithm). *)
let na_policy id =
  Policy.Inline_policy
    {
      (Policy.make ~id [ Rule.permit "r" ]) with
      Policy.target = Target.(any |> subject_is "role" "nobody");
    }

let set alg ?(obligations = []) children =
  { (Policy.make_set ~id:"set" ~policy_combining:alg children) with Policy.set_obligations = obligations }

let decision =
  Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt (Decision.decision_to_string r.Decision.decision))
    (fun a b ->
      Decision.equal_decision a.Decision.decision b.Decision.decision
      && a.Decision.obligations = b.Decision.obligations)

let indet = Decision.indeterminate "any message"

let ob id = { Obligation.id = "urn:test:" ^ id; fulfill_on = Permit; parameters = [] }
let ob_deny id = { Obligation.id = "urn:test:" ^ id; fulfill_on = Deny; parameters = [] }

let with_obs decision obs = { decision with Decision.obligations = obs }

let all_algorithms =
  [
    ("deny-overrides", Combine.Deny_overrides);
    ("permit-overrides", Combine.Permit_overrides);
    ("first-applicable", Combine.First_applicable);
    ("only-one-applicable", Combine.Only_one_applicable);
    ("ordered-deny-overrides", Combine.Ordered_deny_overrides);
    ("ordered-permit-overrides", Combine.Ordered_permit_overrides);
  ]

(* --- the corpus: (name, group, set, expected) entries ------------------- *)

type entry = { name : string; group : string; s : Policy.set; expected : Decision.result }

let entry group name s expected = { name; group; s; expected }

(* --- empty and all-NotApplicable sets ---------------------------------- *)

let empty_set_entries =
  List.map
    (fun (name, alg) ->
      entry "empty-sets" (name ^ ": empty policy set -> NotApplicable") (set alg [])
        Decision.not_applicable)
    all_algorithms

let all_na_entries =
  List.map
    (fun (name, alg) ->
      entry "all-not-applicable" (name ^ ": all children NotApplicable -> NotApplicable")
        (set alg [ na_policy "na1"; na_policy "na2" ])
        Decision.not_applicable)
    all_algorithms

(* --- Indeterminate interactions ---------------------------------------- *)

let indeterminate_entries =
  let e = entry "indeterminate" in
  [
    (* deny-overrides: an Indeterminate is a potential Deny and decides
       immediately — even when an actual Deny follows.  (XACML 3.0
       deny-overrides would refine Indeterminate{D} + Deny to Deny; the
       single-Indeterminate coarsening reports the error instead.) *)
    e "deny-overrides: Permit + Indeterminate -> Indeterminate"
      (set Combine.Deny_overrides
         [ policy_of "p" (permit_rule "r1"); policy_of "i" (indet_rule "r2") ])
      indet;
    e "deny-overrides: Indeterminate short-circuits before a later Deny"
      (set Combine.Deny_overrides
         [ policy_of "i" (indet_rule "r1"); policy_of "d" (deny_rule "r2") ])
      indet;
    e "deny-overrides: Deny wins over earlier Permit"
      (set Combine.Deny_overrides
         [ policy_of "p" (permit_rule "r1"); policy_of "d" (deny_rule "r2") ])
      Decision.deny;
    (* permit-overrides: a Permit still wins over an earlier error, but an
       unresolved error outweighs Deny — the potential Permit cannot be
       ruled out.  (Coarsening of XACML's Indeterminate{P} vs {DP}.) *)
    e "permit-overrides: Indeterminate then Permit -> Permit"
      (set Combine.Permit_overrides
         [ policy_of "i" (indet_rule "r1"); policy_of "p" (permit_rule "r2") ])
      Decision.permit;
    e "permit-overrides: Deny + Indeterminate -> Indeterminate"
      (set Combine.Permit_overrides
         [ policy_of "d" (deny_rule "r1"); policy_of "i" (indet_rule "r2") ])
      indet;
    e "first-applicable: Indeterminate stops the scan"
      (set Combine.First_applicable
         [ policy_of "i" (indet_rule "r1"); policy_of "p" (permit_rule "r2") ])
      indet;
    e "first-applicable: NotApplicable children are skipped"
      (set Combine.First_applicable
         [ policy_of "na" (na_rule "r1"); policy_of "d" (deny_rule "r2");
           policy_of "p" (permit_rule "r3") ])
      Decision.deny;
    e "only-one-applicable: exactly one applicable -> its decision"
      (set Combine.Only_one_applicable [ na_policy "na"; policy_of "p" (permit_rule "r2") ])
      Decision.permit;
    e "only-one-applicable: two applicable -> Indeterminate"
      (set Combine.Only_one_applicable
         [ policy_of "p1" (permit_rule "r1"); policy_of "p2" (permit_rule "r2") ])
      indet;
    (* Applicability means *target* applicability: children whose targets
       match are "applicable" even if every rule inside falls through. *)
    e "only-one-applicable: applicability is target match, not rule outcome"
      (set Combine.Only_one_applicable
         [ policy_of "na1" (na_rule "r1"); policy_of "na2" (na_rule "r2") ])
      indet;
  ]

(* --- obligation merge order -------------------------------------------- *)

let obligation_entries =
  let e = entry "obligations" in
  [
    (* deny-overrides evaluates every non-deciding child: both permits
       contribute, in document order, then the set's own obligations. *)
    e "obligations merge in document order (children then set)"
      (set Combine.Deny_overrides
         ~obligations:[ ob "set"; ob_deny "set-d" ]
         [
           policy_of ~obligations:[ ob "a" ] "pa" (permit_rule "r1");
           policy_of ~obligations:[ ob "b" ] "pb" (permit_rule "r2");
         ])
      (with_obs Decision.permit [ ob "a"; ob "b"; ob "set" ]);
    (* A deciding Deny collects only deny-matching obligations. *)
    e "deny collects only the denying child's obligations"
      (set Combine.Deny_overrides
         ~obligations:[ ob "set"; ob_deny "set-d" ]
         [
           policy_of ~obligations:[ ob "a" ] "pa" (permit_rule "r1");
           policy_of ~obligations:[ ob_deny "d" ] "pd" (deny_rule "r2");
         ])
      (with_obs Decision.deny [ ob_deny "d"; ob_deny "set-d" ]);
    (* permit-overrides short-circuits on the first Permit: later permits
       never evaluate, so only the deciding child's obligations attach. *)
    e "permit-overrides short-circuit keeps only the deciding permit's obligations"
      (set Combine.Permit_overrides
         [
           policy_of ~obligations:[ ob "a" ] "pa" (permit_rule "r1");
           policy_of ~obligations:[ ob "b" ] "pb" (permit_rule "r2");
         ])
      (with_obs Decision.permit [ ob "a" ]);
    (* Obligations on the losing effect never leak into the decision. *)
    e "obligations filter by effect"
      (set Combine.Deny_overrides
         [ policy_of ~obligations:[ ob "a"; ob_deny "never" ] "pa" (permit_rule "r1") ])
      (with_obs Decision.permit [ ob "a" ]);
  ]

let corpus = empty_set_entries @ all_na_entries @ indeterminate_entries @ obligation_entries

(* --- the two evaluator passes ------------------------------------------ *)

let interpreted_case e =
  Alcotest.test_case e.name `Quick (fun () ->
      Alcotest.check decision e.name e.expected (Policy.evaluate_child ctx (Policy.Inline_set e.s)))

(* The compiled pass: same corpus, same expectations, byte-identical
   obligation order — the golden cases double as the compiled evaluator's
   conformance gate. *)
let compiled_case e =
  Alcotest.test_case e.name `Quick (fun () ->
      Alcotest.check decision e.name e.expected
        (Compiled.evaluate ctx (Compiled.compile (Policy.Inline_set e.s))))

let groups = [ "empty-sets"; "all-not-applicable"; "indeterminate"; "obligations" ]

let suite_of make tag =
  List.map
    (fun g -> (g ^ tag, List.filter_map (fun e -> if e.group = g then Some (make e) else None) corpus))
    groups

let () =
  Alcotest.run "dacs_conformance" (suite_of interpreted_case "" @ suite_of compiled_case "-compiled")
