(* Differential-testing oracle for evaluator equivalence.

   Four evaluation paths coexist: the reference tree walk
   (Policy.evaluate), the compiled form (Compiled.evaluate), the sharded
   PDP tier (Pdp_tier routing to Pdp_service replicas over the simulated
   network — shards always serve through the compiled evaluator, so the
   wire path exercises it too), and the full caching ladder.  This oracle generates
   random policies and request contexts from seeded, shrinkable QCheck
   arbitraries and asserts all paths return identical decisions —
   including obligations and Indeterminate propagation — for every
   combining algorithm, >= 1000 cases each.

   Policies are generated as integer-coded specs (built from int_bound /
   small lists), so QCheck's built-in shrinkers produce a minimal
   counterexample policy+request on failure.  Every failure message
   names the combining algorithm and how to reproduce the seed. *)

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

(* --- spec encoding ------------------------------------------------------ *)

(* Small closed vocabularies keep collision probability high: targets
   that sometimes match, conditions that sometimes error. *)
let roles = [| "doctor"; "nurse"; "admin" |]
let resources = [| "chart"; "lab"; "note" |]
let actions = [| "read"; "write" |]

type rule_spec = {
  effect_code : int;  (* 0 permit, 1 deny *)
  target_code : int;  (* 0 any; 1.. resource_is; then action_is; then subject_is; then Pin_shapes *)
  condition_code : int;  (* 0 none; 1.. one_of role; last: missing-attr error *)
  obligation_code : int;  (* 0 none; 1 permit obligation; 2 deny obligation *)
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
      Target.(any |> subject_is "role" roles.(c - 1 - Array.length resources - Array.length actions))
    | c -> Pin_shapes.target (c - pin_shapes_base)
  in
  let condition =
    match s.condition_code with
    | 0 -> None
    | c when c <= Array.length roles -> Some (Expr.one_of (Expr.subject_attr "role") [ roles.(c - 1) ])
    | _ ->
      (* The Indeterminate generator: a designator that must be present
         but never is. *)
      Some (Expr.one_of (Expr.subject_attr ~must_be_present:true "clearance") [ "secret" ])
  in
  Rule.make ~target ?condition effect (Printf.sprintf "r%d" i)

let target_code_max = pin_shapes_base - 1
let condition_code_max = Array.length roles + 1

let obligations_of_spec i code =
  match code with
  | 0 -> []
  | 1 -> [ Obligation.make ~fulfill_on:Obligation.Permit (Printf.sprintf "urn:test:p%d" i) ]
  | _ -> [ Obligation.make ~fulfill_on:Obligation.Deny (Printf.sprintf "urn:test:d%d" i) ]

(* A policy is a list of rule specs plus its own obligations; rules keep
   per-rule obligations out (the engine attaches obligations at policy
   level), so the obligation spec rides on the policy. *)
let policy_of_spec alg (rule_specs, obligation_code) =
  let rules = List.mapi rule_of_spec rule_specs in
  let obligations =
    obligations_of_spec 0 (if obligation_code = 0 then 0 else 1)
    @ obligations_of_spec 1 (if obligation_code = 0 then 0 else 2)
  in
  Policy.make ~id:"oracle-policy" ~rule_combining:alg ~obligations rules

type ctx_spec = { role_code : int; resource_code : int; action_code : int; cross_code : int }

let ctx_of_spec ?(subject = "alice") s =
  let subject =
    ("subject-id", Value.String subject)
    ::
    (* role_code 0 omits the attribute entirely (absence paths). *)
    (if s.role_code = 0 then [] else [ ("role", Value.String roles.((s.role_code - 1) mod Array.length roles)) ])
  in
  Pin_shapes.with_cross s.cross_code
    (Context.make ~subject
       ~resource:[ ("resource-id", Value.String resources.(s.resource_code mod Array.length resources)) ]
       ~action:[ ("action-id", Value.String actions.(s.action_code mod Array.length actions)) ]
       ())

(* What a PEP sends for the same spec: the role withheld, left for the
   PDP to resolve at a PIP. *)
let lean_ctx_of_spec ?(subject = "alice") s =
  Context.make
    ~subject:[ ("subject-id", Value.String subject) ]
    ~resource:[ ("resource-id", Value.String resources.(s.resource_code mod Array.length resources)) ]
    ~action:[ ("action-id", Value.String actions.(s.action_code mod Array.length actions)) ]
    ()

(* [targets] bounds the target codes and [crosses] the cross-category
   context codes.  Every oracle draws Pin_shapes' targets (the ladder's
   offline rung republishes them as XML, where a match keeps its own
   category); only the compiled and tier oracles draw its contexts, since
   the ladder's PEP sends the lean context. *)
let arb_case_upto ~targets ~crosses =
  let open QCheck in
  let arb_rule =
    map
      ~rev:(fun s -> (s.effect_code, s.target_code, s.condition_code, s.obligation_code))
      (fun (e, t, c, o) -> { effect_code = e; target_code = t; condition_code = c; obligation_code = o })
      (quad (int_bound 1) (int_bound targets) (int_bound condition_code_max) (int_bound 2))
  in
  let arb_ctx =
    map
      ~rev:(fun s -> (s.role_code, s.resource_code, s.action_code, s.cross_code))
      (fun (r, rs, a, x) -> { role_code = r; resource_code = rs; action_code = a; cross_code = x })
      (quad (int_bound (Array.length roles)) (int_bound 2) (int_bound 1) (int_bound crosses))
  in
  pair (pair (list_of_size (Gen.int_bound 6) arb_rule) (int_bound 1)) arb_ctx

let target_codes = pin_shapes_base + Pin_shapes.kinds - 1
let arb_case = arb_case_upto ~targets:target_codes ~crosses:0
let arb_wide_case = arb_case_upto ~targets:target_codes ~crosses:Pin_shapes.cross_codes

let result_equal (a : Decision.result) (b : Decision.result) =
  Decision.equal_decision a.Decision.decision b.Decision.decision
  && List.length a.Decision.obligations = List.length b.Decision.obligations
  && List.for_all2 Obligation.equal a.Decision.obligations b.Decision.obligations

let show_result (r : Decision.result) =
  Printf.sprintf "%s [%s]"
    (Decision.decision_to_string r.Decision.decision)
    (String.concat "; " (List.map (fun o -> o.Obligation.id) r.Decision.obligations))

(* Counterexample context: the algorithm that diverged plus how to replay
   the run — QCheck only prints the shrunk case, not which of the six
   parameterised tests it came from. *)
let seed_hint () =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> Printf.sprintf "QCHECK_SEED=%s" s
  | None -> "rerun with QCHECK_SEED=<'qcheck random seed' printed above> to reproduce"

let fail_diverged ~alg ~expected ~got expected_label got_label =
  QCheck.Test.fail_reportf "[%s] %s %s <> %s %s (%s)" alg expected_label (show_result expected)
    got_label (show_result got) (seed_hint ())

(* --- oracle 1: reference vs compiled ------------------------------------ *)

let compiled_oracle (name, alg) =
  QCheck.Test.make
    ~name:(Printf.sprintf "compiled == reference (%s)" name)
    ~count:1000 arb_wide_case
    (fun (pspec, cspec) ->
      let policy = policy_of_spec alg pspec in
      let ctx = ctx_of_spec cspec in
      let reference = Policy.evaluate ctx policy in
      let compiled = Compiled.evaluate ctx (Compiled.compile (Policy.Inline_policy policy)) in
      if not (result_equal reference compiled) then
        fail_diverged ~alg:name ~expected:reference ~got:compiled "reference" "compiled"
      else true)

(* --- oracle 2: reference vs sharded tier ------------------------------- *)

(* One tier evaluation on a fresh simulated network: three replicas
   serving the generated policy, one batched query routed by placement.
   The tier must agree with the in-process reference evaluation — wire
   encoding, batching and shard routing may not change any decision. *)
let tier_evaluate root ctx =
  let net = Net.create ~seed:11L () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  let shards =
    List.init 3 (fun i ->
        let node = Printf.sprintf "pdp%d" i in
        Net.add_node net node;
        ignore (Pdp_service.create services ~node ~name:node ~root ());
        node)
  in
  Net.add_node net "dispatch";
  let tier = Pdp_tier.create services ~node:"dispatch" ~shards () in
  let answer = ref None in
  Pdp_tier.decide tier ctx (fun r _ -> answer := Some r);
  Net.run net;
  !answer

let tier_oracle (name, alg) =
  QCheck.Test.make
    ~name:(Printf.sprintf "sharded tier (compiled) == reference (%s)" name)
    ~count:1000 arb_wide_case
    (fun (pspec, cspec) ->
      let policy = policy_of_spec alg pspec in
      let ctx = ctx_of_spec cspec in
      let reference = Policy.evaluate ctx policy in
      match tier_evaluate (Policy.Inline_policy policy) ctx with
      | None -> QCheck.Test.fail_reportf "[%s] tier never answered (%s)" name (seed_hint ())
      | Some (Error e) ->
        QCheck.Test.fail_reportf "[%s] tier failed closed: %s (%s)" name e (seed_hint ())
      | Some (Ok tiered) ->
        if result_equal reference tiered then true
        else fail_diverged ~alg:name ~expected:reference ~got:tiered "reference" "compiled tier")

(* --- oracle 3: reference vs the full caching ladder -------------------- *)

(* One request replayed through every stage of the PEP's decision ladder
   (E17): a cold descent that fills the caches, a warm-L1 hit, an
   L2-only hit (L1 purged), a live re-evaluation that exercises the
   PDP's warmed attribute cache (both decision caches purged), a
   coalesced pair (leader + single-flight waiter), and the degraded
   rungs — a bounded-stale serve from an expired L1 entry with the whole
   tier dark, and the fail-closed floor once even that entry is purged.
   The client context deliberately withholds the role attribute so the
   PDP must resolve it from a PIP via the batched fetcher — the
   reference evaluation sees the same attributes inline.  No stage may
   change the decision or the obligations (the fail-closed floor, which
   answers Indeterminate by design, asserts that shape instead), and
   every stage's provenance record must name the rung that was forced.
   [sharded] picks the PEP's tier: a pull PEP's ordered tier (plain
   frames), or a one-shard rendezvous tier (batched frames) — the one
   ladder must hold through both. *)
let cached_ladder_evaluate ~sharded root cspec =
  let net = Net.create ~seed:23L () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let pip = Pip.create services ~node:(add "pip") in
  if cspec.role_code <> 0 then
    Pip.add_subject_attribute pip ~subject:"alice" ~id:"role"
      (Value.String roles.((cspec.role_code - 1) mod Array.length roles));
  ignore
    (Pdp_service.create services ~node:(add "pdp") ~name:"pdp" ~root ~pips:[ "pip" ]
       ~attr_cache_ttl:600.0 ());
  let l2 = Cache_hierarchy.L2.create services ~node:(add "l2") ~ttl:600.0 () in
  let cache = Decision_cache.create ~ttl:600.0 () in
  let pep_node = add "pep" in
  let mode =
    if sharded then
      Pep.Sharded
        { tier = Pdp_tier.create services ~node:pep_node ~shards:[ "pdp" ] (); cache = Some cache }
    else Pep.Pull { pdps = [ "pdp" ]; cache = Some cache; call_timeout = 5.0 }
  in
  let pep = Pep.create services ~node:pep_node ~domain:"d" ~resource:"r" ~content:"c" mode in
  Pep.set_l2 pep (Some (Cache_hierarchy.L2.node l2));
  let ctx = lean_ctx_of_spec cspec in
  Pep.set_stale_window pep 2000.0;
  let decide () =
    let answer = ref None in
    Pep.decide_explained pep ctx (fun r p -> answer := Some (r, p));
    Net.run net;
    !answer
  in
  let purge_decision_caches () =
    Cache_hierarchy.L2.invalidate_region l2 Dacs_policy.Delta.unbounded;
    ignore (Pep.invalidate_region pep Dacs_policy.Delta.unbounded);
    Net.run net
  in
  let cold = decide () in
  let warm_l1 = decide () in
  ignore (Pep.invalidate_region pep Dacs_policy.Delta.unbounded);
  let l2_only = decide () in
  purge_decision_caches ();
  let attr_cached = decide () in
  purge_decision_caches ();
  let leader = ref None and waiter = ref None in
  Pep.decide_explained pep ctx (fun r p -> leader := Some (r, p));
  Pep.decide_explained pep ctx (fun r p -> waiter := Some (r, p));
  Net.run net;
  (* Degraded rungs: kill the PDP and the shared L2, then advance the
     virtual clock past the decision TTL so the leader's L1 entry is
     expired — the ladder has to fall through to the bounded-stale
     serve.  Purging L1 after that leaves nothing to answer from, which
     is the fail-closed floor. *)
  Net.crash net "pdp";
  Net.crash net "l2";
  Dacs_net.Engine.schedule (Net.engine net) ~delay:700.0 (fun () -> ());
  Net.run net;
  let stale = decide () in
  (* Offline rung: purge the expired L1 entry, attach an offline replica
     holding the same policy (and the subject's role as a signed grant)
     — with the tier dark and nothing stale to serve, the ladder must
     descend to the signed log.  The offline evaluation sees exactly the
     reference's attributes, so the decision must still match; an
     Indeterminate has no offline basis and falls through to the
     fail-closed floor without ever being logged. *)
  ignore (Pep.invalidate_region pep Dacs_policy.Delta.unbounded);
  let offline_replica =
    Offline.create ~now:(fun () -> Dacs_net.Engine.now (Net.engine net))
      ~key:(Dacs_crypto.Sha256.digest "oracle-mesh") ~author:"d" ()
  in
  Offline.publish offline_replica root;
  if cspec.role_code <> 0 then
    Offline.grant offline_replica ~subject:"alice" ~attr:"role"
      ~value:roles.((cspec.role_code - 1) mod Array.length roles);
  Pep.set_offline_replica pep (Some offline_replica);
  let offline = decide () in
  (* Detaching the replica (without touching L1) exposes the fail-closed
     floor — and proves offline answers were never written to L1, which
     would otherwise answer here. *)
  Pep.set_offline_replica pep None;
  let fail_closed = decide () in
  (* Indeterminate answers are deliberately never cached (a statement
     about the machinery, not the policy), so when the corpus case
     evaluates to an error every "cached" rung re-descends live and the
     degraded rungs land on the fail-closed floor. *)
  let cacheable =
    match cold with
    | Some ({ Decision.decision = Decision.Indeterminate _; _ }, _) -> false
    | _ -> true
  in
  (match offline with
  | Some (_, { Provenance.stage = Provenance.Offline; log_head = None; _ }) ->
    QCheck.Test.fail_reportf "offline serve without a log head (%s)" (seed_hint ())
  | _ -> ());
  if (not cacheable) && (Offline.stats offline_replica).Offline.offline_decides > 0 then
    QCheck.Test.fail_reportf "indeterminate was logged as an offline decision (%s)" (seed_hint ());
  [
    ("cold", Provenance.Live, `Equal, cold);
    ("warm-l1", (if cacheable then Provenance.L1 else Provenance.Live), `Equal, warm_l1);
    ("l2-only", (if cacheable then Provenance.L2 else Provenance.Live), `Equal, l2_only);
    ("attr-cache", Provenance.Live, `Equal, attr_cached);
    ("coalesced-leader", Provenance.Live, `Equal, !leader);
    ("coalesced-waiter", Provenance.Live, `Equal, !waiter);
    (if cacheable then ("stale", Provenance.Stale, `Equal, stale)
     else ("stale", Provenance.Fail_closed, `Indeterminate, stale));
    (if cacheable then ("offline", Provenance.Offline, `Equal, offline)
     else ("offline", Provenance.Fail_closed, `Indeterminate, offline));
    ("fail-closed", Provenance.Fail_closed, `Indeterminate, fail_closed);
  ]

(* Shared assertion for both cached-ladder oracles: the provenance names
   the forced rung, the coalesced flag singles out the waiter, and the
   answer matches the reference (or is Indeterminate on the fail-closed
   floor, where diverging from the reference is the point). *)
let check_ladder_stage ~alg:name ~reference
    (stage, expected_stage, kind, answer) =
  match answer with
  | None ->
    QCheck.Test.fail_reportf "[%s] stage %s never answered (%s)" name stage (seed_hint ())
  | Some (cached, (prov : Provenance.t)) ->
    if prov.Provenance.stage <> expected_stage then
      QCheck.Test.fail_reportf "[%s] stage %s served from rung %s, expected %s (%s)" name stage
        (Provenance.stage_name prov.Provenance.stage)
        (Provenance.stage_name expected_stage)
        (seed_hint ())
    else if prov.Provenance.coalesced <> (stage = "coalesced-waiter") then
      QCheck.Test.fail_reportf "[%s] stage %s coalesced flag is %b (%s)" name stage
        prov.Provenance.coalesced (seed_hint ())
    else
      match kind with
      | `Indeterminate -> (
        match cached.Decision.decision with
        | Decision.Indeterminate _ -> true
        | d ->
          QCheck.Test.fail_reportf "[%s] stage %s answered %s instead of failing closed (%s)"
            name stage (Decision.decision_to_string d) (seed_hint ()))
      | `Equal ->
        if result_equal reference cached then true
        else
          fail_diverged ~alg:name ~expected:reference ~got:cached "reference"
            (Printf.sprintf "cached stage %s" stage)

(* The cached ladder checked against the reference through both tiers;
   a failure names the tier as [alg/pull] or [alg/sharded]. *)
let check_both_live_rungs ~alg ~reference root cspec =
  List.for_all
    (fun (rung, sharded) ->
      List.for_all
        (check_ladder_stage ~alg:(alg ^ "/" ^ rung) ~reference)
        (cached_ladder_evaluate ~sharded root cspec))
    [ ("pull", false); ("sharded", true) ]

let cached_oracle (name, alg) =
  QCheck.Test.make
    ~name:(Printf.sprintf "caching ladder == reference (%s)" name)
    ~count:300 arb_case
    (fun (pspec, cspec) ->
      let policy = policy_of_spec alg pspec in
      let ctx = ctx_of_spec cspec in
      let reference = Policy.evaluate ctx policy in
      let compiled = Compiled.evaluate ctx (Compiled.compile (Policy.Inline_policy policy)) in
      if not (result_equal reference compiled) then
        fail_diverged ~alg:name ~expected:reference ~got:compiled "reference" "compiled"
      else check_both_live_rungs ~alg:name ~reference (Policy.Inline_policy policy) cspec)

let algorithms =
  [
    ("deny-overrides", Combine.Deny_overrides);
    ("permit-overrides", Combine.Permit_overrides);
    ("first-applicable", Combine.First_applicable);
    ("only-one-applicable", Combine.Only_one_applicable);
    ("ordered-deny-overrides", Combine.Ordered_deny_overrides);
    ("ordered-permit-overrides", Combine.Ordered_permit_overrides);
  ]

(* --- oracle 1b: reference vs compiled, whole result ---------------------- *)

(* [result_equal] compares the decision kind and the obligations; this
   oracle compares the whole [Decision.result], Indeterminate reason
   included, so a combining algorithm that names the wrong child (or
   builds its message from the wrong error) is caught.  The vocabulary
   reaches every error path: unknown match functions, non-string and
   multi-valued resource-id/action-id bags, attributes absent from the
   request that a resolver may supply, conditions that error, undefined
   variables, and policy references. *)

type full_rule = { fr_effect : int; fr_target : int; fr_condition : int }

let full_targets = 13 + Pin_shapes.kinds

let full_target code =
  let r = resources.(code mod Array.length resources) in
  let a = actions.(code mod Array.length actions) in
  let role = roles.(code mod Array.length roles) in
  match code with
  | 0 -> Target.any
  | 1 | 2 | 3 -> Target.(any |> resource_is "resource-id" r)
  | 4 | 5 -> Target.(any |> action_is "action-id" a)
  | 6 | 7 -> Target.(any |> subject_is "role" role |> resource_is "resource-id" r)
  | 8 -> Target.(any |> subject_is "role" role |> resource_is "resource-id" r |> action_is "action-id" a)
  | 9 ->
    Target.make
      ~resources:
        [ [ Target.make_match ~fn:"no-such-function" ~value:(Value.String r) ~category:Context.Resource ~attribute_id:"resource-id" ] ]
      ()
  | 10 ->
    Target.make
      ~resources:
        [ [ Target.make_match ~fn:"string-starts-with" ~value:(Value.String (String.sub r 0 1)) ~category:Context.Resource ~attribute_id:"resource-id" ] ]
      ()
  | 11 ->
    (* integer-equal on a string role errors *)
    Target.make
      ~subjects:
        [ [ Target.make_match ~fn:"integer-equal" ~value:(Value.Int 3) ~category:Context.Subject ~attribute_id:"role" ] ]
      ~actions:[ [ Target.match_string Context.Action "action-id" a ] ]
      ()
  | 12 -> Target.(any |> subject_is "clearance" "secret")
  | c -> Pin_shapes.target (c - 13)

let full_conditions = 12

let full_condition code =
  match code with
  | 0 -> None
  | 1 | 2 | 3 -> Some (Expr.one_of (Expr.subject_attr "role") [ roles.(code - 1) ])
  | 4 -> Some (Expr.one_of (Expr.subject_attr ~must_be_present:true "clearance") [ "secret" ])
  | 5 -> Some (Expr.Apply ("integer-equal", [ Expr.Apply ("integer-divide", [ Expr.int 1; Expr.int 0 ]); Expr.int 1 ]))
  | 6 -> Some (Expr.Variable_ref "undefined")
  | 7 -> Some (Expr.Variable_ref "is-doctor")
  | _ -> None

let full_policy alg p (rules, obligation_code, target_code) =
  let id = Printf.sprintf "p%d" p in
  Policy.make ~id ~rule_combining:alg
    ~target:(if target_code < 8 then Target.any else full_target (target_code - 7))
    ~variables:[ ("is-doctor", Expr.one_of (Expr.subject_attr "role") [ "doctor" ]) ]
    ~obligations:(obligations_of_spec p obligation_code)
    (List.mapi
       (fun i r ->
         Rule.make ~target:(full_target r.fr_target) ?condition:(full_condition r.fr_condition)
           (if r.fr_effect = 0 then Rule.Permit else Rule.Deny)
           (Printf.sprintf "r%d" i))
       rules)

(* Shape 0 is a lone policy (the serving shape); otherwise a set of the
   policies under [set_alg], the last child a reference to the first
   policy when [shape] is 2 (resolved) or 3 (dangling). *)
let full_tree alg (shape, set_alg, policies) =
  let leaves = List.mapi (fun p spec -> Policy.Inline_policy (full_policy alg p spec)) policies in
  match (shape, leaves) with
  | 0, leaf :: _ -> leaf
  | _ ->
    let refs = match shape with 2 -> [ Policy.Policy_ref "p0" ] | 3 -> [ Policy.Policy_ref "gone" ] | _ -> [] in
    Policy.Inline_set
      (Policy.make_set ~id:"s" ~policy_combining:(snd (List.nth algorithms set_alg))
         ~obligations:(obligations_of_spec 9 (set_alg mod 3))
         (leaves @ refs))

let full_resolve_ref tree id =
  match tree with
  | Policy.Inline_set s ->
    List.find_opt (fun c -> Policy.child_id c = id) s.Policy.children
  | _ -> None

type full_ctx = { fc_role : int; fc_resource : int; fc_action : int; fc_resolver : int; fc_cross : int }

let full_context c =
  let role =
    match c.fc_role with
    | 0 -> []
    | 4 -> [ ("role", Value.Int 3) ]
    | k -> [ ("role", Value.String roles.(k - 1)) ]
  in
  let resource =
    match c.fc_resource with
    | 0 -> []
    | 4 -> [ ("resource-id", Value.String "chart"); ("resource-id", Value.String "lab") ]
    | 5 -> [ ("resource-id", Value.Uri "urn:lab") ]
    | 6 -> [ ("resource-id", Value.String "note"); ("resource-id", Value.Int 1) ]
    | k -> [ ("resource-id", Value.String resources.(k - 1)) ]
  in
  let action =
    match c.fc_action with
    | 0 -> []
    | 3 -> [ ("action-id", Value.String "read"); ("action-id", Value.String "write") ]
    | 4 -> [ ("action-id", Value.Int 2) ]
    | k -> [ ("action-id", Value.String actions.(k - 1)) ]
  in
  Pin_shapes.with_cross c.fc_cross
    (Context.make ~subject:(("subject-id", Value.String "alice") :: role) ~resource ~action ())

(* Resolver 1 supplies what the request may lack; 2 knows nothing; 3
   supplies only the axes. *)
let full_resolver code : Expr.resolver option =
  match code with
  | 0 -> None
  | 1 ->
    Some
      (fun category id ->
        match (category, id) with
        | Context.Subject, "role" -> Some [ Value.String "nurse" ]
        | Context.Subject, "clearance" -> Some [ Value.String "secret" ]
        | Context.Resource, "resource-id" -> Some [ Value.String "lab" ]
        | _ -> None)
  | 2 -> Some (fun _ _ -> None)
  | _ ->
    Some
      (fun category id ->
        match (category, id) with
        | Context.Resource, "resource-id" -> Some [ Value.String "chart"; Value.String "note" ]
        | Context.Action, "action-id" -> Some [ Value.String "write" ]
        | _ -> None)

let arb_full_case =
  let open QCheck in
  let arb_rule =
    map
      ~rev:(fun r -> (r.fr_effect, r.fr_target, r.fr_condition))
      (fun (e, t, c) -> { fr_effect = e; fr_target = t; fr_condition = c })
      (triple (int_bound 1) (int_bound (full_targets - 1)) (int_bound (full_conditions - 1)))
  in
  let arb_policy =
    triple (list_of_size (Gen.int_bound 5) arb_rule) (int_bound 2) (int_bound 19)
  in
  let arb_tree =
    triple (int_bound 3) (int_bound (List.length algorithms - 1))
      (list_of_size (Gen.int_range 1 3) arb_policy)
  in
  let arb_ctx =
    map
      ~rev:(fun c -> ((c.fc_role, c.fc_resource, c.fc_action), (c.fc_resolver, c.fc_cross)))
      (fun ((r, rs, a), (v, x)) -> { fc_role = r; fc_resource = rs; fc_action = a; fc_resolver = v; fc_cross = x })
      (pair (triple (int_bound 4) (int_bound 6) (int_bound 4)) (pair (int_bound 3) (int_bound Pin_shapes.cross_codes)))
  in
  pair arb_tree arb_ctx

let show_full (r : Decision.result) =
  match r.Decision.decision with
  | Decision.Indeterminate e -> Printf.sprintf "%s (%s)" (show_result r) e
  | _ -> show_result r

let full_result_oracle (name, alg) =
  QCheck.Test.make
    ~name:(Printf.sprintf "compiled == reference, whole result (%s)" name)
    ~count:500 arb_full_case
    (fun (tspec, cspec) ->
      let tree = full_tree alg tspec in
      let ctx = full_context cspec in
      let resolve = full_resolver cspec.fc_resolver in
      let resolve_ref = full_resolve_ref tree in
      let reference = Policy.evaluate_child ?resolve ~resolve_ref ctx tree in
      let compiled = Compiled.evaluate ?resolve ~resolve_ref ctx (Compiled.compile tree) in
      if reference = compiled then true
      else
        QCheck.Test.fail_reportf "[%s] reference %s <> compiled %s (%s)" name (show_full reference)
          (show_full compiled) (seed_hint ()))

(* --- oracle 4: delegation-augmented policy sets ------------------------- *)

(* A random delegation registry (grants between three issuers, some
   revoked) filters a random policy set; the surviving set must evaluate
   identically in-process, through the sharded tier, and through the
   cached ladder.  This is the administrative path the earlier oracles
   never touched: children dropped by [filter_authorized], possibly-empty
   sets, and issuer-targeted children must not change under wire
   encoding, sharding or caching. *)

let issuers = [| "root"; "alpha"; "beta" |]

type grant_spec = { from_code : int; to_code : int; scope_code : int; flag_code : int }
type child_spec = { issuer_code : int; child_resource_code : int; child_effect_code : int }

let scope_of_code c = if c = 0 then "" else resources.((c - 1) mod Array.length resources)

let delegation_of_specs specs =
  let deleg = Delegation.create ~roots:[ "root" ] in
  let granted =
    List.filter_map
      (fun g ->
        match
          Delegation.grant deleg
            ~can_redelegate:(g.flag_code land 1 = 1)
            ~delegator:issuers.(g.from_code mod Array.length issuers)
            ~delegate:issuers.(g.to_code mod Array.length issuers)
            ~scope:(scope_of_code g.scope_code) ~now:0.0 ~expires:100.0 ()
        with
        | Ok recorded -> Some (recorded, g.flag_code land 2 = 2)
        | Error _ -> None)
      specs
  in
  List.iter
    (fun ((recorded : Delegation.grant), revoked) ->
      if revoked then ignore (Delegation.revoke deleg ~grant_id:recorded.Delegation.id))
    granted;
  deleg

let child_of_spec i c =
  let target =
    if c.child_resource_code = 0 then Target.any
    else Target.(any |> resource_is "resource-id" resources.((c.child_resource_code - 1) mod Array.length resources))
  in
  Policy.Inline_policy
    (Policy.make
       ~id:(Printf.sprintf "child%d" i)
       ~issuer:issuers.(c.issuer_code mod Array.length issuers)
       ~target
       [ (if c.child_effect_code = 0 then Rule.permit "p" else Rule.deny "d") ])

let arb_delegation_case =
  let open QCheck in
  let arb_grant =
    map
      ~rev:(fun g -> (g.from_code, g.to_code, g.scope_code, g.flag_code))
      (fun (f, t, s, fl) -> { from_code = f; to_code = t; scope_code = s; flag_code = fl })
      (quad (int_bound 2) (int_bound 2) (int_bound 3) (int_bound 3))
  in
  let arb_child =
    map
      ~rev:(fun c -> (c.issuer_code, c.child_resource_code, c.child_effect_code))
      (fun (i, r, e) -> { issuer_code = i; child_resource_code = r; child_effect_code = e })
      (triple (int_bound 2) (int_bound 3) (int_bound 1))
  in
  let arb_ctx =
    map
      ~rev:(fun s -> (s.role_code, s.resource_code, s.action_code))
      (fun (r, rs, a) -> { role_code = r; resource_code = rs; action_code = a; cross_code = 0 })
      (triple (int_bound (Array.length roles)) (int_bound 2) (int_bound 1))
  in
  triple (list_of_size (Gen.int_bound 4) arb_grant) (list_of_size (Gen.int_bound 4) arb_child) arb_ctx

let delegation_filtered_root alg (grant_specs, child_specs, _) =
  let deleg = delegation_of_specs grant_specs in
  let set =
    Policy.make_set ~policy_combining:alg ~id:"deleg-set" (List.mapi child_of_spec child_specs)
  in
  let filtered, _dropped = Delegation.filter_authorized deleg ~now:1.0 set in
  Policy.Inline_set filtered

let delegation_tier_oracle (name, alg) =
  QCheck.Test.make
    ~name:(Printf.sprintf "delegation-filtered set: tier/compiled == reference (%s)" name)
    ~count:300 arb_delegation_case
    (fun case ->
      let _, _, cspec = case in
      let root = delegation_filtered_root alg case in
      let ctx = ctx_of_spec cspec in
      let reference = Policy.evaluate_child ctx root in
      (* Possibly-empty filtered sets are exactly the shape the compiled
         set walker has to get right, in process and behind the wire. *)
      let compiled = Compiled.evaluate ctx (Compiled.compile root) in
      if not (result_equal reference compiled) then
        fail_diverged ~alg:name ~expected:reference ~got:compiled "reference" "compiled"
      else
        match tier_evaluate root ctx with
        | None -> QCheck.Test.fail_reportf "[%s] tier never answered (%s)" name (seed_hint ())
        | Some (Error e) ->
          QCheck.Test.fail_reportf "[%s] tier failed closed: %s (%s)" name e (seed_hint ())
        | Some (Ok tiered) ->
          if result_equal reference tiered then true
          else fail_diverged ~alg:name ~expected:reference ~got:tiered "reference" "tier")

let delegation_cached_oracle (name, alg) =
  QCheck.Test.make
    ~name:(Printf.sprintf "delegation-filtered set: caching ladder == reference (%s)" name)
    ~count:100 arb_delegation_case
    (fun case ->
      let _, _, cspec = case in
      let root = delegation_filtered_root alg case in
      let reference = Policy.evaluate_child (ctx_of_spec cspec) root in
      check_both_live_rungs ~alg:name ~reference root cspec)

(* --- oracle 5: negotiation-gated requests ------------------------------- *)

(* Trust negotiation decides whether the requester's role credential is
   released at all; the authorisation request then carries the role only
   on success.  The oracle checks the composition end to end: the
   negotiation outcome matches [satisfied] over what was disclosed, and
   the resulting (gated) context evaluates identically in-process and
   through the sharded tier. *)

type nego_spec = { depth : int; broken : bool }

let nego_parties spec =
  let cred i = Printf.sprintf "client-cred%d" i in
  let srv i = Printf.sprintf "server-cred%d" i in
  let depth = spec.depth mod 4 in
  let client_creds =
    List.init (depth + 1) (fun i ->
        if i = 0 then Negotiation.unprotected (cred 0)
        else Negotiation.protected_by (cred i) [ srv (i - 1) ])
  in
  let server_creds =
    List.init depth (fun i ->
        (* A broken chain: the server's deepest credential demands a
           client credential that does not exist. *)
        if spec.broken && i = depth - 1 then Negotiation.protected_by (srv i) [ "no-such-cred" ]
        else Negotiation.protected_by (srv i) [ cred i ])
  in
  let target =
    if spec.broken && depth = 0 then [ [ "no-such-cred" ] ] else [ [ cred depth ] ]
  in
  ( { Negotiation.party_name = "client"; credentials = client_creds },
    { Negotiation.party_name = "server"; credentials = server_creds },
    target )

let arb_negotiation_case =
  let open QCheck in
  let arb_rule =
    map
      ~rev:(fun s -> (s.effect_code, s.target_code, s.condition_code, s.obligation_code))
      (fun (e, t, c, o) -> { effect_code = e; target_code = t; condition_code = c; obligation_code = o })
      (quad (int_bound 1) (int_bound target_code_max) (int_bound condition_code_max) (int_bound 2))
  in
  let arb_nego =
    map
      ~rev:(fun s -> (s.depth, s.broken))
      (fun (d, b) -> { depth = d; broken = b })
      (pair (int_bound 3) bool)
  in
  triple arb_nego (pair (list_of_size (Gen.int_bound 6) arb_rule) (int_bound 1))
    (triple (int_bound (Array.length roles)) (int_bound 2) (int_bound 1))

let negotiation_oracle (name, alg) =
  QCheck.Test.make
    ~name:(Printf.sprintf "negotiation-gated request: tier/compiled == reference (%s)" name)
    ~count:300 arb_negotiation_case
    (fun (nspec, pspec, (role_code, resource_code, action_code)) ->
      let client, server, target = nego_parties nspec in
      let outcome = Negotiation.negotiate ~client ~server ~target in
      (* Internal consistency of the negotiation itself. *)
      if outcome.Negotiation.success <> Negotiation.satisfied target outcome.Negotiation.disclosed_by_client
      then QCheck.Test.fail_reportf "negotiation outcome disagrees with satisfied";
      if nspec.broken && outcome.Negotiation.success then
        QCheck.Test.fail_reportf "broken credential chain negotiated successfully";
      if (not nspec.broken) && not outcome.Negotiation.success then
        QCheck.Test.fail_reportf "intact chain of depth %d failed" (nspec.depth mod 4);
      (* The gate: the role attribute reaches the authz request only when
         negotiation released it. *)
      let cspec =
        {
          role_code = (if outcome.Negotiation.success then 1 + (role_code mod Array.length roles) else 0);
          resource_code;
          action_code;
          cross_code = 0;
        }
      in
      let policy = policy_of_spec alg pspec in
      let ctx = ctx_of_spec cspec in
      let reference = Policy.evaluate ctx policy in
      let compiled = Compiled.evaluate ctx (Compiled.compile (Policy.Inline_policy policy)) in
      if not (result_equal reference compiled) then
        fail_diverged ~alg:name ~expected:reference ~got:compiled "reference" "compiled"
      else
        match tier_evaluate (Policy.Inline_policy policy) ctx with
        | None -> QCheck.Test.fail_reportf "[%s] tier never answered (%s)" name (seed_hint ())
        | Some (Error e) ->
          QCheck.Test.fail_reportf "[%s] tier failed closed: %s (%s)" name e (seed_hint ())
        | Some (Ok tiered) ->
          if result_equal reference tiered then true
          else fail_diverged ~alg:name ~expected:reference ~got:tiered "reference" "compiled tier")

(* --- oracle 6: churn corpus (targeted cache invalidation) ---------------- *)

(* Interleaved publish/decide: a random sequence of policy generations
   decided through an L1 decision cache under targeted region
   invalidation (Delta.between over consecutive roots), against a
   full-flush arm and the uncached reference evaluation.  No request is
   in flight across a publish, so all three must agree at every step —
   any divergence means the region under-approximated the publish's
   impact and a stale entry survived. *)

module Delta = Dacs_policy.Delta

(* The full enumerable request population of the spec vocabulary
   (including the role-absent contexts) — decided after every publish,
   so every cached entry is re-audited against the new policy. *)
let churn_ctxs =
  List.init 24 (fun i ->
      ctx_of_spec
        { role_code = i / 6; resource_code = i / 2 mod 3; action_code = i mod 2; cross_code = 0 })

let churn_corpus ~alg ~name gens =
  let roots = List.map (fun pspec -> Policy.Inline_policy (policy_of_spec alg pspec)) gens in
  let targeted = Decision_cache.create ~ttl:3600.0 () in
  let full = Decision_cache.create ~ttl:3600.0 () in
  let decide_cached cache root ctx =
    let key = Decision_cache.request_key ctx in
    match Decision_cache.get cache ~now:0.0 ~key with
    | Some r -> r
    | None ->
      let r = Policy.evaluate_child ctx root in
      Decision_cache.put cache ~now:0.0 ~key r;
      r
  in
  let prev = ref None in
  List.iteri
    (fun gen root ->
      let region = Delta.between !prev (Some root) in
      ignore (Decision_cache.invalidate_region targeted region);
      ignore (Decision_cache.invalidate_region full Delta.unbounded);
      prev := Some root;
      List.iter
        (fun ctx ->
          let reference = Policy.evaluate_child ctx root in
          let t = decide_cached targeted root ctx in
          let f = decide_cached full root ctx in
          if not (result_equal reference t) then
            QCheck.Test.fail_reportf
              "[%s] generation %d: targeted-invalidation cache served %s, reference %s — region \
               %s under-approximated (%s)"
              name gen (show_result t) (show_result reference) (Delta.to_string region)
              (seed_hint ())
          else if not (result_equal reference f) then
            fail_diverged ~alg:name ~expected:reference ~got:f "reference" "full-flush cache")
        churn_ctxs)
    roots;
  true

let arb_churn =
  let open QCheck in
  let arb_rule =
    map
      ~rev:(fun s -> (s.effect_code, s.target_code, s.condition_code, s.obligation_code))
      (fun (e, t, c, o) ->
        { effect_code = e; target_code = t; condition_code = c; obligation_code = o })
      (quad (int_bound 1) (int_bound target_code_max) (int_bound condition_code_max) (int_bound 2))
  in
  list_of_size
    (Gen.int_bound 4)
    (pair (list_of_size (Gen.int_bound 6) arb_rule) (int_bound 1))

let churn_oracle (name, alg) =
  QCheck.Test.make
    ~name:(Printf.sprintf "churn corpus: targeted == full-flush == reference (%s)" name)
    ~count:150 arb_churn
    (churn_corpus ~alg ~name)

(* --- oracle 7: one shared cache, many requests --------------------------- *)

(* The ladder oracles decide one request per network, so a packed key
   that merged two distinct requests would pass them.  Here four subjects
   (random PIP-held roles, possibly none) × every resource × every action
   go through one PEP's L1 and one shared L2: cold, warm, and again after
   an L1 purge, so every answer crosses the L2's wire frames.  Each answer
   must equal its own request's reference and come from the rung its key
   predicts — a collision shows as a cold hit or a wrong decision, a key
   that fails to re-match or to survive the wire as a warm miss. *)

let shared_cache_evaluate ~alg:name root role_codes =
  let net = Net.create ~seed:29L () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let pip = Pip.create services ~node:(add "pip") in
  let requests =
    List.concat
      (List.mapi
         (fun i role_code ->
           let subject = [| "alice"; "bob"; "carol"; "dave" |].(i) in
           if role_code <> 0 then
             Pip.add_subject_attribute pip ~subject ~id:"role"
               (Value.String roles.((role_code - 1) mod Array.length roles));
           List.init 6 (fun j ->
               (subject, { role_code; resource_code = j / 2; action_code = j mod 2; cross_code = 0 })))
         role_codes)
  in
  ignore
    (Pdp_service.create services ~node:(add "pdp") ~name:"pdp" ~root ~pips:[ "pip" ]
       ~attr_cache_ttl:600.0 ());
  let l2 = Cache_hierarchy.L2.create services ~node:(add "l2") ~ttl:600.0 () in
  let cache = Decision_cache.create ~ttl:600.0 () in
  let pep =
    Pep.create services ~node:(add "pep") ~domain:"d" ~resource:"r" ~content:"c"
      (Pep.Pull { pdps = [ "pdp" ]; cache = Some cache; call_timeout = 5.0 })
  in
  Pep.set_l2 pep (Some (Cache_hierarchy.L2.node l2));
  let pass stage cached_rung =
    List.for_all
      (fun (subject, cspec) ->
        let reference = Policy.evaluate_child (ctx_of_spec ~subject cspec) root in
        let answer = ref None in
        Pep.decide_explained pep (lean_ctx_of_spec ~subject cspec) (fun r p ->
            answer := Some (r, p));
        Net.run net;
        let rung =
          match reference.Decision.decision with
          | Decision.Indeterminate _ -> Provenance.Live
          | _ -> cached_rung
        in
        check_ladder_stage
          ~alg:(Printf.sprintf "%s/%s/r%d/a%d" name subject cspec.resource_code cspec.action_code)
          ~reference (stage, rung, `Equal, !answer))
      requests
  in
  pass "cold" Provenance.Live
  && pass "warm" Provenance.L1
  &&
  (ignore (Pep.invalidate_region pep Dacs_policy.Delta.unbounded);
   pass "l2" Provenance.L2)

let arb_role_codes = QCheck.(list_of_size (Gen.return 4) (int_bound (Array.length roles)))

let shared_cache_oracle (name, alg) =
  QCheck.Test.make
    ~name:(Printf.sprintf "shared cache: every request == its reference (%s)" name)
    ~count:40
    QCheck.(pair arb_case arb_role_codes)
    (fun ((pspec, _), role_codes) ->
      shared_cache_evaluate ~alg:name (Policy.Inline_policy (policy_of_spec alg pspec)) role_codes)

let delegation_shared_cache_oracle (name, alg) =
  QCheck.Test.make
    ~name:(Printf.sprintf "shared cache: delegation-filtered set == reference (%s)" name)
    ~count:40
    QCheck.(pair arb_delegation_case arb_role_codes)
    (fun (case, role_codes) ->
      shared_cache_evaluate ~alg:name (delegation_filtered_root alg case) role_codes)

(* --- directed regressions: empty rule lists ----------------------------- *)

(* Every combining algorithm folded over zero children must agree across
   all evaluators: NotApplicable, no obligations — even when the policy
   itself carries obligations (they attach only to Permit/Deny).  The
   generator reaches empty rule lists rarely enough that a divergence
   here deserves a named, deterministic test per algorithm. *)
let empty_rules_cases =
  List.map
    (fun (name, alg) ->
      Alcotest.test_case (Printf.sprintf "empty rule list (%s)" name) `Quick (fun () ->
          let policy = policy_of_spec alg ([], 1) in
          let ctx = ctx_of_spec { role_code = 1; resource_code = 0; action_code = 0; cross_code = 0 } in
          let reference = Policy.evaluate ctx policy in
          Alcotest.(check bool)
            "reference is NotApplicable"
            true
            (Decision.equal_decision reference.Decision.decision Decision.Not_applicable
            && reference.Decision.obligations = []);
          let compiled = Compiled.evaluate ctx (Compiled.compile (Policy.Inline_policy policy)) in
          Alcotest.(check bool)
            (Printf.sprintf "[%s] compiled == reference" name)
            true (result_equal reference compiled);
          match tier_evaluate (Policy.Inline_policy policy) ctx with
          | Some (Ok tiered) ->
            Alcotest.(check bool)
              (Printf.sprintf "[%s] tier == reference" name)
              true (result_equal reference tiered)
          | Some (Error e) -> Alcotest.failf "[%s] tier failed closed: %s" name e
          | None -> Alcotest.failf "[%s] tier never answered" name))
    algorithms

(* Every Pin_shapes target survives the policy XML unchanged: a match
   keeps its own category whichever section holds it.  The offline rung,
   which republishes the policy as XML, then decides the category-mismatched
   case as the in-process reference does: a resources-section match on
   Action's resource-id = lab Permits a request whose Action carries it. *)
let test_pin_shapes_xml () =
  let policy k = Policy.Inline_policy (Policy.make ~id:"pins" [ Rule.permit ~target:(Pin_shapes.target k) "r" ]) in
  for k = 0 to Pin_shapes.kinds - 1 do
    match Dacs_policy.Xacml_xml.(child_of_string (child_to_string (policy k))) with
    | Ok back -> Alcotest.(check bool) (Printf.sprintf "shape %d round-trips" k) true (back = policy k)
    | Error e -> Alcotest.failf "shape %d does not parse back: %s" k e
  done;
  let mismatched = policy 1 in
  (match mismatched with
  | Policy.Inline_policy { Policy.rules = [ { Rule.target; _ } ]; _ } ->
    Alcotest.(check bool) "the quoted case: an Action match in the resources section" true
      (target.Target.resources = [ [ Target.match_string Context.Action "resource-id" "lab" ] ])
  | _ -> Alcotest.fail "unexpected policy shape");
  let ctx =
    Context.add
      (Context.make
         ~subject:[ ("subject-id", Value.String "alice") ]
         ~resource:[ ("resource-id", Value.String "chart") ]
         ~action:[ ("action-id", Value.String "read") ]
         ())
      Context.Action "resource-id" (Value.String "lab")
  in
  let reference = Policy.evaluate_child ctx mismatched in
  Alcotest.(check string) "reference" "Permit" (Decision.decision_to_string reference.Decision.decision);
  let replica =
    Offline.create ~now:(fun () -> 0.0) ~key:(Dacs_crypto.Sha256.digest "oracle-mesh") ~author:"d" ()
  in
  Offline.publish replica mismatched;
  match Offline.decide replica ctx with
  | Some (offline, _) -> Alcotest.(check bool) "offline rung == reference" true (result_equal reference offline)
  | None -> Alcotest.fail "the offline rung had no basis to decide"

let () =
  Alcotest.run "dacs_oracle"
    [
      ("empty-rules-directed", empty_rules_cases);
      ("pin-shapes-xml", [ Alcotest.test_case "pin shapes survive the policy XML" `Quick test_pin_shapes_xml ]);
      ( "compiled-differential",
        List.map (fun a -> QCheck_alcotest.to_alcotest (compiled_oracle a)) algorithms );
      ( "compiled-whole-result",
        List.map (fun a -> QCheck_alcotest.to_alcotest (full_result_oracle a)) algorithms );
      ("tier-differential", List.map (fun a -> QCheck_alcotest.to_alcotest (tier_oracle a)) algorithms);
      ( "cached-ladder-differential",
        List.map (fun a -> QCheck_alcotest.to_alcotest (cached_oracle a)) algorithms );
      ( "delegation-differential",
        List.map (fun a -> QCheck_alcotest.to_alcotest (delegation_tier_oracle a)) algorithms
        @ List.map (fun a -> QCheck_alcotest.to_alcotest (delegation_cached_oracle a)) algorithms );
      ( "negotiation-differential",
        List.map (fun a -> QCheck_alcotest.to_alcotest (negotiation_oracle a)) algorithms );
      ( "churn-differential",
        List.map (fun a -> QCheck_alcotest.to_alcotest (churn_oracle a)) algorithms );
      ( "shared-cache-differential",
        List.map (fun a -> QCheck_alcotest.to_alcotest (shared_cache_oracle a)) algorithms
        @ List.map (fun a -> QCheck_alcotest.to_alcotest (delegation_shared_cache_oracle a))
            algorithms );
    ]
