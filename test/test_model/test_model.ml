(* Stateful model-based testing of the cache hierarchy.

   The system under test is the full serving stack: a sharded PEP (L1
   decision cache + single-flight) over two PDP shards (each with a
   PIP-fed attribute cache) and a domain L2 decision cache.  A reference
   model is a flat pair (current policy, subject -> role): evaluating
   the model is one in-process Policy.evaluate with the role inlined.

   QCheck generates random interleavings of the operations that mutate
   shared state — decisions, policy publishes (with their invalidation
   round), spurious invalidations, attribute revocations and grants, and
   shard crash/recovery — and the property asserts that every decision
   the stack returns equals the model's answer at that instant.  Caches,
   coalescing, batching, failover and invalidation propagation must all
   be decision-invariant: no stale decision may outlive the invalidation
   round that should have killed it.

   The one relaxation: while every shard is unavailable an answer may
   also be Indeterminate (the stack fails closed rather than inventing
   an answer).  A shard is unavailable while it is crashed, and for a
   while after it recovers: a frame sent to it before the recovery can
   still time out up to one frame timeout later, and a timeout can
   (re)open its breaker, which the tier skips for one cooldown.  A
   decision issued concurrently with a publish may match the model
   before or after the publish — either order is a correct
   linearisation — but nothing else.

   Operations are int-coded triples so QCheck shrinks a failing
   interleaving to a minimal one. *)

module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Expr = Dacs_policy.Expr
module Target = Dacs_policy.Target
module Combine = Dacs_policy.Combine
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Value = Dacs_policy.Value
module Delta = Dacs_policy.Delta
module Net = Dacs_net.Net
module Service = Dacs_ws.Service
open Dacs_core

let roles = [| "doctor"; "nurse"; "admin" |]
let actions = [| "read"; "write" |]
let users = 4
let user_name u = Printf.sprintf "user%d" (u mod users)

(* A small closed policy family: index k permits role k outright and
   role k+1 for reads, then denies.  First_applicable keeps evaluation
   order-sensitive (cache staleness shows up as a flipped decision, not
   just a different message). *)
let policy_family k =
  let k = abs k mod 4 in
  let role i = roles.(i mod Array.length roles) in
  Policy.make ~id:(Printf.sprintf "model-p%d" k) ~rule_combining:Combine.First_applicable
    [
      Rule.permit ~condition:(Expr.one_of (Expr.subject_attr "role") [ role k ]) "full-access";
      Rule.permit
        ~target:Target.(any |> action_is "action-id" "read")
        ~condition:(Expr.one_of (Expr.subject_attr "role") [ role (k + 1) ])
        "read-only";
      Rule.deny "default-deny";
    ]

(* Extended family for targeted publishes: bit 2 appends a rule confined
   to resource "lab", which no model request ever names.  The delta
   region of a publish toggling only that rule must exclude every chart
   context, so a targeted invalidation round drops nothing — and the
   retained cached decisions must still match the model. *)
let policy_family_ext k =
  let k = abs k in
  let base = policy_family k in
  if k land 4 = 0 then base
  else begin
    let lab = Rule.permit ~target:Target.(any |> resource_is "resource-id" "lab") "lab-bonus" in
    let rec splice = function
      | [ deny ] -> [ lab; deny ]
      | r :: rest -> r :: splice rest
      | [] -> [ lab ]
    in
    { base with Policy.rules = splice base.Policy.rules }
  end

(* --- the reference model ------------------------------------------------ *)

type model = {
  mutable policy : int;
  role_of : string option array;  (* per user; None = revoked *)
  crashed : bool array;  (* per shard *)
  recovered_at : float array;  (* per shard: the last recovery's instant *)
}

let fresh_model () =
  {
    policy = 0;
    role_of = Array.init users (fun u -> Some roles.(u mod 3));
    crashed = [| false; false |];
    recovered_at = [| neg_infinity; neg_infinity |];
  }

let model_ctx m u action =
  let subject =
    ("subject-id", Value.String (user_name u))
    :: (match m.role_of.(u mod users) with None -> [] | Some r -> [ ("role", Value.String r) ])
  in
  Context.make ~subject
    ~resource:[ ("resource-id", Value.String "chart") ]
    ~action:[ ("action-id", Value.String actions.(action mod Array.length actions)) ]
    ()

let model_decision m u action = (Policy.evaluate (model_ctx m u action) (policy_family m.policy)).Decision.decision

(* --- the system under test --------------------------------------------- *)

type sut = {
  net : Net.t;
  pep : Pep.t;
  shards : Pdp_service.t array;
  l2 : Cache_hierarchy.L2.t;
  pip : Pip.t;
  skip_window : float;
      (** how long after its recovery a shard may still be skipped: the
          longest a frame sent before the recovery can take to time out
          (the tier's frame timeout) plus the breaker's cooldown *)
}

let shard_node i = Printf.sprintf "pdp%d" i

let make_sut () =
  let net = Net.create ~seed:31L () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  let pip = Pip.create services ~node:(add "pip") in
  for u = 0 to users - 1 do
    Pip.add_subject_attribute pip ~subject:(user_name u) ~id:"role"
      (Value.String roles.(u mod Array.length roles))
  done;
  let shards =
    Array.init 2 (fun i ->
        Pdp_service.create services ~node:(add (shard_node i)) ~name:(shard_node i)
          ~root:(Policy.Inline_policy (policy_family 0))
          ~pips:[ "pip" ] ~attr_cache_ttl:600.0 ())
  in
  let l2 = Cache_hierarchy.L2.create services ~node:(add "l2") ~ttl:600.0 () in
  let tier =
    Pdp_tier.create services ~node:(add "pep") ~shards:[ shard_node 0; shard_node 1 ] ()
  in
  (* Before a shard's first answered frame its RTO is the frame timeout. *)
  let skip_window =
    Pdp_tier.rto tier (shard_node 0) +. Dacs_net.Rpc.default_breaker.Dacs_net.Rpc.cooldown
  in
  let pep =
    Pep.create services ~node:"pep" ~domain:"d" ~resource:"chart"
      (Pep.Sharded { tier; cache = Some (Decision_cache.create ~ttl:600.0 ()) })
  in
  Pep.set_l2 pep (Some (Cache_hierarchy.L2.node l2));
  (* Deliver the shards' attribute-subscribe handshakes. *)
  Net.run net;
  { net; pep; shards; l2; pip; skip_window }

(* The invalidation round a publish or attribute change triggers: purge
   the shared L2 and every PEP L1, then let the pushes propagate. *)
let invalidation_round sut =
  Cache_hierarchy.L2.invalidate_region sut.l2 Delta.unbounded;
  ignore (Pep.invalidate_region sut.pep Delta.unbounded);
  Net.run sut.net

(* The request the PEP actually sees withholds the role — the shard must
   resolve it at the PIP (through its attribute cache), which is exactly
   the path revocation staleness would poison. *)
let sut_ctx u action =
  Context.make
    ~subject:[ ("subject-id", Value.String (user_name u)) ]
    ~resource:[ ("resource-id", Value.String "chart") ]
    ~action:[ ("action-id", Value.String actions.(action mod Array.length actions)) ]
    ()

let show = Decision.decision_to_string

(* --- operations --------------------------------------------------------- *)

type op =
  | Decide of int * int
  | Decide_pair of int * int  (* two identical queries: the coalescing path *)
  | Publish of int
  | Publish_delta of int  (* targeted invalidation from the change-impact region *)
  | Spurious_invalidate
  | Revoke of int
  | Grant of int * int
  | Crash of int
  | Recover of int
  | Decide_during_publish of int * int * int

let op_of_code (code, u, x) =
  match code mod 10 with
  | 0 -> Decide (u, x)
  | 1 -> Decide_pair (u, x)
  | 2 -> Publish x
  | 3 -> Spurious_invalidate
  | 4 -> Revoke u
  | 5 -> Grant (u, x)
  | 6 -> Crash (x mod 2)
  | 7 -> Recover (x mod 2)
  | 8 -> Publish_delta (u + x)
  | _ -> Decide_during_publish (u, x, u + x)

let show_op = function
  | Decide (u, a) -> Printf.sprintf "decide(%s,%s)" (user_name u) actions.(a mod 2)
  | Decide_pair (u, a) -> Printf.sprintf "decide-pair(%s,%s)" (user_name u) actions.(a mod 2)
  | Publish p -> Printf.sprintf "publish(p%d)" (abs p mod 4)
  | Publish_delta p -> Printf.sprintf "publish-delta(p%d)" (abs p mod 8)
  | Spurious_invalidate -> "invalidate"
  | Revoke u -> Printf.sprintf "revoke(%s)" (user_name u)
  | Grant (u, r) -> Printf.sprintf "grant(%s,%s)" (user_name u) roles.(r mod 3)
  | Crash i -> Printf.sprintf "crash(pdp%d)" i
  | Recover i -> Printf.sprintf "recover(pdp%d)" i
  | Decide_during_publish (u, a, p) ->
    Printf.sprintf "decide(%s,%s)||publish(p%d)" (user_name u) actions.(a mod 2) (abs p mod 4)

(* --- execution ---------------------------------------------------------- *)

let publish sut m p =
  let p = abs p mod 4 in
  Array.iter (fun shard -> Pdp_service.install_policy shard (Policy.Inline_policy (policy_family p))) sut.shards;
  m.policy <- p;
  invalidation_round sut

(* The targeted round: instead of flushing L2 and the PEP's L1, drop
   only the entries inside the publish's change-impact region.  The
   model is updated exactly as for [publish] — soundness of the region
   is precisely the claim that retained entries still match it. *)
let publish_delta sut m p =
  let p = abs p mod 8 in
  let before = Policy.Inline_policy (policy_family_ext m.policy) in
  let after = Policy.Inline_policy (policy_family_ext p) in
  let region = Delta.between (Some before) (Some after) in
  Array.iter (fun shard -> Pdp_service.install_policy shard after) sut.shards;
  m.policy <- p;
  Cache_hierarchy.L2.invalidate_region sut.l2 region;
  ignore (Pep.invalidate_region sut.pep region);
  Net.run sut.net

(* The PIP pushes an invalidation of every user's role to every
   subscribed attribute cache, re-adding the roles the model holds. *)
let repush_roles sut m =
  for u = 0 to users - 1 do
    Pip.remove_subject_attribute sut.pip ~subject:(user_name u) ~id:"role";
    Option.iter
      (fun role -> Pip.add_subject_attribute sut.pip ~subject:(user_name u) ~id:"role" (Value.String role))
      m.role_of.(u)
  done;
  Net.run sut.net

(* Whether a decision issued at [at] may fail closed: every shard is
   crashed or inside its skip window. *)
let fail_closed_ok sut m ~at =
  Array.for_all Fun.id
    (Array.mapi (fun i crashed -> crashed || at < m.recovered_at.(i) +. sut.skip_window) m.crashed)

let check_decision sut m trace ~stage ~at u a answer =
  let expected = model_decision m u a in
  let fail_closed_ok = fail_closed_ok sut m ~at in
  match answer with
  | None -> QCheck.Test.fail_reportf "[%s] %s: no answer\ntrace: %s" stage (user_name u) trace
  | Some r -> (
    match r.Decision.decision with
    | d when Decision.equal_decision d expected -> ()
    | Decision.Indeterminate _ when fail_closed_ok -> ()
    | d ->
      QCheck.Test.fail_reportf "[%s] %s/%s: got %s, model says %s (policy p%d, role %s)\ntrace: %s"
        stage (user_name u)
        actions.(a mod Array.length actions)
        (show d) (show expected) m.policy
        (match m.role_of.(u mod users) with None -> "-" | Some r -> r)
        trace)

let run_op sut m trace op =
  match op with
  | Decide (u, a) ->
    let answer = ref None in
    let at = Net.now sut.net in
    Pep.decide sut.pep (sut_ctx u a) (fun r -> answer := Some r);
    Net.run sut.net;
    check_decision sut m trace ~stage:"decide" ~at u a !answer
  | Decide_pair (u, a) ->
    let first = ref None and second = ref None in
    let at = Net.now sut.net in
    Pep.decide sut.pep (sut_ctx u a) (fun r -> first := Some r);
    Pep.decide sut.pep (sut_ctx u a) (fun r -> second := Some r);
    Net.run sut.net;
    check_decision sut m trace ~stage:"pair-leader" ~at u a !first;
    check_decision sut m trace ~stage:"pair-waiter" ~at u a !second
  | Publish p -> publish sut m p
  | Publish_delta p -> publish_delta sut m p
  | Spurious_invalidate -> invalidation_round sut
  | Revoke u ->
    Pip.remove_subject_attribute sut.pip ~subject:(user_name u) ~id:"role";
    m.role_of.(u mod users) <- None;
    invalidation_round sut
  | Grant (u, r) ->
    let role = roles.(r mod Array.length roles) in
    (* remove first so subscribed attribute caches are push-purged; the
       new value is then picked up on the next miss. *)
    Pip.remove_subject_attribute sut.pip ~subject:(user_name u) ~id:"role";
    Pip.add_subject_attribute sut.pip ~subject:(user_name u) ~id:"role" (Value.String role);
    m.role_of.(u mod users) <- Some role;
    invalidation_round sut
  | Crash i ->
    if not m.crashed.(i) then begin
      Net.crash sut.net (shard_node i);
      m.crashed.(i) <- true
    end
  | Recover i ->
    if m.crashed.(i) then begin
      Net.recover sut.net (shard_node i);
      m.crashed.(i) <- false;
      m.recovered_at.(i) <- Net.now sut.net;
      (* The shard was deaf while down: any attribute-invalidate push it
         missed is gone for good, so the PIP pushes every role again (the
         lost-push repair). *)
      repush_roles sut m
    end
  | Decide_during_publish (u, a, p) ->
    (* The decision is in flight while the publish + invalidation round
       land: it may observe the old policy or the new one, nothing else. *)
    let before = model_decision m u a in
    let answer = ref None in
    let at = Net.now sut.net in
    Pep.decide sut.pep (sut_ctx u a) (fun r -> answer := Some r);
    publish sut m p;
    Net.run sut.net;
    let after = model_decision m u a in
    let fail_closed_ok = fail_closed_ok sut m ~at in
    (match !answer with
    | None -> QCheck.Test.fail_reportf "[during-publish] no answer\ntrace: %s" trace
    | Some r -> (
      match r.Decision.decision with
      | d when Decision.equal_decision d before || Decision.equal_decision d after -> ()
      | Decision.Indeterminate _ when fail_closed_ok -> ()
      | d ->
        QCheck.Test.fail_reportf
          "[during-publish] %s: got %s, model allows %s (old) or %s (new)\ntrace: %s" (user_name u)
          (show d) (show before) (show after) trace))

let run_case ops =
  let sut = make_sut () in
  let m = fresh_model () in
  let trace = String.concat "; " (List.map show_op ops) in
  List.iter (run_op sut m trace) ops;
  (* Convergence sweep: recover everything, run one invalidation round,
     then every (user, action) must agree with the model.  Right after
     the recoveries an answer may fail closed only while every shard is
     inside its skip window; once the windows have passed it must be the
     model's. *)
  for i = 0 to 1 do
    run_op sut m trace (Recover i)
  done;
  invalidation_round sut;
  let sweep check =
    for u = 0 to users - 1 do
      for a = 0 to Array.length actions - 1 do
        let answer = ref None in
        let at = Net.now sut.net in
        Pep.decide sut.pep (sut_ctx u a) (fun r -> answer := Some r);
        Net.run sut.net;
        check ~at u a !answer
      done
    done
  in
  sweep (check_decision sut m trace ~stage:"recovery");
  Dacs_net.Engine.schedule (Net.engine sut.net) ~delay:sut.skip_window ignore;
  Net.run sut.net;
  sweep (check_decision sut m trace ~stage:"convergence");
  true

let arb_ops =
  let open QCheck in
  list_of_size (Gen.int_bound 14)
    (triple (int_bound 9) (int_bound (users - 1)) (int_bound 5))

let model_test =
  QCheck.Test.make ~name:"cache hierarchy == flat model under random interleavings" ~count:150
    arb_ops
    (fun coded -> run_case (List.map op_of_code coded))

(* A few directed interleavings for the regressions we most care about,
   immune to generator drift. *)
let directed name ops = Alcotest.test_case name `Quick (fun () -> ignore (run_case ops))

(* The two faces of targeted invalidation, checked down to the cache
   counters: a publish whose region excludes every chart request leaves
   the L1 entry standing (and still correct), then a publish that really
   changes the rule family kills the now-stale entry through the same
   targeted path. *)
let publish_delta_retention () =
  let sut = make_sut () in
  let m = fresh_model () in
  let trace = "publish-delta-retention" in
  run_op sut m trace (Decide (0, 0));
  let hits_before = (Pep.stats sut.pep).Pep.cache_hits in
  (* p0 -> p4: same rule family plus the lab-only rule; the region pins
     resource-id to "lab", so the cached chart decision survives. *)
  run_op sut m trace (Publish_delta 4);
  run_op sut m trace (Decide (0, 0));
  Alcotest.(check bool) "chart entry survives an out-of-region publish" true
    ((Pep.stats sut.pep).Pep.cache_hits > hits_before);
  (* p4 -> p1: the rule family flips (doctor loses access); the region
     covers chart and the stale Permit must not outlive the round. *)
  run_op sut m trace (Publish_delta 1);
  run_op sut m trace (Decide (0, 0))

(* --- partition -> diverge -> heal -> converge ---------------------------- *)

(* Stateful model test of the offline replication layer (Offline).  The
   SUT is a mesh of three signed-log replicas; the reference is a flat
   record of every event ever appended anywhere, plus a per-replica
   knowledge matrix (highest seq known per author) maintained
   independently of the SUT's frontiers.

   QCheck generates random partition schedules interleaved with
   grants/revokes/publishes/offline decisions.  Two properties are
   asserted continuously:

   - every offline decision a replica serves mid-partition equals the
     deny-wins evaluation over exactly the events that replica knows;
   - after every heal (full-mesh anti-entropy round), all replicas reach
     byte-identical state digests and their post-replay decisions equal
     the deny-wins flat reference over the global event set.

   Deny-wins: a grant survives only if its frontier covers every known
   revocation of the same (subject, attr); the reference recomputes this
   from its own frontiers, so a SUT replay bug cannot hide. *)

module O = Offline

let rnames = [| "alpha"; "beta"; "gamma" |]
let nrep = Array.length rnames

type ref_kind = G of int * int (* user, role *) | R of int | P of int | D

type ref_event = {
  e_author : int;
  e_seq : int;
  e_at : float;
  e_frontier : (int * int) list;
  e_kind : ref_kind;
}

type osut = {
  reps : O.t array;
  clock : float ref;
  mutable step : int;
  known : int array array;  (* known.(i).(j) = highest seq of author j at replica i *)
  mutable evs : ref_event list;  (* every event appended anywhere, newest first *)
  groups : int array;  (* partition component per replica; equal = connected *)
}

let make_osut () =
  let clock = ref 0.0 in
  let key = Dacs_crypto.Sha256.digest "model-mesh-key" in
  {
    reps = Array.init nrep (fun i -> O.create ~now:(fun () -> !clock) ~key ~author:rnames.(i) ());
    clock;
    step = 0;
    known = Array.make_matrix nrep nrep 0;
    evs = [];
    groups = Array.make nrep 0;
  }

(* Two consecutive steps share a timestamp, so the (author, seq)
   tie-break of the total order is exercised, not just [at]. *)
let tick s =
  s.step <- s.step + 1;
  s.clock := float_of_int (s.step / 2)

let ref_append s i kind =
  s.known.(i).(i) <- s.known.(i).(i) + 1;
  let frontier =
    Array.to_list (Array.mapi (fun j n -> (j, n)) s.known.(i))
    |> List.filter (fun (_, n) -> n > 0)
  in
  s.evs <-
    { e_author = i; e_seq = s.known.(i).(i); e_at = !(s.clock); e_frontier = frontier; e_kind = kind }
    :: s.evs

let ref_covers frontier author seq = List.exists (fun (a, n) -> a = author && n >= seq) frontier

(* Deny-wins evaluation over the events replica [i] knows: role per user
   from the latest surviving grant, policy from the latest publish, both
   in the total order (at, author, seq). *)
let ref_state s i =
  let known =
    List.filter (fun e -> s.known.(i).(e.e_author) >= e.e_seq) s.evs
    |> List.sort (fun a b -> compare (a.e_at, a.e_author, a.e_seq) (b.e_at, b.e_author, b.e_seq))
  in
  let role_of u =
    let revokes = List.filter (fun e -> e.e_kind = R u) known in
    let survivors =
      List.filter
        (fun e ->
          match e.e_kind with
          | G (u', _) ->
            u' = u && List.for_all (fun r -> ref_covers e.e_frontier r.e_author r.e_seq) revokes
          | _ -> false)
        known
    in
    match List.rev survivors with
    | { e_kind = G (_, r); _ } :: _ -> Some (r mod Array.length roles)
    | _ -> None
  in
  let policy = List.fold_left (fun acc e -> match e.e_kind with P p -> Some p | _ -> acc) None known in
  (role_of, policy)

let off_ctx u a =
  Context.make
    ~subject:[ ("subject-id", Value.String (user_name u)) ]
    ~resource:[ ("resource-id", Value.String "chart") ]
    ~action:[ ("action-id", Value.String actions.(a mod Array.length actions)) ]
    ()

let ref_decide s i u a =
  let role_of, policy = ref_state s i in
  match policy with
  | None -> None
  | Some p ->
    let subject =
      ("subject-id", Value.String (user_name u))
      :: (match role_of (u mod users) with None -> [] | Some r -> [ ("role", Value.String roles.(r)) ])
    in
    let ctx =
      Context.make ~subject
        ~resource:[ ("resource-id", Value.String "chart") ]
        ~action:[ ("action-id", Value.String actions.(a mod Array.length actions)) ]
        ()
    in
    Some (Policy.evaluate ctx (policy_family p)).Decision.decision

let check_offline_decision s trace ~stage i u a =
  let expected = ref_decide s i u a in
  let got = O.decide s.reps.(i) (off_ctx u a) in
  (match got with Some _ -> ref_append s i D | None -> ());
  match (got, expected) with
  | None, None -> ()
  | Some (r, _), Some d when Decision.equal_decision r.Decision.decision d -> ()
  | _ ->
    QCheck.Test.fail_reportf "[%s] %s: %s/%s got %s, deny-wins reference says %s\ntrace: %s" stage
      rnames.(i) (user_name u)
      actions.(a mod Array.length actions)
      (match got with None -> "none" | Some (r, _) -> show r.Decision.decision)
      (match expected with None -> "none" | Some d -> show d)
      trace

(* One anti-entropy round: every replica pulls the suffix it lacks from
   every connected peer.  The reference knowledge matrix is updated per
   pair in the same order, so mid-round cascades match exactly. *)
let sync_round s trace =
  for i = 0 to nrep - 1 do
    for j = 0 to nrep - 1 do
      if i <> j && s.groups.(i) = s.groups.(j) then begin
        (match O.admit s.reps.(i) (O.missing_for s.reps.(j) ~frontier:(O.frontier s.reps.(i))) with
        | Ok _ -> ()
        | Error e ->
          QCheck.Test.fail_reportf "sync %s<-%s rejected honest segment: %s\ntrace: %s" rnames.(i)
            rnames.(j) (O.sync_error_to_string e) trace);
        for a = 0 to nrep - 1 do
          if s.known.(j).(a) > s.known.(i).(a) then s.known.(i).(a) <- s.known.(j).(a)
        done
      end
    done
  done

let heal s trace =
  Array.fill s.groups 0 nrep 0;
  sync_round s trace;
  let d0 = O.state_digest s.reps.(0) in
  Array.iteri
    (fun i o ->
      if O.state_digest o <> d0 then
        QCheck.Test.fail_reportf "post-heal digest divergence: %s != alpha\ntrace: %s" rnames.(i)
          trace)
    s.reps

type oop =
  | OGrant of int * int * int  (* replica, user, role *)
  | ORevoke of int * int
  | OPublish of int * int
  | ODecide of int * int * int  (* replica, user, action *)
  | OPartition of int  (* 3-bit mask: bit i picks replica i's side *)
  | OSync
  | OHeal

let oop_of_code (code, u, x) =
  match code mod 10 with
  | 0 | 1 | 2 -> ODecide (x mod nrep, u, x)
  | 3 | 4 -> OGrant (x mod nrep, u, x)
  | 5 -> ORevoke (x mod nrep, u)
  | 6 -> OPublish (x mod nrep, x)
  | 7 -> OPartition x
  | 8 -> OSync
  | _ -> OHeal

let show_oop = function
  | OGrant (i, u, r) ->
    Printf.sprintf "grant@%s(%s,%s)" rnames.(i) (user_name u) roles.(r mod Array.length roles)
  | ORevoke (i, u) -> Printf.sprintf "revoke@%s(%s)" rnames.(i) (user_name u)
  | OPublish (i, p) -> Printf.sprintf "publish@%s(p%d)" rnames.(i) (abs p mod 4)
  | ODecide (i, u, a) ->
    Printf.sprintf "decide@%s(%s,%s)" rnames.(i) (user_name u) actions.(a mod 2)
  | OPartition m -> Printf.sprintf "partition(%d%d%d)" (m land 1) ((m lsr 1) land 1) ((m lsr 2) land 1)
  | OSync -> "sync"
  | OHeal -> "heal"

let run_oop s trace op =
  tick s;
  match op with
  | OGrant (i, u, r) ->
    O.grant s.reps.(i) ~subject:(user_name u) ~attr:"role" ~value:roles.(r mod Array.length roles);
    ref_append s i (G (u mod users, r mod Array.length roles))
  | ORevoke (i, u) ->
    O.revoke s.reps.(i) ~subject:(user_name u) ~attr:"role";
    ref_append s i (R (u mod users))
  | OPublish (i, p) ->
    let p = abs p mod 4 in
    O.publish s.reps.(i) (Policy.Inline_policy (policy_family p));
    ref_append s i (P p)
  | ODecide (i, u, a) -> check_offline_decision s trace ~stage:"offline-decide" i u a
  | OPartition m ->
    for i = 0 to nrep - 1 do
      s.groups.(i) <- (m lsr i) land 1
    done
  | OSync -> sync_round s trace
  | OHeal -> heal s trace

(* Seed every case with a policy and a role per user (all via alpha),
   fully synced, so partitions diverge from a meaningful baseline. *)
let seed_osut s trace =
  tick s;
  O.publish s.reps.(0) (Policy.Inline_policy (policy_family 0));
  ref_append s 0 (P 0);
  for u = 0 to users - 1 do
    tick s;
    O.grant s.reps.(0) ~subject:(user_name u) ~attr:"role"
      ~value:roles.(u mod Array.length roles);
    ref_append s 0 (G (u, u mod Array.length roles))
  done;
  heal s trace

let run_ocase ops =
  let s = make_osut () in
  let trace = String.concat "; " (List.map show_oop ops) in
  seed_osut s trace;
  List.iter (run_oop s trace) ops;
  (* Final heal: byte-identical digests, then every replica's post-replay
     decisions must equal the deny-wins flat reference. *)
  run_oop s trace OHeal;
  for i = 0 to nrep - 1 do
    for u = 0 to users - 1 do
      for a = 0 to Array.length actions - 1 do
        tick s;
        check_offline_decision s trace ~stage:"converged" i u a
      done
    done
  done;
  true

let arb_oops =
  let open QCheck in
  list_of_size (Gen.int_bound 16) (triple (int_bound 9) (int_bound (users - 1)) (int_bound 7))

let convergence_test =
  QCheck.Test.make ~name:"offline replicas converge to deny-wins flat reference" ~count:500
    arb_oops
    (fun coded -> run_ocase (List.map oop_of_code coded))

let directed_offline name ops = Alcotest.test_case name `Quick (fun () -> ignore (run_ocase ops))

(* The canonical deny-wins race, checked down to the artifacts: a grant
   made offline concurrently with a revocation elsewhere is defeated on
   heal, the race is surfaced as a conflict record, and the offline
   Permit decided from the doomed grant is retroactively invalidated
   (invalidated exactly once per decide, even across a second heal). *)
let offline_conflict_artifacts () =
  let s = make_osut () in
  let trace = "conflict-artifacts" in
  seed_osut s trace;
  List.iter (run_oop s trace)
    [
      OPartition 1;
      (* alpha alone *)
      ORevoke (1, 0);
      (* beta revokes user0 (doctor) *)
      ODecide (0, 0, 0);
      (* alpha, unaware, still permits user0: logged offline *)
      OGrant (0, 2, 0);
      (* alpha grants user2 doctor ... *)
      ORevoke (1, 2);
      (* ... concurrently with beta's revoke: the deny-wins race *)
      OHeal;
    ];
  let stats = O.stats s.reps.(0) in
  Alcotest.(check bool) "offline permit retroactively invalidated" true (stats.O.invalidations >= 1);
  let conflicts = O.conflicts s.reps.(0) in
  Alcotest.(check bool) "concurrent grant||revoke surfaced as conflict" true
    (List.exists (fun c -> c.O.c_subject = user_name 2) conflicts);
  Array.iter
    (fun o -> Alcotest.(check int) "same conflicts everywhere" (List.length conflicts) (List.length (O.conflicts o)))
    s.reps;
  let invalidated_before = stats.O.invalidations in
  run_oop s trace OHeal;
  Alcotest.(check int) "second heal does not refire invalidations" invalidated_before
    (O.stats s.reps.(0)).O.invalidations

let () =
  Alcotest.run "dacs_model"
    [
      ( "model-based",
        [
          QCheck_alcotest.to_alcotest model_test;
          directed "revocation kills cached grant"
            [ Decide (0, 0); Revoke 0; Decide (0, 0) ];
          directed "publish flips cached decision"
            [ Decide (1, 0); Publish 1; Decide (1, 0); Publish 2; Decide (1, 0) ];
          directed "grant after revoke"
            [ Revoke 2; Decide (2, 0); Grant (2, 0); Decide (2, 0) ];
          directed "crashed shard misses the push, repaired on rejoin"
            [ Decide (0, 0); Crash 1; Revoke 0; Decide (0, 0); Recover 1; Decide (0, 0) ];
          directed "both shards down fails closed"
            [ Crash 0; Crash 1; Decide (3, 1); Recover 0; Decide (3, 1) ];
          (* QCHECK_SEED=390704177, shrunk: the timeouts open both
             breakers, and the sweep after recovery waits out the cooldown. *)
          directed "sweep waits out the breaker cooldown"
            [
              Crash 1; Crash 0; Decide (0, 0); Decide (0, 0); Decide (0, 0); Decide (0, 0); Publish 0;
              Decide (0, 0);
            ];
          (* QCHECK_SEED=903393976, shrunk: the timeouts open pdp0's
             breaker, and right after its recovery the tier still skips it
             while pdp1 is down, so the decision fails closed. *)
          directed "recovered shard skipped inside its window"
            [
              Crash 1; Crash 0; Publish 0; Decide (0, 0); Publish 0; Decide (0, 0); Decide (0, 0); Publish 0;
              Publish 0; Decide_during_publish (0, 0, 0); Decide_during_publish (0, 0, 0); Recover 0;
              Decide_during_publish (0, 0, 0);
            ];
          directed "coalesced pair across a publish"
            [ Decide_pair (1, 0); Publish 3; Decide_pair (1, 0) ];
          directed "decide racing a publish"
            [ Decide (0, 1); Decide_during_publish (0, 1, 1); Decide (0, 1) ];
          directed "targeted publish flips cached decision"
            [ Decide (1, 0); Publish_delta 1; Decide (1, 0); Publish_delta 2; Decide (1, 0) ];
          directed "targeted publish interleaved with crash and revocation"
            [
              Decide (0, 0); Crash 1; Publish_delta 3; Decide (0, 0); Revoke 0;
              Decide (0, 0); Recover 1; Publish_delta 4; Decide (0, 0);
            ];
          Alcotest.test_case "out-of-region publish retains the cache" `Quick
            publish_delta_retention;
        ] );
      ( "offline-convergence",
        [
          QCheck_alcotest.to_alcotest convergence_test;
          directed_offline "revoke during partition defeats offline grant"
            [
              OPartition 1;
              OGrant (0, 0, 2);
              ORevoke (1, 0);
              ODecide (0, 0, 0);
              ODecide (1, 0, 0);
              OHeal;
              ODecide (0, 0, 0);
            ];
          directed_offline "double heal is idempotent"
            [ OPartition 1; OGrant (0, 1, 0); ORevoke (2, 1); OHeal; OHeal; ODecide (2, 1, 0) ];
          directed_offline "grant then offline revoke race"
            [
              OPartition 1;
              ORevoke (0, 1);
              OGrant (1, 1, 0);
              ODecide (1, 1, 0);
              OHeal;
              ODecide (0, 1, 0);
              ODecide (1, 1, 0);
            ];
          directed_offline "publish races across partition: last in total order wins"
            [ OPartition 1; OPublish (0, 1); OPublish (1, 2); OHeal; ODecide (2, 0, 0) ];
          directed_offline "sync inside a component does not leak across the cut"
            [ OPartition 1; OGrant (1, 3, 1); OSync; ODecide (0, 3, 0); OHeal ];
          Alcotest.test_case "conflict + retroactive invalidation artifacts" `Quick
            offline_conflict_artifacts;
        ] );
    ]
