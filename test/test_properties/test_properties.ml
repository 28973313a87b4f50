(* Cross-cutting property tests: cache temporal invariants, simulator
   timing, delegation monotonicity, negotiation invariants, conflict
   detector completeness over an enumerable request space, and crypto
   round-trips on random data. *)

module Value = Dacs_policy.Value
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Target = Dacs_policy.Target
module Combine = Dacs_policy.Combine
module Net = Dacs_net.Net
module Engine = Dacs_net.Engine
open Dacs_core

(* --- decision cache: TTL and capacity invariants ------------------------- *)

(* A random schedule of puts, gets and time advances: a get must never
   return a value stored more than TTL ago, and size stays bounded. *)
let prop_cache_ttl_and_capacity =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          (3, map (fun k -> `Put (Printf.sprintf "k%d" k)) (0 -- 5));
          (3, map (fun k -> `Get (Printf.sprintf "k%d" k)) (0 -- 5));
          (2, map (fun dt -> `Advance (float_of_int dt)) (1 -- 20));
        ])
  in
  Test.make ~name:"cache: TTL respected and capacity bounded" ~count:300
    (make
       ~print:(fun ops -> string_of_int (List.length ops))
       Gen.(list_size (1 -- 60) op))
    (fun ops ->
      let ttl = 10.0 and max_entries = 3 in
      let cache = Decision_cache.create ~max_entries ~ttl () in
      let clock = ref 0.0 in
      let stored_at : (string, float) Hashtbl.t = Hashtbl.create 8 in
      List.for_all
        (fun op ->
          match op with
          | `Put key ->
            Decision_cache.put cache ~now:!clock ~key Decision.permit;
            Hashtbl.replace stored_at key !clock;
            Decision_cache.size cache <= max_entries
          | `Advance dt ->
            clock := !clock +. dt;
            true
          | `Get key -> (
            match Decision_cache.get cache ~now:!clock ~key with
            | None -> true
            | Some _ -> (
              (* Whatever is returned must have been stored within TTL. *)
              match Hashtbl.find_opt stored_at key with
              | Some at -> !clock < at +. ttl
              | None -> false)))
        ops)

(* --- simulator: exact delivery timing ------------------------------------- *)

let prop_net_delivery_timing =
  let open QCheck in
  Test.make ~name:"net: delivery time = send time + link latency" ~count:200
    (make
       ~print:(fun l -> string_of_int (List.length l))
       Gen.(list_size (1 -- 20) (pair (0 -- 100) (1 -- 50))))
    (fun sends ->
      let net = Net.create () in
      Net.add_node net "a";
      Net.add_node net "b";
      let latency = 0.25 in
      Net.set_latency net "a" "b" latency;
      let ok = ref true in
      (* Each payload carries the instant it was sent. *)
      Net.set_handler net "b" (fun m ->
          let expected = float_of_string m.Net.payload +. latency in
          if abs_float (Net.now net -. expected) > 1e-9 then ok := false);
      List.iter
        (fun (at, _size) ->
          Engine.schedule (Net.engine net) ~delay:(float_of_int at) (fun () ->
              Net.send net ~src:"a" ~dst:"b" ~category:"t" (Printf.sprintf "%h" (Net.now net))))
        sends;
      Net.run net;
      !ok)

let prop_net_conservation =
  (* sent = delivered + dropped, under random loss. *)
  let open QCheck in
  Test.make ~name:"net: sent = delivered + dropped" ~count:100
    (pair (make ~print:string_of_float Gen.(map (fun i -> float_of_int i /. 10.0) (0 -- 10))) small_nat)
    (fun (drop_rate, n) ->
      let n = min n 50 in
      let net = Net.create () in
      Net.add_node net "a";
      Net.add_node net "b";
      Net.set_handler net "b" ignore;
      Net.set_drop_rate net drop_rate;
      for _ = 1 to n do
        Net.send net ~src:"a" ~dst:"b" ~category:"t" "x"
      done;
      Net.run net;
      (Net.total_sent net).Net.count = (Net.total_delivered net).Net.count + Net.dropped_count net)

(* --- delegation: revocation monotonicity ------------------------------------ *)

let prop_delegation_revocation_monotone =
  let open QCheck in
  let authorities = [ "root"; "a"; "b"; "c"; "d" ] in
  let gen =
    Gen.(
      list_size (1 -- 12)
        (triple (oneofl authorities) (oneofl [ "a"; "b"; "c"; "d" ]) bool))
  in
  Test.make ~name:"delegation: revoking a grant never adds authority" ~count:200
    (make ~print:(fun l -> string_of_int (List.length l)) gen)
    (fun grant_specs ->
      let d = Delegation.create ~roots:[ "root" ] in
      let grants =
        List.filter_map
          (fun (delegator, delegate, redelegate) ->
            match
              Delegation.grant d ~can_redelegate:redelegate ~delegator ~delegate ~scope:""
                ~now:0.0 ~expires:100.0 ()
            with
            | Ok g -> Some g
            | Error _ -> None)
          grant_specs
      in
      match grants with
      | [] -> true
      | g :: _ ->
        let before =
          List.filter
            (fun i -> Delegation.authority_for d ~issuer:i ~resource:"x" ~now:1.0)
            authorities
        in
        ignore (Delegation.revoke d ~grant_id:g.Delegation.id);
        let after =
          List.filter
            (fun i -> Delegation.authority_for d ~issuer:i ~resource:"x" ~now:1.0)
            authorities
        in
        List.for_all (fun i -> List.mem i before) after)

(* --- negotiation invariants ---------------------------------------------------- *)

let gen_party prefix other =
  QCheck.Gen.(
    list_size (1 -- 5) (pair (0 -- 4) (opt (0 -- 4))) >|= fun specs ->
    List.mapi
      (fun i (_, lock) ->
        let name = Printf.sprintf "%s%d" prefix i in
        match lock with
        | None -> Negotiation.unprotected name
        | Some j -> Negotiation.protected_by name [ Printf.sprintf "%s%d" other j ])
      specs)

let prop_negotiation_invariants =
  let open QCheck in
  let gen =
    Gen.(
      pair (gen_party "c" "s") (gen_party "s" "c") >>= fun (client, server) ->
      (0 -- 4) >|= fun target_idx ->
      (client, server, [ [ Printf.sprintf "c%d" target_idx ] ]))
  in
  Test.make ~name:"negotiation: disclosures are owned; success iff target met" ~count:300
    (make ~print:(fun _ -> "parties") gen)
    (fun (client_creds, server_creds, target) ->
      let client = { Negotiation.party_name = "c"; credentials = client_creds } in
      let server = { Negotiation.party_name = "s"; credentials = server_creds } in
      let o = Negotiation.negotiate ~client ~server ~target in
      let owned creds names =
        List.for_all
          (fun n -> List.exists (fun c -> c.Negotiation.name = n) creds)
          names
      in
      owned client_creds o.Negotiation.disclosed_by_client
      && owned server_creds o.Negotiation.disclosed_by_server
      && o.Negotiation.success = Negotiation.satisfied target o.Negotiation.disclosed_by_client
      && o.Negotiation.rounds <= 21)

(* --- conflict detector completeness over an enumerable space ------------------- *)

(* Over targets drawn from small role/resource/action domains, every
   (request, permit-from-A, deny-from-B) witness must be flagged as a
   conflict between the two policies. *)
let roles = [ "r1"; "r2" ]
let resources = [ "x"; "y" ]
let actions = [ "read"; "write" ]

let gen_simple_rule effect_gen =
  QCheck.Gen.(
    effect_gen >>= fun effect ->
    opt (oneofl roles) >>= fun role ->
    opt (oneofl resources) >>= fun resource ->
    opt (oneofl actions) >|= fun action ->
    let target =
      Target.any
      |> (fun t -> match role with Some r -> Target.subject_is "role" r t | None -> t)
      |> (fun t -> match resource with Some r -> Target.resource_is "resource-id" r t | None -> t)
      |> fun t -> match action with Some a -> Target.action_is "action-id" a t | None -> t
    in
    (effect, target))

let all_requests =
  List.concat_map
    (fun role ->
      List.concat_map
        (fun resource ->
          List.map
            (fun action ->
              Context.make
                ~subject:[ ("subject-id", Value.String "u"); ("role", Value.String role) ]
                ~resource:[ ("resource-id", Value.String resource) ]
                ~action:[ ("action-id", Value.String action) ]
                ())
            actions)
        resources)
    roles

let prop_conflict_detector_complete =
  let open QCheck in
  let gen =
    Gen.(
      pair
        (list_size (1 -- 4) (gen_simple_rule (return Rule.Permit)))
        (list_size (1 -- 4) (gen_simple_rule (return Rule.Deny))))
  in
  Test.make ~name:"conflict detector finds every observable permit/deny overlap" ~count:300
    (make ~print:(fun _ -> "policies") gen)
    (fun (permit_rules, deny_rules) ->
      let mk_policy id mk rules =
        Policy.make ~id ~issuer:id ~rule_combining:Combine.Permit_overrides
          (List.mapi (fun i (_, target) -> mk ~target (Printf.sprintf "%s-%d" id i)) rules)
      in
      let pa = mk_policy "pa" (fun ~target id -> Rule.permit ~target id) permit_rules in
      let pb = mk_policy "pb" (fun ~target id -> Rule.deny ~target id) deny_rules in
      let observable_overlap =
        List.exists
          (fun ctx ->
            (Policy.evaluate ctx pa).Decision.decision = Decision.Permit
            && (Policy.evaluate ctx { pb with Policy.rule_combining = Combine.Deny_overrides })
                 .Decision.decision
               = Decision.Deny)
          all_requests
      in
      let detected = Conflict.find_between pa pb <> [] in
      (* Completeness: observable overlap implies detection.  (The detector
         may over-approximate — e.g. environment subtleties — so the
         converse is not required.) *)
      (not observable_overlap) || detected)

(* Random rule pairs whose targets (rule and policy) mix string-equal
   and string-starts-with matches, reuse attribute names across
   categories and put matches outside their section's category, against
   random single-valued requests: whenever one request makes all four
   targets Match, the analysis must report the pair. *)
let prop_conflict_reports_reachable_pairs =
  let open QCheck in
  let categories = [| Context.Subject; Context.Resource; Context.Action |] in
  let attrs = [| "id"; "role" |] in
  let values = [| "a"; "ab"; "b" |] in
  let gen_match =
    Gen.(
      map
        (fun (c, a, v, equal) ->
          Target.make_match
            ~fn:(if equal then "string-equal" else "string-starts-with")
            ~value:(Value.String values.(v)) ~category:categories.(c) ~attribute_id:attrs.(a))
        (quad (int_bound 2) (int_bound 1) (int_bound 2) bool))
  in
  let gen_section =
    Gen.(frequency [ (3, return []); (1, list_size (1 -- 2) (list_size (1 -- 2) gen_match)) ])
  in
  let gen_target =
    Gen.(
      map
        (fun (subjects, resources, actions) -> { Target.any with subjects; resources; actions })
        (triple gen_section gen_section gen_section))
  in
  (* One optional value per (category, attribute) position. *)
  let gen_ctx =
    Gen.(
      map
        (fun picks ->
          List.fold_left
            (fun (ctx, i) pick ->
              let ctx =
                match pick with
                | None -> ctx
                | Some v ->
                  Context.add ctx categories.(i / 2) attrs.(i mod 2) (Value.String values.(v))
              in
              (ctx, i + 1))
            (Context.empty, 0) picks
          |> fst)
        (list_repeat 6 (opt (int_bound 2))))
  in
  let print ((ppa, ra, ppb, rb), ctx) =
    Format.asprintf "permit %a / %a; deny %a / %a; request %s" Target.pp ppa Target.pp ra
      Target.pp ppb Target.pp rb
      (let buf = Buffer.create 256 in
       Context.write buf ctx;
       Buffer.contents buf)
  in
  Test.make ~name:"conflict analysis reports every pair one request reaches" ~count:1000
    (make ~print Gen.(pair (quad gen_target gen_target gen_target gen_target) gen_ctx))
    (fun ((ppa, ra, ppb, rb), ctx) ->
      let pa = { (Policy.make ~id:"pa" [ Rule.permit ~target:ra "permit" ]) with Policy.target = ppa } in
      let pb = { (Policy.make ~id:"pb" [ Rule.deny ~target:rb "deny" ]) with Policy.target = ppb } in
      let reached =
        List.for_all (fun t -> Target.evaluate ctx t = Target.Match) [ ppa; ra; ppb; rb ]
      in
      (not reached) || List.length (Conflict.find_between pa pb) = 1)

(* --- crypto round-trips on random data -------------------------------------------- *)

let shared_keypair = lazy (Dacs_crypto.Rsa.generate (Dacs_crypto.Rng.create 2025L) ~bits:512)

let prop_rsa_sign_verify_random =
  QCheck.Test.make ~name:"rsa: sign/verify on random messages" ~count:50 QCheck.string (fun msg ->
      let kp = Lazy.force shared_keypair in
      let signature = Dacs_crypto.Rsa.sign kp.Dacs_crypto.Rsa.private_ msg in
      Dacs_crypto.Rsa.verify kp.Dacs_crypto.Rsa.public msg ~signature
      && not (Dacs_crypto.Rsa.verify kp.Dacs_crypto.Rsa.public (msg ^ "!") ~signature))

let prop_stream_cipher_roundtrip_random =
  QCheck.Test.make ~name:"stream cipher: roundtrip on random data" ~count:200 QCheck.string
    (fun plain ->
      let rng = Dacs_crypto.Rng.create 9L in
      let key = Dacs_crypto.Stream_cipher.derive_key "k" in
      Dacs_crypto.Stream_cipher.decrypt ~key (Dacs_crypto.Stream_cipher.encrypt rng ~key plain)
      = Some plain)

let prop_assertion_roundtrip_random =
  (* Assertions with random subjects and attribute strings survive XML and
     keep verifying. *)
  QCheck.Test.make ~name:"assertion: XML roundtrip preserves signature" ~count:50
    QCheck.(pair (string_of_size (QCheck.Gen.return 8)) printable_string)
    (fun (subject, attr_value) ->
      let kp = Lazy.force shared_keypair in
      let a =
        Dacs_saml.Assertion.sign kp.Dacs_crypto.Rsa.private_
          (Dacs_saml.Assertion.make ~id:"a" ~issuer:"i" ~subject ~issued_at:0.0
             [ Dacs_saml.Assertion.Attribute_statement [ ("x", Value.String attr_value) ] ])
      in
      match Dacs_saml.Assertion.of_xml (Dacs_xml.Xml.of_string (Dacs_saml.Assertion.to_string a)) with
      | Ok a' -> Dacs_saml.Assertion.verify kp.Dacs_crypto.Rsa.public a'
      | Error _ -> false)

let () =
  Alcotest.run "dacs_properties"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_cache_ttl_and_capacity;
            prop_net_delivery_timing;
            prop_net_conservation;
            prop_delegation_revocation_monotone;
            prop_negotiation_invariants;
            prop_conflict_detector_complete;
            prop_conflict_reports_reachable_pairs;
            prop_rsa_sign_verify_random;
            prop_stream_cipher_roundtrip_random;
            prop_assertion_roundtrip_random;
          ] );
    ]
