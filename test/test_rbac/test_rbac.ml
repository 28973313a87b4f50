(* Tests for dacs_rbac: hierarchy, assignment, SoD, compilation. *)

open Dacs_rbac

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_list = Alcotest.(list string)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let expect_error = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error (_ : string) -> ()

(* A small hospital model used across tests:
   physician > doctor > clinician (seniority), pharmacist separate. *)
let hospital () =
  let m = Rbac.empty in
  let m = List.fold_left Rbac.add_role m [ "clinician"; "doctor"; "physician"; "pharmacist"; "auditor" ] in
  let m = ok (Rbac.add_inheritance m ~senior:"doctor" ~junior:"clinician") in
  let m = ok (Rbac.add_inheritance m ~senior:"physician" ~junior:"doctor") in
  let m = ok (Rbac.grant_permission m "clinician" { Rbac.action = "read"; resource = "charts" }) in
  let m = ok (Rbac.grant_permission m "doctor" { Rbac.action = "write"; resource = "charts" }) in
  let m = ok (Rbac.grant_permission m "physician" { Rbac.action = "sign"; resource = "orders" }) in
  let m = ok (Rbac.grant_permission m "pharmacist" { Rbac.action = "dispense"; resource = "drugs" }) in
  m

let test_roles_basic () =
  let m = hospital () in
  check int_ "role count" 5 (List.length (Rbac.roles m));
  check bool_ "has role" true (List.mem "doctor" (Rbac.roles m));
  check bool_ "idempotent add" true (List.length (Rbac.roles (Rbac.add_role m "doctor")) = 5)

let test_hierarchy () =
  let m = hospital () in
  check string_list "physician juniors" [ "clinician"; "doctor" ] (List.sort compare (Rbac.juniors m "physician"));
  check string_list "leaf juniors" [] (Rbac.juniors m "pharmacist")

let test_hierarchy_errors () =
  let m = hospital () in
  expect_error (Rbac.add_inheritance m ~senior:"nope" ~junior:"doctor");
  expect_error (Rbac.add_inheritance m ~senior:"doctor" ~junior:"doctor");
  (* clinician -> physician would close a cycle *)
  expect_error (Rbac.add_inheritance m ~senior:"clinician" ~junior:"physician")

let test_assignment_and_permissions () =
  let m = hospital () in
  let m = ok (Rbac.assign_user m "alice" "physician") in
  let m = ok (Rbac.assign_user m "bob" "clinician") in
  check string_list "alice authorized" [ "clinician"; "doctor"; "physician" ]
    (Rbac.authorized_roles m "alice");
  check bool_ "alice inherits read" true (Rbac.check_access m "alice" ~action:"read" ~resource:"charts");
  check bool_ "alice signs" true (Rbac.check_access m "alice" ~action:"sign" ~resource:"orders");
  check bool_ "bob reads" true (Rbac.check_access m "bob" ~action:"read" ~resource:"charts");
  check bool_ "bob cannot write" false (Rbac.check_access m "bob" ~action:"write" ~resource:"charts");
  check int_ "alice permission count" 3 (List.length (Rbac.user_permissions m "alice"))

let test_ssd () =
  let m = hospital () in
  let m = ok (Rbac.add_ssd m ~name:"prescriber-dispenser" ~roles:[ "doctor"; "pharmacist" ] ~cardinality:2) in
  let m = ok (Rbac.assign_user m "carol" "doctor") in
  (* Direct conflict *)
  (match Rbac.assign_user m "carol" "pharmacist" with
  | Error e ->
    check Alcotest.string "violation named"
      "assignment violates separation-of-duty constraint prescriber-dispenser" e
  | Ok _ -> Alcotest.fail "expected an SSD violation");
  (* Inherited conflict: physician inherits doctor. *)
  let m2 = ok (Rbac.assign_user m "dave" "pharmacist") in
  expect_error (Rbac.assign_user m2 "dave" "physician");
  (* Unrelated role fine. *)
  ignore (ok (Rbac.assign_user m "carol" "auditor"))

let test_ssd_retroactive () =
  let m = hospital () in
  let m = ok (Rbac.assign_user m "eve" "doctor") in
  let m = ok (Rbac.assign_user m "eve" "pharmacist") in
  (* Constraint creation must fail because eve already violates it. *)
  expect_error (Rbac.add_ssd m ~name:"c" ~roles:[ "doctor"; "pharmacist" ] ~cardinality:2)

let test_ssd_parameter_validation () =
  let m = hospital () in
  expect_error (Rbac.add_ssd m ~name:"c" ~roles:[ "doctor"; "pharmacist" ] ~cardinality:1);
  expect_error (Rbac.add_ssd m ~name:"c" ~roles:[ "doctor" ] ~cardinality:2);
  expect_error (Rbac.add_ssd m ~name:"c" ~roles:[ "doctor"; "ghost" ] ~cardinality:2)

let perms ps = List.sort compare (List.map (fun p -> p.Rbac.action ^ " " ^ p.Rbac.resource) ps)

let test_direct_and_inherited_permissions () =
  let m = hospital () in
  check string_list "doctor's with inherited" [ "read charts"; "write charts" ]
    (perms (Rbac.role_permissions m "doctor"));
  check string_list "physician's with inherited" [ "read charts"; "sign orders"; "write charts" ]
    (perms (Rbac.role_permissions m "physician"));
  check string_list "unrelated role inherits nothing" [ "dispense drugs" ]
    (perms (Rbac.role_permissions m "pharmacist"))

let test_assigned_and_authorized_roles () =
  let m = hospital () in
  let m = ok (Rbac.assign_user m "alice" "doctor") in
  let m = ok (Rbac.assign_user m "alice" "doctor") in
  let m = ok (Rbac.assign_user m "alice" "auditor") in
  check string_list "authorized adds juniors" [ "auditor"; "clinician"; "doctor" ]
    (List.sort compare (Rbac.authorized_roles m "alice"));
  check string_list "users" [ "alice" ] (Rbac.users m);
  check string_list "unknown user has no roles" [] (Rbac.authorized_roles m "mallory");
  check bool_ "unknown user has no access" false (Rbac.check_access m "mallory" ~action:"read" ~resource:"charts")

let test_ssd_cardinality_three () =
  (* Cardinality 3 over three roles admits any two of them, not all three. *)
  let m = hospital () in
  let m = ok (Rbac.add_ssd m ~name:"c3" ~roles:[ "doctor"; "pharmacist"; "auditor" ] ~cardinality:3) in
  let m = ok (Rbac.assign_user m "carol" "doctor") in
  let m = ok (Rbac.assign_user m "carol" "pharmacist") in
  expect_error (Rbac.assign_user m "carol" "auditor");
  (* Inheritance counts: physician brings doctor along. *)
  let m = ok (Rbac.assign_user m "dave" "auditor") in
  let m = ok (Rbac.assign_user m "dave" "pharmacist") in
  expect_error (Rbac.assign_user m "dave" "physician")

let test_unknown_role_errors () =
  let m = hospital () in
  expect_error (Rbac.assign_user m "x" "ghost");
  expect_error (Rbac.grant_permission m "ghost" { Rbac.action = "a"; resource = "r" })

(* --- compilation -------------------------------------------------------- *)

let eval_as model user action resource policy =
  let ctx =
    Dacs_policy.Context.make
      ~subject:(Compile.subject_for_user model user)
      ~resource:[ ("resource-id", Dacs_policy.Value.String resource) ]
      ~action:[ ("action-id", Dacs_policy.Value.String action) ]
      ()
  in
  (Dacs_policy.Policy.evaluate ctx policy).Dacs_policy.Decision.decision

let test_compile_role_based () =
  let m = hospital () in
  let m = ok (Rbac.assign_user m "alice" "physician") in
  let m = ok (Rbac.assign_user m "bob" "clinician") in
  let policy = Compile.to_policy m in
  check bool_ "validates" true (Dacs_policy.Validate.check_child (Dacs_policy.Policy.Inline_policy policy) = []);
  check bool_ "alice writes" true (eval_as m "alice" "write" "charts" policy = Dacs_policy.Decision.Permit);
  check bool_ "bob denied write" true (eval_as m "bob" "write" "charts" policy = Dacs_policy.Decision.Deny);
  check bool_ "bob reads" true (eval_as m "bob" "read" "charts" policy = Dacs_policy.Decision.Permit);
  check bool_ "unknown denied" true (eval_as m "mallory" "read" "charts" policy = Dacs_policy.Decision.Deny)

let test_compile_identity_based () =
  let m = hospital () in
  let m = ok (Rbac.assign_user m "alice" "physician") in
  let m = ok (Rbac.assign_user m "bob" "clinician") in
  let policy = Compile.to_identity_policy m in
  check bool_ "alice writes" true (eval_as m "alice" "write" "charts" policy = Dacs_policy.Decision.Permit);
  check bool_ "bob denied write" true (eval_as m "bob" "write" "charts" policy = Dacs_policy.Decision.Deny);
  check bool_ "agrees with model" true
    (List.for_all
       (fun (user, action, resource) ->
         let model_says = Rbac.check_access m user ~action ~resource in
         let policy_says = eval_as m user action resource policy = Dacs_policy.Decision.Permit in
         model_says = policy_says)
       [
         ("alice", "read", "charts"); ("alice", "sign", "orders"); ("bob", "read", "charts");
         ("bob", "sign", "orders"); ("mallory", "read", "charts");
       ])

let test_compile_scaling_shape () =
  (* Identity-based policies grow with users; role-based stay fixed. *)
  let base = hospital () in
  let with_users n =
    let rec go m i =
      if i >= n then m else go (ok (Rbac.assign_user m (Printf.sprintf "u%d" i) "clinician")) (i + 1)
    in
    go base 0
  in
  let small = with_users 5 and large = with_users 50 in
  check bool_ "role-based size constant" true
    (Dacs_policy.Policy.rule_count (Compile.to_policy small)
    = Dacs_policy.Policy.rule_count (Compile.to_policy large));
  check bool_ "identity-based grows" true
    (Dacs_policy.Policy.rule_count (Compile.to_identity_policy large)
    > 5 * Dacs_policy.Policy.rule_count (Compile.to_identity_policy small) / 2)

(* --- property tests -------------------------------------------------------- *)

(* Generate random models and check model/compiled-policy agreement. *)
let gen_model =
  QCheck.Gen.(
    let role_names = [ "r0"; "r1"; "r2"; "r3"; "r4" ] in
    let user_names = [ "u0"; "u1"; "u2" ] in
    let perm = map2 (fun a r -> { Rbac.action = Printf.sprintf "a%d" a; resource = Printf.sprintf "res%d" r }) (0 -- 2) (0 -- 2) in
    let m0 = List.fold_left Rbac.add_role Rbac.empty role_names in
    list_size (0 -- 6) (pair (oneofl role_names) (oneofl role_names)) >>= fun edges ->
    list_size (0 -- 8) (pair (oneofl role_names) perm) >>= fun grants ->
    list_size (0 -- 5) (pair (oneofl user_names) (oneofl role_names)) >>= fun assigns ->
    let m =
      List.fold_left
        (fun m (senior, junior) ->
          match Rbac.add_inheritance m ~senior ~junior with Ok m -> m | Error _ -> m)
        m0 edges
    in
    let m =
      List.fold_left
        (fun m (role, p) -> match Rbac.grant_permission m role p with Ok m -> m | Error _ -> m)
        m grants
    in
    let m =
      List.fold_left
        (fun m (u, r) -> match Rbac.assign_user m u r with Ok m -> m | Error _ -> m)
        m assigns
    in
    return m)

let arb_model =
  QCheck.make
    ~print:(fun m ->
      Printf.sprintf "rbac: roles [%s], users [%s]" (String.concat " " (Rbac.roles m))
        (String.concat " " (Rbac.users m)))
    gen_model

let prop_compiled_agrees =
  QCheck.Test.make ~name:"compiled policy agrees with the model" ~count:100 arb_model (fun m ->
      let policy = Compile.to_policy m in
      List.for_all
        (fun user ->
          List.for_all
            (fun a ->
              List.for_all
                (fun r ->
                  let action = Printf.sprintf "a%d" a and resource = Printf.sprintf "res%d" r in
                  let model_says = Rbac.check_access m user ~action ~resource in
                  let policy_says =
                    eval_as m user action resource policy = Dacs_policy.Decision.Permit
                  in
                  model_says = policy_says)
                [ 0; 1; 2 ])
            [ 0; 1; 2 ])
        (Rbac.users m))

let prop_hierarchy_acyclic =
  QCheck.Test.make ~name:"no role is its own junior" ~count:100 arb_model (fun m ->
      List.for_all (fun r -> not (List.mem r (Rbac.juniors m r))) (Rbac.roles m))

let prop_juniors_transitive =
  QCheck.Test.make ~name:"juniors are transitive" ~count:100 arb_model (fun m ->
      List.for_all
        (fun r ->
          let js = Rbac.juniors m r in
          List.for_all (fun j -> List.for_all (fun k -> List.mem k js) (Rbac.juniors m j)) js)
        (Rbac.roles m))

let prop_user_permissions_union =
  QCheck.Test.make ~name:"a user holds the permissions of the authorised roles" ~count:100 arb_model
    (fun m ->
      List.for_all
        (fun user ->
          let held = List.sort_uniq compare (Rbac.user_permissions m user) in
          held
          = List.sort_uniq compare (List.concat_map (Rbac.role_permissions m) (Rbac.authorized_roles m user))
          && List.for_all
               (fun (p : Rbac.permission) -> Rbac.check_access m user ~action:p.action ~resource:p.resource)
               held)
        (Rbac.users m))

let prop_ssd_holds =
  (* Once a constraint is accepted, no later assignment lets a user be
     authorised for [cardinality] of its roles. *)
  let roles = [ "r0"; "r1"; "r2"; "r3"; "r4" ] in
  let gen =
    QCheck.Gen.(
      triple gen_model
        (pair (2 -- 3) (list_size (2 -- 4) (oneofl roles)))
        (list_size (0 -- 8) (pair (oneofl [ "u0"; "u1"; "u2"; "u3" ]) (oneofl roles))))
  in
  QCheck.Test.make ~name:"an accepted SSD holds for every user" ~count:200 (QCheck.make gen)
    (fun (m, (cardinality, ssd_roles), assigns) ->
      let ssd_roles = List.sort_uniq compare ssd_roles in
      match Rbac.add_ssd m ~name:"c" ~roles:ssd_roles ~cardinality with
      | Error _ -> true
      | Ok m ->
        let m =
          List.fold_left
            (fun m (u, r) -> match Rbac.assign_user m u r with Ok m -> m | Error _ -> m)
            m assigns
        in
        List.for_all
          (fun u ->
            List.length (List.filter (fun r -> List.mem r ssd_roles) (Rbac.authorized_roles m u))
            < cardinality)
          (Rbac.users m))

(* --- textual format ----------------------------------------------------------- *)

let sample_text =
  "# hospital\n\
   role nurse\n\
   role doctor\n\
   role billing\n\
   inherit doctor nurse\n\
   grant nurse read vitals\n\
   grant doctor write charts\n\
   user alice doctor   # chief\n\
   user bob billing\n\
   ssd care-vs-billing 2 doctor billing\n"

let test_textual_parse () =
  match Textual.parse sample_text with
  | Error e -> Alcotest.fail e
  | Ok m ->
    check int_ "roles" 3 (List.length (Rbac.roles m));
    check bool_ "inheritance" true (List.mem "nurse" (Rbac.juniors m "doctor"));
    check bool_ "alice inherits read" true (Rbac.check_access m "alice" ~action:"read" ~resource:"vitals");
    check bool_ "ssd enforced" true (Result.is_error (Rbac.assign_user m "alice" "billing"))

let test_textual_errors () =
  let bad text expected_line =
    match Textual.parse text with
    | Ok _ -> Alcotest.fail "expected a parse error"
    | Error e ->
      check bool_ "line number in message" true
        (let prefix = Printf.sprintf "line %d:" expected_line in
         String.length e >= String.length prefix && String.sub e 0 (String.length prefix) = prefix)
  in
  bad "role a\nfrobnicate b\n" 2;
  bad "inherit a b\n" 1;              (* unknown roles *)
  bad "role a\nssd c x a\n" 2;       (* non-integer cardinality *)
  bad "grant ghost read r\n" 1

(* Each directive as a line of text and as the builder call it stands
   for: parsing a document must give what folding the calls gives, or
   fail at the first failing call's line with that call's message. *)
let gen_directive =
  QCheck.Gen.(
    let role = oneofl [ "r0"; "r1"; "r2"; "r3" ] and user = oneofl [ "u0"; "u1" ] in
    let apply_role r m = Ok (Rbac.add_role m r) in
    frequency
      [
        (4, map (fun r -> (Printf.sprintf "role %s" r, apply_role r)) role);
        ( 2,
          map2
            (fun senior junior ->
              (Printf.sprintf "inherit %s %s" senior junior, fun m -> Rbac.add_inheritance m ~senior ~junior))
            role role );
        ( 2,
          map3
            (fun r action resource ->
              ( Printf.sprintf "grant %s %s %s" r action resource,
                fun m -> Rbac.grant_permission m r { Rbac.action; resource } ))
            role (oneofl [ "read"; "write" ]) (oneofl [ "x"; "y" ]) );
        (2, map2 (fun u r -> (Printf.sprintf "user %s %s  # note" u r, fun m -> Rbac.assign_user m u r)) user role);
        ( 1,
          map2
            (fun cardinality roles ->
              ( Printf.sprintf "ssd c %d %s" cardinality (String.concat " " roles),
                fun m -> Rbac.add_ssd m ~name:"c" ~roles ~cardinality ))
            (1 -- 3) (list_size (1 -- 3) role) );
      ])

let same_model a b =
  let sorted l = List.sort compare l in
  Rbac.roles a = Rbac.roles b
  && Rbac.users a = Rbac.users b
  && List.for_all
       (fun r ->
         sorted (Rbac.juniors a r) = sorted (Rbac.juniors b r)
         && sorted (Rbac.role_permissions a r) = sorted (Rbac.role_permissions b r))
       (Rbac.roles a)
  && List.for_all
       (fun u -> sorted (Rbac.authorized_roles a u) = sorted (Rbac.authorized_roles b u))
       (Rbac.users a)

let prop_textual_agrees =
  QCheck.Test.make ~name:"textual parse agrees with the builder" ~count:200
    (QCheck.make ~print:(fun ds -> String.concat "\n" (List.map fst ds)) QCheck.Gen.(list_size (0 -- 12) gen_directive))
    (fun directives ->
      let text = String.concat "\n" (List.map fst directives) in
      let rec build m line = function
        | [] -> Ok m
        | (_, apply) :: rest -> (
          match apply m with
          | Ok m -> build m (line + 1) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" line e))
      in
      match (Textual.parse text, build Rbac.empty 1 directives) with
      | Ok parsed, Ok built -> same_model parsed built
      | Error e, Error e' -> String.equal e e'
      | _ -> false)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_compiled_agrees;
      prop_hierarchy_acyclic;
      prop_juniors_transitive;
      prop_user_permissions_union;
      prop_ssd_holds;
      prop_textual_agrees;
    ]

let () =
  Alcotest.run "dacs_rbac"
    [
      ( "model",
        [
          Alcotest.test_case "roles" `Quick test_roles_basic;
          Alcotest.test_case "hierarchy" `Quick test_hierarchy;
          Alcotest.test_case "hierarchy errors" `Quick test_hierarchy_errors;
          Alcotest.test_case "assignment and permissions" `Quick test_assignment_and_permissions;
          Alcotest.test_case "unknown roles" `Quick test_unknown_role_errors;
          Alcotest.test_case "direct and inherited permissions" `Quick test_direct_and_inherited_permissions;
          Alcotest.test_case "assigned and authorized roles" `Quick test_assigned_and_authorized_roles;
        ] );
      ( "sod",
        [
          Alcotest.test_case "static SoD" `Quick test_ssd;
          Alcotest.test_case "retroactive SSD rejected" `Quick test_ssd_retroactive;
          Alcotest.test_case "constraint validation" `Quick test_ssd_parameter_validation;
          Alcotest.test_case "cardinality three" `Quick test_ssd_cardinality_three;
        ] );
      ( "textual",
        [
          Alcotest.test_case "parse" `Quick test_textual_parse;
          Alcotest.test_case "errors carry line numbers" `Quick test_textual_errors;
        ] );
      ( "compile",
        [
          Alcotest.test_case "role-based" `Quick test_compile_role_based;
          Alcotest.test_case "identity-based" `Quick test_compile_identity_based;
          Alcotest.test_case "scaling shape" `Quick test_compile_scaling_shape;
        ]
        @ props );
    ]
