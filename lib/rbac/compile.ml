open Dacs_policy

(* Roles that grant a permission = roles holding it directly, plus all
   their seniors (who inherit it). *)
let granting_roles model perm =
  List.filter
    (fun role -> List.mem perm (Rbac.role_permissions model role))
    (Rbac.roles model)

let all_permissions model =
  List.concat_map (fun role -> Rbac.role_permissions model role) (Rbac.roles model)
  |> List.sort_uniq compare

let perm_target (perm : Rbac.permission) =
  Target.(any |> resource_is "resource-id" perm.Rbac.resource |> action_is "action-id" perm.Rbac.action)

let to_policy ?(id = "rbac") model =
  let rules =
    List.concat_map
      (fun perm ->
        match granting_roles model perm with
        | [] -> []
        | roles ->
          [
            Rule.permit
              ~description:
                (Printf.sprintf "roles may %s %s" perm.Rbac.action perm.Rbac.resource)
              ~target:(perm_target perm)
              ~condition:(Expr.one_of (Expr.subject_attr "role") roles)
              (Printf.sprintf "permit-%s-%s" perm.Rbac.action perm.Rbac.resource);
          ])
      (all_permissions model)
  in
  Policy.make ~id ~description:"compiled from RBAC (role-based)"
    ~rule_combining:Combine.First_applicable
    (rules @ [ Rule.deny "default-deny" ])

let to_identity_policy model =
  let rules =
    List.concat_map
      (fun user ->
        List.map
          (fun (perm : Rbac.permission) ->
            Rule.permit
              ~target:
                Target.(
                  any
                  |> subject_is "subject-id" user
                  |> resource_is "resource-id" perm.Rbac.resource
                  |> action_is "action-id" perm.Rbac.action)
              (Printf.sprintf "permit-%s-%s-%s" user perm.Rbac.action perm.Rbac.resource))
          (Rbac.user_permissions model user))
      (Rbac.users model)
  in
  Policy.make ~id:"rbac-acl" ~description:"compiled from RBAC (identity-based ACL)"
    ~rule_combining:Combine.First_applicable
    (rules @ [ Rule.deny "default-deny" ])

let subject_for_user model user =
  ("subject-id", Value.String user)
  :: List.map (fun role -> ("role", Value.String role)) (Rbac.authorized_roles model user)
