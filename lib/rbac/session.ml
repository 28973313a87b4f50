module String_set = Set.Make (String)

type t = { user : Rbac.user; active : String_set.t }

let create _model user = { user; active = String_set.empty }

let active_roles t = String_set.elements t.active

(* Active roles plus everything they inherit: DSD must consider the
   permissions actually wielded, not just the explicitly activated names. *)
let effective model active =
  String_set.fold
    (fun r acc -> String_set.union acc (String_set.add r (String_set.of_list (Rbac.juniors model r))))
    active String_set.empty

let activate model t role =
  if not (List.mem role (Rbac.authorized_roles model t.user)) then
    Error (Printf.sprintf "%s is not authorised for role %s" t.user role)
  else begin
    let proposed = String_set.add role t.active in
    let eff = effective model proposed in
    let violated =
      List.find_opt
        (fun (_, c_roles, cardinality) ->
          let overlap = List.length (List.filter (fun r -> String_set.mem r eff) c_roles) in
          overlap >= cardinality)
        (Rbac.dsd_constraints model)
    in
    match violated with
    | Some (name, _, _) ->
      Error (Printf.sprintf "activating %s violates dynamic separation-of-duty constraint %s" role name)
    | None -> Ok { t with active = proposed }
  end

let deactivate t role = { t with active = String_set.remove role t.active }

let permissions model t =
  String_set.fold (fun r acc -> Rbac.role_permissions model r @ acc) t.active []
  |> List.sort_uniq compare

let check_access model t ~action ~resource =
  List.exists
    (fun p -> p.Rbac.action = action && p.Rbac.resource = resource)
    (permissions model t)
