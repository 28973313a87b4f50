type role = string
type user = string

type permission = { action : string; resource : string }

module String_map = Map.Make (String)
module String_set = Set.Make (String)

type constraint_ = { name : string; c_roles : String_set.t; cardinality : int }

type t = {
  role_set : String_set.t;
  inherits : String_set.t String_map.t;  (* senior -> direct juniors *)
  user_roles : String_set.t String_map.t;
  role_perms : permission list String_map.t;
  ssd : constraint_ list;
}

let empty =
  {
    role_set = String_set.empty;
    inherits = String_map.empty;
    user_roles = String_map.empty;
    role_perms = String_map.empty;
    ssd = [];
  }

let add_role t role = { t with role_set = String_set.add role t.role_set }

let roles t = String_set.elements t.role_set

let has_role t role = String_set.mem role t.role_set

let direct_juniors t role =
  Option.value (String_map.find_opt role t.inherits) ~default:String_set.empty

(* Transitive closure downward from [role], excluding the role itself. *)
let juniors_set t role =
  let rec go visited frontier =
    match frontier with
    | [] -> visited
    | r :: rest ->
      let next =
        String_set.diff (direct_juniors t r) visited |> String_set.elements
      in
      go (String_set.union visited (direct_juniors t r)) (next @ rest)
  in
  go String_set.empty [ role ]

let juniors t role = String_set.elements (juniors_set t role)

let add_inheritance t ~senior ~junior =
  if not (has_role t senior) then Error (Printf.sprintf "unknown role %s" senior)
  else if not (has_role t junior) then Error (Printf.sprintf "unknown role %s" junior)
  else if senior = junior then Error "a role cannot inherit itself"
  else if String_set.mem senior (juniors_set t junior) then
    Error (Printf.sprintf "inheritance %s -> %s would create a cycle" senior junior)
  else
    Ok
      {
        t with
        inherits =
          String_map.add senior (String_set.add junior (direct_juniors t senior)) t.inherits;
      }

let assigned_set t user =
  Option.value (String_map.find_opt user t.user_roles) ~default:String_set.empty

let authorized_set t user =
  String_set.fold
    (fun role acc -> String_set.union acc (String_set.add role (juniors_set t role)))
    (assigned_set t user) String_set.empty

let authorized_roles t user = String_set.elements (authorized_set t user)

let constraint_violated c authorized =
  String_set.cardinal (String_set.inter c.c_roles authorized) >= c.cardinality

let ssd_violation t user role =
  let would_have = String_set.add role (String_set.union (juniors_set t role) (authorized_set t user)) in
  List.find_map
    (fun c -> if constraint_violated c would_have then Some c.name else None)
    t.ssd

let assign_user t user role =
  if not (has_role t role) then Error (Printf.sprintf "unknown role %s" role)
  else
    match ssd_violation t user role with
    | Some name -> Error (Printf.sprintf "assignment violates separation-of-duty constraint %s" name)
    | None ->
      Ok { t with user_roles = String_map.add user (String_set.add role (assigned_set t user)) t.user_roles }

let grant_permission t role perm =
  if not (has_role t role) then Error (Printf.sprintf "unknown role %s" role)
  else begin
    let current = Option.value (String_map.find_opt role t.role_perms) ~default:[] in
    let perms = if List.mem perm current then current else perm :: current in
    Ok { t with role_perms = String_map.add role perms t.role_perms }
  end

let direct_permissions t role = Option.value (String_map.find_opt role t.role_perms) ~default:[]

let role_permissions t role =
  let all = String_set.add role (juniors_set t role) in
  String_set.fold (fun r acc -> direct_permissions t r @ acc) all []
  |> List.sort_uniq compare

let user_permissions t user =
  String_set.fold (fun r acc -> role_permissions t r @ acc) (assigned_set t user) []
  |> List.sort_uniq compare

let check_access t user ~action ~resource =
  List.exists (fun p -> p.action = action && p.resource = resource) (user_permissions t user)

let users t = List.map fst (String_map.bindings t.user_roles)

let make_constraint t ~name ~roles:role_list ~cardinality =
  if cardinality < 2 then Error "cardinality must be at least 2"
  else if List.length role_list < cardinality then
    Error "constraint must name at least as many roles as its cardinality"
  else if List.exists (fun r -> not (has_role t r)) role_list then Error "constraint names an unknown role"
  else Ok { name; c_roles = String_set.of_list role_list; cardinality }

let add_ssd t ~name ~roles:role_list ~cardinality =
  match make_constraint t ~name ~roles:role_list ~cardinality with
  | Error e -> Error e
  | Ok c ->
    let offender =
      List.find_opt (fun user -> constraint_violated c (authorized_set t user)) (users t)
    in
    (match offender with
    | Some user -> Error (Printf.sprintf "existing assignment for %s already violates %s" user name)
    | None -> Ok { t with ssd = c :: t.ssd })
