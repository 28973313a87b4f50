let ( let* ) = Result.bind

let parse_line model line_no line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let words =
    String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
  in
  let fail msg = Error (Printf.sprintf "line %d: %s" line_no msg) in
  let lift = function Ok m -> Ok m | Error e -> fail e in
  match words with
  | [] -> Ok model
  | [ "role"; name ] -> Ok (Rbac.add_role model name)
  | [ "inherit"; senior; junior ] -> lift (Rbac.add_inheritance model ~senior ~junior)
  | [ "grant"; role; action; resource ] ->
    lift (Rbac.grant_permission model role { Rbac.action; resource })
  | [ "user"; user; role ] -> lift (Rbac.assign_user model user role)
  | "ssd" :: name :: cardinality :: roles when roles <> [] -> (
    match int_of_string_opt cardinality with
    | Some cardinality -> lift (Rbac.add_ssd model ~name ~roles ~cardinality)
    | None -> fail "ssd cardinality is not an integer")
  | directive :: _ -> fail (Printf.sprintf "unknown or malformed directive %S" directive)

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go model line_no = function
    | [] -> Ok model
    | line :: rest ->
      let* model = parse_line model line_no line in
      go model (line_no + 1) rest
  in
  go Rbac.empty 1 lines
