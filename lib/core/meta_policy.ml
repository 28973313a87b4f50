module Decision = Dacs_policy.Decision

type coi_class = {
  class_name : string;
  datasets : (string * string list) list;
}

type t =
  | Chinese_wall of coi_class list
  | Dynamic_resource_sod of { name : string; resources : string list; limit : int }

let datasets_of_resource cls resource =
  List.filter_map
    (fun (name, resources) -> if List.mem resource resources then Some name else None)
    cls.datasets

let check meta ~history ~subject ~resource =
  let touched = Audit.permitted_resources history ~subject in
  match meta with
  | Chinese_wall classes ->
    let violation =
      List.find_map
        (fun cls ->
          match datasets_of_resource cls resource with
          | [] -> None
          | requested_datasets ->
            (* Any previously touched dataset of the same class that is
               not one of the requested resource's datasets builds the
               wall. *)
            let touched_datasets =
              List.concat_map (fun r -> datasets_of_resource cls r) touched
              |> List.sort_uniq compare
            in
            let foreign =
              List.filter (fun d -> not (List.mem d requested_datasets)) touched_datasets
            in
            (match foreign with
            | [] -> None
            | d :: _ ->
              Some
                (Printf.sprintf
                   "Chinese wall %s: subject already accessed dataset %s of the same conflict class"
                   cls.class_name d)))
        classes
    in
    (match violation with None -> Ok () | Some reason -> Error reason)
  | Dynamic_resource_sod { name; resources; limit } ->
    if not (List.mem resource resources) then Ok ()
    else begin
      let already = List.filter (fun r -> List.mem r resources && r <> resource) touched in
      (* Accessing [resource] would make it |already| + 1 distinct ones. *)
      if List.length already + 1 >= limit then
        Error
          (Printf.sprintf "separation-of-duty constraint %s: access to %d of the restricted resources"
             name (List.length already + 1))
      else Ok ()
    end
