type match_ = {
  fn : string;
  value : Value.t;
  category : Context.category;
  attribute_id : string;
}

type clause = match_ list

type section = clause list

type t = {
  subjects : section;
  resources : section;
  actions : section;
  environments : section;
}

let any = { subjects = []; resources = []; actions = []; environments = [] }

let make ?(subjects = []) ?(resources = []) ?(actions = []) ?(environments = []) () =
  { subjects; resources; actions; environments }

let match_string category attribute_id s =
  { fn = "string-equal"; value = Value.String s; category; attribute_id }

let subject_is attr v t =
  { t with subjects = t.subjects @ [ [ match_string Context.Subject attr v ] ] }

let resource_is attr v t =
  { t with resources = t.resources @ [ [ match_string Context.Resource attr v ] ] }

let action_is attr v t =
  { t with actions = t.actions @ [ [ match_string Context.Action attr v ] ] }

let for_action name = action_is "action-id" name any
let for_resource name = resource_is "resource-id" name any
let for_subject_role role = subject_is "role" role any

type outcome = Match | No_match | Indeterminate_match of string

(* One match element: true when the function accepts (literal, v) for at
   least one v in the attribute's bag. *)
let eval_match ?resolve ctx m =
  match Expr.match_function m.fn with
  | None -> Indeterminate_match (Printf.sprintf "unknown match function %s" m.fn)
  | Some f -> (
    let bag = Context.bag ctx m.category m.attribute_id in
    let bag =
      if bag = [] then
        match resolve with
        | Some r -> Option.value (r m.category m.attribute_id) ~default:[]
        | None -> []
      else bag
    in
    let rec go errors = function
      | [] -> (
        match errors with
        | [] -> No_match
        | e :: _ -> Indeterminate_match e)
      | v :: rest -> (
        match f m.value v with
        | Ok true -> Match
        | Ok false -> go errors rest
        | Error e -> go (Expr.error_to_string e :: errors) rest)
    in
    go [] bag)

let eval_clause ?resolve ctx clause =
  (* XACML AllOf semantics: any No-match makes the clause No-match, even
     when another member errors; only error-without-mismatch is
     indeterminate. *)
  let rec go saw_error = function
    | [] -> (match saw_error with Some e -> Indeterminate_match e | None -> Match)
    | m :: rest -> (
      match eval_match ?resolve ctx m with
      | Match -> go saw_error rest
      | No_match -> No_match
      | Indeterminate_match e -> go (Some (Option.value saw_error ~default:e)) rest)
  in
  go None clause

let eval_section ?resolve ctx section =
  match section with
  | [] -> Match
  | clauses ->
    let rec go saw_error = function
      | [] -> (match saw_error with Some e -> Indeterminate_match e | None -> No_match)
      | c :: rest -> (
        match eval_clause ?resolve ctx c with
        | Match -> Match
        | No_match -> go saw_error rest
        | Indeterminate_match e -> go (Some e) rest)
    in
    go None clauses

let evaluate ?resolve ctx t =
  let sections = [ t.subjects; t.resources; t.actions; t.environments ] in
  let rec go = function
    | [] -> Match
    | s :: rest -> (
      match eval_section ?resolve ctx s with
      | Match -> go rest
      | No_match -> No_match
      | Indeterminate_match e -> Indeterminate_match e)
  in
  go sections

(* --- pins ----------------------------------------------------------------- *)

type pin = {
  pin_category : Context.category;
  pin_attribute : string;
  pin_values : string list;
  pin_guards : (Context.category * string) list;
}

(* The literal a match pins its position to: string equality between
   string operands answers true or false and never errors, so against a
   non-empty all-string bag the match cannot be Indeterminate. *)
let pinned_literal m =
  if m.fn = "string-equal" then match m.value with Value.String s -> Some s | _ -> None
  else None

let clause_pins = function
  | [ m ] -> (
    (* the common one-match clause, without the sorts' allocation *)
    match pinned_literal m with
    | Some s -> [ ((m.category, m.attribute_id), [ s ]) ]
    | None -> [])
  | clause ->
    let add acc m =
      match pinned_literal m with
      | None -> acc
      | Some s ->
        let pos = (m.category, m.attribute_id) in
        let values = Option.value (List.assoc_opt pos acc) ~default:[] in
        (pos, List.sort_uniq compare (s :: values)) :: List.remove_assoc pos acc
    in
    List.sort compare (List.fold_left add [] clause)

(* A section pins a position when every clause does: a clean bag
   disjoint from the union of the clauses' literals makes each clause —
   hence the section — No_match.  An empty section pins nothing. *)
let section_pins guards = function
  | [] -> []
  | first :: rest ->
    let meet acc clause =
      let here = clause_pins clause in
      List.filter_map
        (fun (pos, values) ->
          Option.map (fun more -> (pos, List.sort_uniq compare (values @ more))) (List.assoc_opt pos here))
        acc
    in
    List.map
      (fun ((pin_category, pin_attribute), pin_values) ->
        { pin_category; pin_attribute; pin_values; pin_guards = guards })
      (List.fold_left meet (clause_pins first) rest)

(* The positions a section reads, in match order, when every match pins
   (and so none can error on clean bags); None otherwise. *)
let rec section_guards = function
  | [] -> Some []
  | [] :: clauses -> section_guards clauses
  | (m :: ms) :: clauses -> (
    match (pinned_literal m, section_guards (ms :: clauses)) with
    | Some _, Some guards -> Some ((m.category, m.attribute_id) :: guards)
    | _ -> None)

(* Sections evaluate in order and an Indeterminate one short-circuits
   the target before a later pin's mismatch is seen, so a section's
   pins are usable only while every earlier section is guardable; the
   positions those sections read become the pins' guards. *)
let pins t =
  let rec go guards = function
    | [] -> []
    | section :: rest -> (
      let here = section_pins guards section in
      match section_guards section with
      | None -> here
      | Some g -> here @ go (guards @ g) rest)
  in
  go [] [ t.subjects; t.resources; t.actions; t.environments ]

let clean_ids ctx category attr =
  match Context.bag ctx category attr with
  | [] -> None
  | bag ->
    let rec strings acc = function
      | [] -> Some (List.rev acc)
      | Value.String s :: rest -> strings (s :: acc) rest
      | _ -> None
    in
    strings [] bag

let guards_clean ctx guards =
  List.for_all
    (fun (category, attr) ->
      match Context.bag ctx category attr with
      | [] -> false
      | bag -> List.for_all (function Value.String _ -> true | _ -> false) bag)
    guards

let pp_match fmt m =
  Format.fprintf fmt "%s(%a, %s/%s)" m.fn Value.pp m.value
    (Context.category_name m.category)
    m.attribute_id

let pp_section name fmt = function
  | [] -> ignore name
  | clauses ->
    Format.fprintf fmt "%s: %a@ " name
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_string f " | ")
         (fun f clause ->
           Format.pp_print_list
             ~pp_sep:(fun f () -> Format.pp_print_string f " & ")
             pp_match f clause))
      clauses

let pp fmt t =
  if t = any then Format.pp_print_string fmt "<any>"
  else begin
    pp_section "subjects" fmt t.subjects;
    pp_section "resources" fmt t.resources;
    pp_section "actions" fmt t.actions;
    pp_section "environments" fmt t.environments
  end
