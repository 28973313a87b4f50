type match_ = {
  fn : string;
  value : Value.t;
  category : Context.category;
  attribute_id : string;
  matcher : Expr.matcher option;
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

let make_match ~fn ~value ~category ~attribute_id =
  { fn; value; category; attribute_id; matcher = Expr.matcher fn }

let match_string category attribute_id s =
  make_match ~fn:"string-equal" ~value:(Value.String s) ~category ~attribute_id

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

(* Evaluation walks sections, clauses and bags with top-level recursive
   functions over explicit arguments: no local closure, list or option
   is built unless a match errors. *)

(* True when the function accepts (literal, v) for some v of the bag;
   otherwise the last error seen, if any, makes the match
   indeterminate. *)
let rec match_bag m matcher bag last_error =
  match bag with
  | [] -> (
    match last_error with
    | None -> No_match
    | Some e -> Indeterminate_match (Expr.error_to_string e))
  | v :: rest -> (
    match Expr.apply_match matcher m.value v with
    | Ok true -> Match
    | Ok false -> match_bag m matcher rest last_error
    | Error e -> match_bag m matcher rest (Some e))

let eval_match resolve ctx m =
  match m.matcher with
  | None -> Indeterminate_match (Printf.sprintf "unknown match function %s" m.fn)
  | Some matcher ->
    let bag =
      match Context.bag ctx m.category m.attribute_id with
      | [] -> (
        match resolve with
        | Some r -> (match r m.category m.attribute_id with Some bag -> bag | None -> [])
        | None -> [])
      | bag -> bag
    in
    match_bag m matcher bag None

(* XACML AllOf semantics: any No-match makes the clause No-match, even
   when another member errors; only error-without-mismatch is
   indeterminate, with the first error. *)
let rec eval_clause resolve ctx clause first_error =
  match clause with
  | [] -> (match first_error with Some e -> Indeterminate_match e | None -> Match)
  | m :: rest -> (
    match eval_match resolve ctx m with
    | Match -> eval_clause resolve ctx rest first_error
    | No_match -> No_match
    | Indeterminate_match e ->
      eval_clause resolve ctx rest (match first_error with None -> Some e | some -> some))

(* AnyOf: the first matching clause decides; otherwise the last clause
   error, if any. *)
let rec eval_clauses resolve ctx clauses last_error =
  match clauses with
  | [] -> (match last_error with Some e -> Indeterminate_match e | None -> No_match)
  | c :: rest -> (
    match eval_clause resolve ctx c None with
    | Match -> Match
    | No_match -> eval_clauses resolve ctx rest last_error
    | Indeterminate_match e -> eval_clauses resolve ctx rest (Some e))

let eval_section resolve ctx = function
  | [] -> Match
  | clauses -> eval_clauses resolve ctx clauses None

let evaluate ?resolve ctx t =
  match eval_section resolve ctx t.subjects with
  | Match -> (
    match eval_section resolve ctx t.resources with
    | Match -> (
      match eval_section resolve ctx t.actions with
      | Match -> eval_section resolve ctx t.environments
      | outcome -> outcome)
    | outcome -> outcome)
  | outcome -> outcome

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

let rec clean = function
  | [] -> false
  | [ Value.String _ ] -> true
  | Value.String _ :: rest -> clean rest
  | _ -> false

let rec guards_clean ctx = function
  | [] -> true
  | (category, attr) :: rest -> clean (Context.bag ctx category attr) && guards_clean ctx rest

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
