module Xml = Dacs_xml.Xml

let ( let* ) = Result.bind

let rec collect_results f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = collect_results f rest in
    Ok (y :: ys)

let attr_or_error node name =
  match Xml.attr node name with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "<%s> is missing attribute %s" (Xml.tag node) name)

let value_of ~data_type ~text =
  match Value.data_type_of_name data_type with
  | None -> Error (Printf.sprintf "unknown data type %s" data_type)
  | Some dt -> Value.of_string dt text

(* --- expressions ------------------------------------------------------- *)

let rec expr_to_xml = function
  | Expr.Const v ->
    Xml.element "AttributeValue"
      ~attrs:[ ("DataType", Value.type_name (Value.type_of v)) ]
      ~children:[ Xml.text (Value.to_string v) ]
  | Expr.Designator d ->
    Xml.element "AttributeDesignator"
      ~attrs:
        [
          ("Category", Context.category_name d.Expr.category);
          ("AttributeId", d.Expr.attribute_id);
          ("MustBePresent", string_of_bool d.Expr.must_be_present);
        ]
  | Expr.Function_ref f -> Xml.element "Function" ~attrs:[ ("FunctionId", f) ]
  | Expr.Variable_ref v -> Xml.element "VariableReference" ~attrs:[ ("VariableId", v) ]
  | Expr.Apply (name, args) ->
    Xml.element "Apply" ~attrs:[ ("FunctionId", name) ] ~children:(List.map expr_to_xml args)

let rec expr_of_xml node =
  match Xml.local_name (Xml.tag node) with
  | "AttributeValue" ->
    let* data_type = attr_or_error node "DataType" in
    let* v = value_of ~data_type ~text:(Xml.text_content node) in
    Ok (Expr.Const v)
  | "AttributeDesignator" ->
    let* category_name = attr_or_error node "Category" in
    let* attribute_id = attr_or_error node "AttributeId" in
    let must_be_present = Xml.attr node "MustBePresent" = Some "true" in
    (match Context.category_of_name category_name with
    | None -> Error (Printf.sprintf "unknown category %s" category_name)
    | Some category -> Ok (Expr.Designator { Expr.category; attribute_id; must_be_present }))
  | "Function" ->
    let* f = attr_or_error node "FunctionId" in
    Ok (Expr.Function_ref f)
  | "VariableReference" ->
    let* v = attr_or_error node "VariableId" in
    Ok (Expr.Variable_ref v)
  | "Apply" ->
    let* name = attr_or_error node "FunctionId" in
    let children = List.filter Xml.is_element (Xml.children node) in
    let* args = collect_results expr_of_xml children in
    Ok (Expr.Apply (name, args))
  | other -> Error (Printf.sprintf "unexpected expression element <%s>" other)

(* --- targets ------------------------------------------------------------- *)

let section_names =
  [
    (Context.Subject, ("Subjects", "Subject", "SubjectMatch"));
    (Context.Resource, ("Resources", "Resource", "ResourceMatch"));
    (Context.Action, ("Actions", "Action", "ActionMatch"));
    (Context.Environment, ("Environments", "Environment", "EnvironmentMatch"));
  ]

let match_to_xml m =
  let _, _, match_name = List.assoc m.Target.category section_names in
  Xml.element match_name
    ~attrs:
      [
        ("MatchId", m.Target.fn);
        ("AttributeId", m.Target.attribute_id);
        ("DataType", Value.type_name (Value.type_of m.Target.value));
      ]
    ~children:[ Xml.text (Value.to_string m.Target.value) ]

let section_to_xml category section =
  let plural, singular, _ = List.assoc category section_names in
  match section with
  | [] -> None
  | clauses ->
    Some
      (Xml.element plural
         ~children:
           (List.map
              (fun clause -> Xml.element singular ~children:(List.map match_to_xml clause))
              clauses))

let target_to_xml t =
  let sections =
    List.filter_map
      (fun (category, picker) -> section_to_xml category (picker t))
      [
        (Context.Subject, fun t -> t.Target.subjects);
        (Context.Resource, fun t -> t.Target.resources);
        (Context.Action, fun t -> t.Target.actions);
        (Context.Environment, fun t -> t.Target.environments);
      ]
  in
  Xml.element "Target" ~children:sections

(* A match's category is the one its element names (as [match_to_xml]
   writes it), whichever section holds it. *)
let match_of_xml node =
  let* category =
    match
      List.find_opt (fun (_, (_, _, name)) -> Xml.has_local_name (Xml.tag node) name) section_names
    with
    | Some (category, _) -> Ok category
    | None -> Error (Printf.sprintf "unknown match element <%s>" (Xml.tag node))
  in
  let* fn = attr_or_error node "MatchId" in
  let* attribute_id = attr_or_error node "AttributeId" in
  let* data_type = attr_or_error node "DataType" in
  let* value = value_of ~data_type ~text:(Xml.text_content node) in
  Ok (Target.make_match ~fn ~value ~category ~attribute_id)

let section_of_xml category target_node =
  let plural, singular, _ = List.assoc category section_names in
  match Xml.find_child target_node plural with
  | None -> Ok []
  | Some section_node ->
    collect_results
      (fun clause_node -> collect_results match_of_xml (List.filter Xml.is_element (Xml.children clause_node)))
      (Xml.find_children section_node singular)

let target_of_xml node =
  if Xml.local_name (Xml.tag node) <> "Target" then
    Error (Printf.sprintf "expected <Target>, got <%s>" (Xml.tag node))
  else begin
    let* subjects = section_of_xml Context.Subject node in
    let* resources = section_of_xml Context.Resource node in
    let* actions = section_of_xml Context.Action node in
    let* environments = section_of_xml Context.Environment node in
    Ok { Target.subjects; resources; actions; environments }
  end

let target_child node =
  match Xml.find_child node "Target" with
  | None -> Ok Target.any
  | Some t -> target_of_xml t

(* --- obligations ---------------------------------------------------------- *)

let effect_to_string = function Obligation.Permit -> "Permit" | Obligation.Deny -> "Deny"

let effect_of_string = function
  | "Permit" -> Ok Obligation.Permit
  | "Deny" -> Ok Obligation.Deny
  | other -> Error (Printf.sprintf "unknown effect %s" other)

module Cursor = Xml.Cursor

let write_obligation buf o =
  Buffer.add_string buf "<Obligation ObligationId=\"";
  Xml.add_escaped buf o.Obligation.id;
  Buffer.add_string buf "\" FulfillOn=\"";
  Buffer.add_string buf (effect_to_string o.Obligation.fulfill_on);
  match o.Obligation.parameters with
  | [] -> Buffer.add_string buf "\"/>"
  | parameters ->
    Buffer.add_string buf "\">";
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf "<AttributeAssignment AttributeId=\"";
        Xml.add_escaped buf k;
        Buffer.add_string buf "\" DataType=\"";
        Buffer.add_string buf (Value.type_name (Value.type_of v));
        Buffer.add_string buf "\">";
        Xml.add_escaped buf (Value.to_string v);
        Buffer.add_string buf "</AttributeAssignment>")
      parameters;
    Buffer.add_string buf "</Obligation>"

let expect_local c tag name =
  if not (Cursor.has_local_name c tag name) then
    Cursor.fail c (Printf.sprintf "expected <%s>, got <%s>" name (Cursor.tag_name c tag))

let or_fail c = function Ok v -> v | Error e -> Cursor.fail c e

(* The value of [table] named by the attribute value or text just read,
   compared in place; the table holds each option ready, so a match
   allocates nothing. *)
let rec keyword c = function
  | [] -> None
  | (name, v) :: rest -> if Cursor.value_is c name then v else keyword c rest

let keywords to_string values = List.map (fun v -> (to_string v, Some v)) values
let effects = keywords effect_to_string [ Obligation.Permit; Obligation.Deny ]

let decisions =
  keywords Decision.decision_to_string
    [ Decision.Permit; Decision.Deny; Decision.Not_applicable; Decision.Indeterminate "" ]

let read_assignment c =
  let tag = Cursor.enter c in
  expect_local c tag "AttributeAssignment";
  (* An unknown keyword is copied, for the message, only when seen. *)
  let k = ref None and data_type = ref None and unknown = ref None in
  while Cursor.next_attr c tag do
    if Cursor.attr_is c "AttributeId" then k := Some (Cursor.value c)
    else if Cursor.attr_is c "DataType" then begin
      data_type := Context.read_data_type c;
      if Option.is_none !data_type then unknown := Some (Cursor.value c)
    end
  done;
  let text = Cursor.text c tag in
  Cursor.close c tag;
  match (!k, !data_type, !unknown) with
  | Some k, Some dt, _ -> (k, or_fail c (Value.of_string dt text))
  | Some _, None, Some name -> Cursor.fail c (Printf.sprintf "unknown data type %s" name)
  | None, _, _ -> Cursor.fail c "<AttributeAssignment> is missing attribute AttributeId"
  | _, None, _ -> Cursor.fail c "<AttributeAssignment> is missing attribute DataType"

let read_obligation c =
  let tag = Cursor.enter c in
  expect_local c tag "Obligation";
  let id = ref None and fulfill_on = ref None and unknown = ref None in
  while Cursor.next_attr c tag do
    if Cursor.attr_is c "ObligationId" then id := Some (Cursor.value c)
    else if Cursor.attr_is c "FulfillOn" then begin
      fulfill_on := keyword c effects;
      if Option.is_none !fulfill_on then unknown := Some (Cursor.value c)
    end
  done;
  let parameters = ref [] in
  while Cursor.next_child c tag do
    parameters := read_assignment c :: !parameters
  done;
  Cursor.close c tag;
  match (!id, !fulfill_on, !unknown) with
  | Some id, Some fulfill_on, _ -> { Obligation.id; fulfill_on; parameters = List.rev !parameters }
  | Some _, None, Some name -> Cursor.fail c (Printf.sprintf "unknown effect %s" name)
  | None, _, _ -> Cursor.fail c "<Obligation> is missing attribute ObligationId"
  | _, None, _ -> Cursor.fail c "<Obligation> is missing attribute FulfillOn"

let obligation_to_xml o =
  Xml.element "Obligation"
    ~attrs:[ ("ObligationId", o.Obligation.id); ("FulfillOn", effect_to_string o.Obligation.fulfill_on) ]
    ~children:
      (List.map
         (fun (k, v) ->
           Xml.element "AttributeAssignment"
             ~attrs:[ ("AttributeId", k); ("DataType", Value.type_name (Value.type_of v)) ]
             ~children:[ Xml.text (Value.to_string v) ])
         o.Obligation.parameters)

let obligation_of_xml node =
  let* id = attr_or_error node "ObligationId" in
  let* fulfill_on_s = attr_or_error node "FulfillOn" in
  let* fulfill_on = effect_of_string fulfill_on_s in
  let* parameters =
    collect_results
      (fun a ->
        let* k = attr_or_error a "AttributeId" in
        let* data_type = attr_or_error a "DataType" in
        let* v = value_of ~data_type ~text:(Xml.text_content a) in
        Ok (k, v))
      (Xml.find_children node "AttributeAssignment")
  in
  Ok { Obligation.id; fulfill_on; parameters }

let obligations_to_xml = function
  | [] -> None
  | obligations -> Some (Xml.element "Obligations" ~children:(List.map obligation_to_xml obligations))

let obligations_child node =
  match Xml.find_child node "Obligations" with
  | None -> Ok []
  | Some obs -> collect_results obligation_of_xml (Xml.find_children obs "Obligation")

(* --- rules ------------------------------------------------------------------ *)

let rule_to_xml (r : Rule.t) =
  let effect = match r.Rule.effect with Rule.Permit -> "Permit" | Rule.Deny -> "Deny" in
  let children =
    (if r.Rule.description = "" then []
     else [ Xml.element "Description" ~children:[ Xml.text r.Rule.description ] ])
    @ (if r.Rule.target = Target.any then [] else [ target_to_xml r.Rule.target ])
    @
    match r.Rule.condition with
    | None -> []
    | Some c -> [ Xml.element "Condition" ~children:[ expr_to_xml c ] ]
  in
  Xml.element "Rule" ~attrs:[ ("RuleId", r.Rule.id); ("Effect", effect) ] ~children

let rule_of_xml node =
  let* id = attr_or_error node "RuleId" in
  let* effect_s = attr_or_error node "Effect" in
  let* effect =
    match effect_s with
    | "Permit" -> Ok Rule.Permit
    | "Deny" -> Ok Rule.Deny
    | other -> Error (Printf.sprintf "unknown effect %s" other)
  in
  let description =
    Option.value (Option.map Xml.text_content (Xml.find_child node "Description")) ~default:""
  in
  let* target = target_child node in
  let* condition =
    match Xml.find_child node "Condition" with
    | None -> Ok None
    | Some c -> (
      match List.filter Xml.is_element (Xml.children c) with
      | [ e ] ->
        let* expr = expr_of_xml e in
        Ok (Some expr)
      | _ -> Error "Condition must contain exactly one expression")
  in
  Ok { Rule.id; description; effect; target; condition }

(* --- policies ---------------------------------------------------------------- *)

let combining_of node attr_name =
  let* s = attr_or_error node attr_name in
  match Combine.of_name s with
  | Some a -> Ok a
  | None -> Error (Printf.sprintf "unknown combining algorithm %s" s)

let policy_to_xml (p : Policy.t) =
  let children =
    (if p.Policy.description = "" then []
     else [ Xml.element "Description" ~children:[ Xml.text p.Policy.description ] ])
    @ (if p.Policy.target = Target.any then [] else [ target_to_xml p.Policy.target ])
    @ List.map
        (fun (name, e) ->
          Xml.element "VariableDefinition" ~attrs:[ ("VariableId", name) ]
            ~children:[ expr_to_xml e ])
        p.Policy.variables
    @ List.map rule_to_xml p.Policy.rules
    @ Option.to_list (obligations_to_xml p.Policy.obligations)
  in
  Xml.element "Policy"
    ~attrs:
      ([
         ("PolicyId", p.Policy.id);
         ("Version", string_of_int p.Policy.version);
         ("RuleCombiningAlgId", Combine.name p.Policy.rule_combining);
       ]
      @ if p.Policy.issuer = "" then [] else [ ("Issuer", p.Policy.issuer) ])
    ~children

let policy_of_xml node =
  let* id = attr_or_error node "PolicyId" in
  let version =
    Option.value (Option.bind (Xml.attr node "Version") int_of_string_opt) ~default:1
  in
  let issuer = Option.value (Xml.attr node "Issuer") ~default:"" in
  let* rule_combining = combining_of node "RuleCombiningAlgId" in
  let description =
    Option.value (Option.map Xml.text_content (Xml.find_child node "Description")) ~default:""
  in
  let* target = target_child node in
  let* variables =
    collect_results
      (fun v ->
        let* name = attr_or_error v "VariableId" in
        match List.filter Xml.is_element (Xml.children v) with
        | [ e ] ->
          let* expr = expr_of_xml e in
          Ok (name, expr)
        | _ -> Error "VariableDefinition must contain exactly one expression")
      (Xml.find_children node "VariableDefinition")
  in
  let* rules = collect_results rule_of_xml (Xml.find_children node "Rule") in
  let* obligations = obligations_child node in
  Ok
    { Policy.id; version; description; issuer; target; variables; rules; rule_combining; obligations }

let rec set_to_xml (s : Policy.set) =
  let children =
    (if s.Policy.set_description = "" then []
     else [ Xml.element "Description" ~children:[ Xml.text s.Policy.set_description ] ])
    @ (if s.Policy.set_target = Target.any then [] else [ target_to_xml s.Policy.set_target ])
    @ List.map child_to_xml s.Policy.children
    @ Option.to_list (obligations_to_xml s.Policy.set_obligations)
  in
  Xml.element "PolicySet"
    ~attrs:
      [
        ("PolicySetId", s.Policy.set_id);
        ("Version", string_of_int s.Policy.set_version);
        ("PolicyCombiningAlgId", Combine.name s.Policy.policy_combining);
      ]
    ~children

and child_to_xml = function
  | Policy.Inline_policy p -> policy_to_xml p
  | Policy.Inline_set s -> set_to_xml s
  | Policy.Policy_ref id -> Xml.element "PolicyIdReference" ~children:[ Xml.text id ]

let rec set_of_xml node =
  let* set_id = attr_or_error node "PolicySetId" in
  let set_version =
    Option.value (Option.bind (Xml.attr node "Version") int_of_string_opt) ~default:1
  in
  let* policy_combining = combining_of node "PolicyCombiningAlgId" in
  let set_description =
    Option.value (Option.map Xml.text_content (Xml.find_child node "Description")) ~default:""
  in
  let* set_target = target_child node in
  let child_nodes =
    List.filter
      (fun n ->
        match Xml.local_name (Xml.tag n) with
        | "Policy" | "PolicySet" | "PolicyIdReference" -> true
        | _ -> false)
      (List.filter Xml.is_element (Xml.children node))
  in
  let* children = collect_results child_of_xml child_nodes in
  let* set_obligations = obligations_child node in
  Ok
    {
      Policy.set_id;
      set_version;
      set_description;
      set_target;
      children;
      policy_combining;
      set_obligations;
    }

and child_of_xml node =
  match Xml.local_name (Xml.tag node) with
  | "Policy" ->
    let* p = policy_of_xml node in
    Ok (Policy.Inline_policy p)
  | "PolicySet" ->
    let* s = set_of_xml node in
    Ok (Policy.Inline_set s)
  | "PolicyIdReference" -> Ok (Policy.Policy_ref (Xml.text_content node))
  | other -> Error (Printf.sprintf "expected a policy element, got <%s>" other)

(* --- decisions ------------------------------------------------------------------ *)

let write_result buf (r : Decision.result) =
  Buffer.add_string buf "<Response><Result><Decision>";
  Buffer.add_string buf (Decision.decision_to_string r.Decision.decision);
  Buffer.add_string buf "</Decision>";
  (match r.Decision.decision with
  | Decision.Indeterminate m ->
    Buffer.add_string buf "<Status>";
    Xml.add_escaped buf m;
    Buffer.add_string buf "</Status>"
  | Decision.Permit | Decision.Deny | Decision.Not_applicable -> ());
  (match r.Decision.obligations with
  | [] -> ()
  | obligations ->
    Buffer.add_string buf "<Obligations>";
    List.iter (write_obligation buf) obligations;
    Buffer.add_string buf "</Obligations>");
  Buffer.add_string buf "</Result></Response>"

let read_result c =
  let response = Cursor.enter c in
  expect_local c response "Response";
  while Cursor.next_attr c response do
    ()
  done;
  if not (Cursor.next_child c response) then Cursor.fail c "Response has no Result";
  let result = Cursor.enter c in
  expect_local c result "Result";
  while Cursor.next_attr c result do
    ()
  done;
  if not (Cursor.next_child c result) then Cursor.fail c "Result has no Decision";
  let d = Cursor.enter c in
  expect_local c d "Decision";
  while Cursor.next_attr c d do
    ()
  done;
  Cursor.read_text c d;
  let decision = keyword c decisions in
  let unknown = if Option.is_none decision then Cursor.value c else "" in
  Cursor.close c d;
  let status = ref None and obligations = ref None in
  while Cursor.next_child c result do
    let tag = Cursor.enter c in
    if Option.is_none !status && Cursor.has_local_name c tag "Status" then begin
      while Cursor.next_attr c tag do
        ()
      done;
      status := Some (Cursor.text c tag)
    end
    else if Option.is_none !obligations && Cursor.has_local_name c tag "Obligations" then begin
      while Cursor.next_attr c tag do
        ()
      done;
      let acc = ref [] in
      while Cursor.next_child c tag do
        acc := read_obligation c :: !acc
      done;
      obligations := Some (List.rev !acc)
    end
    else Cursor.fail c (Printf.sprintf "unexpected <%s> in a Result" (Cursor.tag_name c tag));
    Cursor.close c tag
  done;
  Cursor.close c result;
  if Cursor.next_child c response then Cursor.fail c "Response must hold a single Result";
  Cursor.close c response;
  let obligations = Option.value !obligations ~default:[] in
  match decision with
  | Some (Decision.Indeterminate _) ->
    { Decision.decision = Decision.Indeterminate (Option.value !status ~default:""); obligations }
  | Some decision -> { Decision.decision; obligations }
  | None -> Cursor.fail c (Printf.sprintf "unknown decision %s" unknown)


(* --- string round-trips ------------------------------------------------------------ *)

let parse_then f s =
  match Xml.of_string_opt s with
  | None -> Error "malformed XML"
  | Some node -> f node

let child_to_string c = Xml.to_string (child_to_xml c)
let child_of_string = parse_then child_of_xml
