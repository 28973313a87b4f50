type pin = {
  pin_category : Context.category;
  pin_attribute : string;
  pin_values : string list;
  pin_guards : (Context.category * string) list;
}

type zone = pin list

type t = Empty | Zones of zone list | Unbounded

let empty = Empty
let unbounded = Unbounded
let max_zones = 64
let is_empty = function Empty -> true | _ -> false
let is_unbounded = function Unbounded -> true | _ -> false

let zone_count = function
  | Empty -> 0
  | Zones zs -> List.length zs
  | Unbounded -> max_int

let normalize = function
  | Zones [] -> Empty
  | Zones zs ->
    let zs = List.sort_uniq compare zs in
    if List.length zs > max_zones then Unbounded else Zones zs
  | t -> t

(* --- pin harvesting ------------------------------------------------------ *)

(* The values a clause pins for (category, attr) via string-equal on a
   string literal; None when the clause leaves the position free.  Like
   Compiled.clause_axis_values but category-checked: exclusion must read
   the bag the match actually reads. *)
let clause_pin category attr clause =
  let values =
    List.filter_map
      (fun m ->
        if
          m.Target.category = category
          && m.Target.attribute_id = attr
          && m.Target.fn = "string-equal"
        then match m.Target.value with Value.String s -> Some s | _ -> None
        else None)
      clause
  in
  match values with [] -> None | vs -> Some vs

(* Pins a section contributes for its own category: every clause must
   pin the same (category, attr) position, mirroring
   Compiled.section_axis_values, so a disjoint clean bag makes every
   clause — hence the section — No_match. *)
let section_pins category section guards =
  match section with
  | [] -> []
  | first :: _ ->
    let candidates =
      List.sort_uniq compare
        (List.filter_map
           (fun m ->
             if m.Target.category = category && m.Target.fn = "string-equal" then
               match m.Target.value with
               | Value.String _ -> Some m.Target.attribute_id
               | _ -> None
             else None)
           first)
    in
    List.filter_map
      (fun attr ->
        let per_clause = List.map (clause_pin category attr) section in
        if List.exists (fun v -> v = None) per_clause then None
        else
          Some
            {
              pin_category = category;
              pin_attribute = attr;
              pin_values =
                List.sort_uniq compare
                  (List.concat_map (fun v -> Option.value v ~default:[]) per_clause);
              pin_guards = guards;
            })
      candidates

(* All pins of one target.  A section's pins are usable only when every
   section the interpreter evaluates before it is guardable (subjects,
   then resources, then actions, then environments) — the same
   eligibility rule as Compiled's axis indexing, generalised to every
   pinned attribute. *)
let target_pins (t : Target.t) =
  let subj = section_pins Context.Subject t.Target.subjects [] in
  let gs = Compiled.section_guards t.Target.subjects in
  let res =
    match gs with
    | None -> []
    | Some g -> section_pins Context.Resource t.Target.resources g
  in
  let gr = Compiled.section_guards t.Target.resources in
  let act =
    match (gs, gr) with
    | Some g1, Some g2 -> section_pins Context.Action t.Target.actions (g1 @ g2)
    | _ -> []
  in
  let ga = Compiled.section_guards t.Target.actions in
  let env =
    match (gs, gr, ga) with
    | Some g1, Some g2, Some g3 ->
      section_pins Context.Environment t.Target.environments (g1 @ g2 @ g3)
    | _ -> []
  in
  subj @ res @ act @ env

(* --- tree diff ----------------------------------------------------------- *)

let zone_of_child outer = function
  | Policy.Inline_policy p -> target_pins p.Policy.target @ outer
  | Policy.Inline_set s -> target_pins s.Policy.set_target @ outer
  | Policy.Policy_ref _ -> outer

(* Trim the structurally common prefix and suffix of two lists; edits
   localised to a slice leave only that slice on each side. *)
let trim_common olds news =
  let rec prefix a b =
    match (a, b) with x :: a', y :: b' when x = y -> prefix a' b' | _ -> (a, b)
  in
  let a, b = prefix olds news in
  let ra, rb = prefix (List.rev a) (List.rev b) in
  (List.rev ra, List.rev rb)

let rec diff_child outer o n =
  if o = n then Empty
  else
    match (o, n) with
    | Policy.Inline_policy po, Policy.Inline_policy pn when po.Policy.id = pn.Policy.id ->
      diff_policy outer po pn
    | Policy.Inline_set so, Policy.Inline_set sn when so.Policy.set_id = sn.Policy.set_id ->
      diff_set outer so sn
    | _ ->
      (* wholesale replacement: old and new applicability both affected *)
      normalize (Zones [ zone_of_child outer o; zone_of_child outer n ])

and diff_policy outer po pn =
  if po.Policy.target <> pn.Policy.target then
    normalize
      (Zones
         [
           target_pins po.Policy.target @ outer; target_pins pn.Policy.target @ outer;
         ])
  else
    let zouter = target_pins po.Policy.target @ outer in
    if
      po.Policy.rule_combining <> pn.Policy.rule_combining
      || po.Policy.obligations <> pn.Policy.obligations
      || po.Policy.variables <> pn.Policy.variables
      || po.Policy.issuer <> pn.Policy.issuer
    then normalize (Zones [ zouter ])
    else diff_rules zouter po.Policy.rules pn.Policy.rules

and diff_rules zouter olds news =
  match trim_common olds news with
  | [], [] -> Empty
  | [ ro ], [ rn ] when ro.Rule.id = rn.Rule.id ->
    (* in-place edit of one rule: condition/effect changes affect only
       where the (unchanged) target applies; a retarget affects the old
       and new applicability *)
    if ro.Rule.target = rn.Rule.target then
      normalize (Zones [ target_pins ro.Rule.target @ zouter ])
    else
      normalize
        (Zones
           [
             target_pins ro.Rule.target @ zouter; target_pins rn.Rule.target @ zouter;
           ])
  | a, b ->
    normalize (Zones (List.map (fun r -> target_pins r.Rule.target @ zouter) (a @ b)))

and diff_set outer so sn =
  if so.Policy.set_target <> sn.Policy.set_target then
    normalize
      (Zones
         [
           target_pins so.Policy.set_target @ outer;
           target_pins sn.Policy.set_target @ outer;
         ])
  else
    let zouter = target_pins so.Policy.set_target @ outer in
    if
      so.Policy.policy_combining <> sn.Policy.policy_combining
      || so.Policy.set_obligations <> sn.Policy.set_obligations
    then normalize (Zones [ zouter ])
    else diff_children zouter so.Policy.children sn.Policy.children

and diff_children zouter olds news =
  match trim_common olds news with
  | [], [] -> Empty
  | [ co ], [ cn ] -> diff_child zouter co cn
  | a, b -> normalize (Zones (List.map (zone_of_child zouter) (a @ b)))

let between before after =
  match (before, after) with
  | None, None -> Empty
  | None, Some _ | Some _, None ->
    (* even NotApplicable answers change when there was no policy *)
    Unbounded
  | Some o, Some n -> normalize (diff_child [] o n)

(* --- membership ---------------------------------------------------------- *)

let pin_excludes ctx pin =
  Compiled.guards_clean ctx pin.pin_guards
  &&
  match Compiled.clean_ids ctx pin.pin_category pin.pin_attribute with
  | None -> false
  | Some ids -> List.for_all (fun v -> not (List.mem v pin.pin_values)) ids

let zone_covers ctx zone = not (List.exists (pin_excludes ctx) zone)

let covers t ctx =
  match t with
  | Empty -> false
  | Unbounded -> true
  | Zones zs -> List.exists (zone_covers ctx) zs

(* --- printing ------------------------------------------------------------ *)

let category_name = function
  | Context.Subject -> "subject"
  | Context.Resource -> "resource"
  | Context.Action -> "action"
  | Context.Environment -> "environment"

let pp fmt t =
  match t with
  | Empty -> Format.fprintf fmt "empty"
  | Unbounded -> Format.fprintf fmt "unbounded"
  | Zones zs ->
    Format.fprintf fmt "zones[%d]{" (List.length zs);
    List.iteri
      (fun i zone ->
        if i > 0 then Format.fprintf fmt " | ";
        if zone = [] then Format.fprintf fmt "*"
        else
          List.iteri
            (fun j pin ->
              if j > 0 then Format.fprintf fmt " & ";
              Format.fprintf fmt "%s:%s in {%s}" (category_name pin.pin_category)
                pin.pin_attribute
                (String.concat "," pin.pin_values))
            zone)
      zs;
    Format.fprintf fmt "}"

let to_string t = Format.asprintf "%a" pp t
