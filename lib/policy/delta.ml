type pin = Target.pin = {
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

(* --- tree diff ----------------------------------------------------------- *)

let zone_of_child outer = function
  | Policy.Inline_policy p -> Target.pins p.Policy.target @ outer
  | Policy.Inline_set s -> Target.pins s.Policy.set_target @ outer
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
           Target.pins po.Policy.target @ outer; Target.pins pn.Policy.target @ outer;
         ])
  else
    let zouter = Target.pins po.Policy.target @ outer in
    if
      po.Policy.rule_combining <> pn.Policy.rule_combining
      || po.Policy.obligations <> pn.Policy.obligations
      || po.Policy.variables <> pn.Policy.variables
      || po.Policy.issuer <> pn.Policy.issuer
    then normalize (Zones [ zouter ])
    else diff_rules zouter po po.Policy.rules pn.Policy.rules

(* Each changed rule, old and new, zoned where it decides in its policy
   (both sides share [policy]'s variables here): an in-place edit that
   keeps the target yields one zone, a retarget the old and new
   applicability. *)
and diff_rules zouter policy olds news =
  match trim_common olds news with
  | [], [] -> Empty
  | a, b -> normalize (Zones (List.map (fun r -> Policy.rule_pins policy r @ zouter) (a @ b)))

and diff_set outer so sn =
  if so.Policy.set_target <> sn.Policy.set_target then
    normalize
      (Zones
         [
           Target.pins so.Policy.set_target @ outer;
           Target.pins sn.Policy.set_target @ outer;
         ])
  else
    let zouter = Target.pins so.Policy.set_target @ outer in
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
  Target.guards_clean ctx pin.pin_guards
  &&
  let bag = Context.bag ctx pin.pin_category pin.pin_attribute in
  Target.clean bag
  && List.for_all
       (function Value.String v -> not (List.mem v pin.pin_values) | _ -> false)
       bag

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
