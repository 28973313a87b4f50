type effect = Permit | Deny

type t = {
  id : string;
  description : string;
  effect : effect;
  target : Target.t;
  condition : Expr.t option;
}

let rule effect ?(description = "") ?(target = Target.any) ?condition id =
  { id; description; effect; target; condition }

let make ?target effect id = rule effect ?target id
let permit ?description ?target ?condition id = rule Permit ?description ?target ?condition id
let deny ?description ?target ?condition id = rule Deny ?description ?target ?condition id

let label rule = "rule " ^ rule.id

(* The shared constant results: a decided rule allocates nothing. *)
let decided = function
  | Permit -> Decision.permit
  | Deny -> Decision.deny

let evaluate ?resolve ctx rule =
  match Target.evaluate ?resolve ctx rule.target with
  | Target.No_match -> Decision.not_applicable
  | Target.Indeterminate_match e ->
    Decision.indeterminate (Printf.sprintf "rule %s target: %s" rule.id e)
  | Target.Match -> (
    match rule.condition with
    | None -> decided rule.effect
    | Some condition -> (
      match Expr.eval_condition ?resolve ctx condition with
      | Ok true -> decided rule.effect
      | Ok false -> Decision.not_applicable
      | Error e ->
        Decision.indeterminate
          (Printf.sprintf "rule %s condition: %s" rule.id (Expr.error_to_string e))))
