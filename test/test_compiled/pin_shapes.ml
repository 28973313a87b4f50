(* Target shapes the pin reading must keep out of the compiled index and
   out of change-impact exclusion, shared by the soundness properties of
   test_compiled, test_oracle and test_delta: string-equal on an axis
   attribute read from another category than its section's, and
   string-starts-with on a pinned attribute.  [with_cross] puts the axis
   attributes under the other categories, so the mismatched matches can
   actually Match. *)

module Target = Dacs_policy.Target
module Context = Dacs_policy.Context
module Value = Dacs_policy.Value

(* A string-equal match on one attribute, in any section. *)
let match_string category attribute_id s =
  Target.make_match ~fn:"string-equal" ~value:(Value.String s) ~category ~attribute_id

let resources = [| "chart"; "lab"; "note" |]
let actions = [| "read"; "write" |]

let starts_with category attribute_id prefix =
  Target.make_match ~fn:"string-starts-with" ~value:(Value.String prefix) ~category ~attribute_id

let kinds = 9

let target k =
  let r = resources.(k mod Array.length resources) in
  let r' = resources.((k + 1) mod Array.length resources) in
  let a = actions.(k mod Array.length actions) in
  let open Context in
  match k mod kinds with
  | 0 -> { Target.any with resources = [ [ match_string Subject "resource-id" r ] ] }
  | 1 -> { Target.any with resources = [ [ match_string Action "resource-id" r ] ] }
  | 2 -> { Target.any with actions = [ [ match_string Subject "action-id" a ] ] }
  | 3 -> { Target.any with actions = [ [ match_string Resource "action-id" a ] ] }
  | 4 ->
    (* two clauses, each pinning resource-id under a different category *)
    { Target.any with resources = [
          [ match_string Resource "resource-id" r ];
          [ match_string Subject "resource-id" r' ];
        ] }
  | 5 ->
    { Target.any with resources = [
          [ match_string Subject "resource-id" r; match_string Resource "resource-id" r' ];
        ] }
  | 6 -> { Target.any with resources = [ [ starts_with Resource "resource-id" (String.sub r 0 1) ] ] }
  | 7 -> { Target.any with actions = [ [ starts_with Action "action-id" (String.sub a 0 1) ] ] }
  | _ ->
    (* an unguardable subject section in front of an action pin *)
    {
      Target.any with
        subjects = [ [ starts_with Subject "role" "d" ] ];
        actions = [ [ match_string Action "action-id" a ] ]
    }

let cross_codes = Array.length resources * Array.length actions

(* Code 0 adds nothing; 1..[cross_codes] pick one resource and action. *)
let with_cross code ctx =
  if code = 0 then ctx
  else
    let r = Value.String resources.((code - 1) mod Array.length resources) in
    let a = Value.String actions.((code - 1) / Array.length resources mod Array.length actions) in
    List.fold_left
      (fun ctx (category, attr, v) -> Context.add ctx category attr v)
      ctx
      [
        (Context.Subject, "resource-id", r);
        (Context.Action, "resource-id", r);
        (Context.Subject, "action-id", a);
        (Context.Resource, "action-id", a);
      ]
