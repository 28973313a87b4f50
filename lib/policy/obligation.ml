type effect = Permit | Deny

type t = {
  id : string;
  fulfill_on : effect;
  parameters : (string * Value.t) list;
}

let make ?(parameters = []) ~fulfill_on id = { id; fulfill_on; parameters }

let applicable obligations effect = List.filter (fun o -> o.fulfill_on = effect) obligations

let audit = make ~fulfill_on:Permit "urn:dacs:obligation:audit"

let encrypt_response ~strength =
  make ~fulfill_on:Permit "urn:dacs:obligation:encrypt-response"
    ~parameters:[ ("strength", Value.Int strength) ]

let pp fmt o =
  Format.fprintf fmt "%s[on=%s%s]" o.id
    (match o.fulfill_on with Permit -> "Permit" | Deny -> "Deny")
    (match o.parameters with
    | [] -> ""
    | ps ->
      "; "
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Value.to_string v)) ps))
