(* Casting to a request/reply service: must not compile. *)

let echo = Dacs_ws.Service.request_reply "echo" ~request:(fun _ -> Ok ()) ~reply:(fun _ -> Ok ())
let misuse services = Dacs_ws.Service.cast services ~src:"a" ~dst:"b" echo ignore
