(* Calling a one-way service: must not compile. *)

let note = Dacs_ws.Service.one_way "note" (fun _ -> Ok ())
let misuse services = Dacs_ws.Service.call services ~src:"a" ~dst:"b" note ignore ignore
