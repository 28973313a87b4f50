module Xml = Dacs_xml.Xml
module Rpc = Dacs_net.Rpc

type t = { rpc : Rpc.t }

let create rpc = { rpc }

let rpc t = t.rpc
let net t = Rpc.net t.rpc
let metrics t = Rpc.metrics t.rpc
let tracer t = Rpc.tracer t.rpc

type handler =
  caller:Dacs_net.Net.node_id ->
  headers:Xml.t list ->
  Xml.t ->
  (Xml.t -> unit) ->
  unit

let serve t ~node ~service (handler : handler) =
  Rpc.serve t.rpc ~node ~service (fun ~caller payload reply ->
      let reply_body ?headers body = reply (Soap.to_string { Soap.headers = Option.value headers ~default:[]; body }) in
      match Soap.parse payload with
      | Error e -> reply_body (Soap.fault_body { Soap.code = "soap:Sender"; reason = e })
      | Ok envelope ->
        handler ~caller ~headers:envelope.Soap.headers envelope.Soap.body (fun body ->
            reply_body body))

type error =
  | Transport of Rpc.error
  | Fault of Soap.fault
  | Malformed of string

let error_to_string = function
  | Transport e -> Rpc.error_to_string e
  | Fault f -> Printf.sprintf "fault %s: %s" f.Soap.code f.Soap.reason
  | Malformed m -> Printf.sprintf "malformed response: %s" m

let decode_one response =
  match Soap.parse response with
  | Error e -> Error (Malformed e)
  | Ok envelope -> (
    match Soap.fault_of_body envelope.Soap.body with
    | Some f -> Error (Fault f)
    | None -> Ok envelope.Soap.body)

let decode_response k result =
  match result with
  | Error e -> k (Error (Transport e))
  | Ok response -> k (decode_one response)

let call t ~src ~dst ~service ?timeout ?headers body k =
  let payload = Soap.to_string { Soap.headers = Option.value headers ~default:[]; body } in
  Rpc.call t.rpc ~src ~dst ~service ?timeout payload (decode_response k)

let call_resilient t ~src ~dst ~service ?timeout ?retry ?notify ?headers body k =
  let payload = Soap.to_string { Soap.headers = Option.value headers ~default:[]; body } in
  Rpc.call_resilient t.rpc ~src ~dst ~service ?timeout ?retry ?notify payload (decode_response k)

let call_batch_resilient t ~src ~dst ~service ?timeout ?retry ?notify ?headers bodies k =
  let headers = Option.value headers ~default:[] in
  let payloads = List.map (fun body -> Soap.to_string { Soap.headers = headers; body }) bodies in
  Rpc.call_batch_resilient t.rpc ~src ~dst ~service ?timeout ?retry ?notify payloads
    (fun result ->
      match result with
      | Error e -> k (Error (Transport e))
      | Ok replies -> k (Ok (List.map decode_one replies)))
