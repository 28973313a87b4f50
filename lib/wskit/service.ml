module Xml = Dacs_xml.Xml
module Cursor = Xml.Cursor
module Rpc = Dacs_net.Rpc

type t = { rpc : Rpc.t }

let create rpc = { rpc }

let rpc t = t.rpc
let net t = Rpc.net t.rpc
let metrics t = Rpc.metrics t.rpc
let tracer t = Rpc.tracer t.rpc

type error =
  | Transport of Rpc.error
  | Fault of Soap.fault
  | Malformed of string

let error_to_string = function
  | Transport e -> Rpc.error_to_string e
  | Fault f -> Printf.sprintf "fault %s: %s" f.Soap.code f.Soap.reason
  | Malformed m -> Printf.sprintf "malformed response: %s" m

type 'a reader = Cursor.t -> ('a, string) result

let raising read c = match read c with Ok v -> v | Error e -> Cursor.fail c e

let read_slice (s : Rpc.slice) body = Soap.read s.Rpc.src s.Rpc.off s.Rpc.len body

(* A reply the body's reader rejected is read again as a tree: that
   tells a broken envelope (or a fault) from a well-formed body of the
   wrong shape.  Only failures pay for it. *)
let reread s = read_slice s Cursor.subtree

let fault code reason buf = Xml.print buf (Soap.fault_body { Soap.code; reason })
let sender_fault = fault "soap:Sender"
let receiver_fault = fault "soap:Receiver"

(* The SOAP envelope around a body writer, as the RPC layer's envelope:
   the bus writes it around every body, so no call or reply wraps its
   writer in a closure of its own. *)
let soap_envelope buf write = Soap.write buf write

type ('q, 'r) call = { name : string; request : 'q reader; reply : 'r reader }
type 'q cast = { name : string; request : 'q reader }

(* The bus frames a name verbatim between two bars. *)
let framable name =
  if String.contains name '|' then invalid_arg ("Service: name holds '|': " ^ name);
  name

let request_reply name ~request ~reply : (_, _) call = { name = framable name; request; reply }
let one_way name request : _ cast = { name = framable name; request }

type declaration = Call : ('q, 'r) call -> declaration | Cast : 'q cast -> declaration

let serve t ~node (service : (_, _) call) handler =
  let read = raising service.request in
  Rpc.serve_frame t.rpc ~node ~service:service.name ~envelope:soap_envelope (fun ~caller body reply ->
      match read_slice body read with
      | Ok (headers, v) -> handler ~caller ~headers v reply
      | Error e -> reply (sender_fault e))

let serve_cast t ~node (service : _ cast) handler =
  let read = raising service.request in
  Rpc.serve_cast t.rpc ~node ~service:service.name (fun ~caller body ->
      match read_slice body read with Ok (_, v) -> handler ~caller v | Error _ -> ())

let decode_reply read s =
  let body c = if Cursor.at_local_name c "Fault" then Cursor.fail c "SOAP fault" else raising read c in
  match read_slice s body with
  | Ok (_, v) -> Ok (Ok v)
  | Error e -> (
    match reread s with
    | Error envelope_error -> Error (Malformed envelope_error)
    | Ok (_, tree) -> (
      match Soap.fault_of_body tree with Some f -> Error (Fault f) | None -> Ok (Error e)))

let transport_error = function Error (Transport e) -> Some e | Ok _ | Error _ -> None

let reply_to read k = function
  | Error e -> k (Error (Transport e))
  | Ok reply -> k (decode_reply read reply)

let call t ~src ~dst ?timeout ?breaker ?(headers = []) (service : (_, _) call) write k =
  let envelope =
    match headers with
    | [] -> soap_envelope
    | headers -> fun buf write -> Soap.write ~headers buf write
  in
  Rpc.call_frame t.rpc ~src ~dst ~service:service.name ?timeout ?breaker ~envelope write
    (reply_to service.reply k)

let cast t ~src ~dst (service : _ cast) write =
  Rpc.cast_frame t.rpc ~src ~dst ~service:service.name ~envelope:soap_envelope write

let call_batch t ~src ~dst ?breaker (service : (_, _) call) writes k =
  Rpc.call_batch_frame t.rpc ~src ~dst ~service:service.name ?breaker
    (List.map (fun write buf -> Soap.write buf write) writes)
    (function
      | Error e -> k (Error (Transport e))
      | Ok replies -> k (Ok (List.map (decode_reply service.reply) replies)))
