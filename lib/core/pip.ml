module Service = Dacs_ws.Service
module Context = Dacs_policy.Context
module Value = Dacs_policy.Value
module Metrics = Dacs_telemetry.Metrics

type t = {
  services : Service.t;
  node : Dacs_net.Net.node_id;
  subject_attrs : (string * string, Value.bag) Hashtbl.t;  (* (subject, id) *)
  mutable subscribers : Dacs_net.Net.node_id list;  (* PDP attribute caches *)
  c_lookups : Metrics.counter;
  c_invalidations : Metrics.counter;
}

let node t = t.node

let add_subject_attribute t ~subject ~id v =
  let prev = Option.value (Hashtbl.find_opt t.subject_attrs (subject, id)) ~default:[] in
  Hashtbl.replace t.subject_attrs (subject, id) (prev @ [ v ])

let remove_subject_attribute t ~subject ~id =
  Hashtbl.remove t.subject_attrs (subject, id);
  (* Revocation is the one mutation that must not wait out a TTL: push an
     explicit invalidation to every subscribed attribute cache. *)
  List.iter
    (fun dst ->
      Metrics.inc t.c_invalidations;
      Service.cast t.services ~src:t.node ~dst Wire.Services.attribute_invalidate (fun buf ->
          Wire.write_attribute_invalidate buf ~subject ~attribute_id:id))
    t.subscribers

let lookup t ~category ~id ~subject =
  match category with
  | Context.Subject ->
    Option.value (Hashtbl.find_opt t.subject_attrs (subject, id)) ~default:[]
  | Context.Resource | Context.Action | Context.Environment -> []

let create services ~node =
  let t =
    {
      services;
      node;
      subject_attrs = Hashtbl.create 64;
      subscribers = [];
      c_lookups =
        Metrics.counter (Service.metrics services) ~help:"Attribute lookups served"
          ~labels:[ ("node", node) ] "pip_lookups_total";
      c_invalidations =
        Metrics.counter (Service.metrics services)
          ~help:"Attribute invalidations pushed to subscribed caches"
          ~labels:[ ("node", node) ] "pip_invalidations_sent_total";
    }
  in
  (* Batched attribute queries arrive as multi-part B/BT frames whose
     parts are ordinary AttributeQuery bodies: the RPC layer dispatches
     each part here, so one handler serves both shapes. *)
  Service.serve services ~node Wire.Services.attribute_query
    (fun ~caller:_ ~headers:_ (category, id, subject) reply ->
      Metrics.inc t.c_lookups;
      let bag = lookup t ~category ~id ~subject in
      reply (fun buf -> Wire.write_attribute_result buf bag));
  Service.serve_cast services ~node Wire.Services.attribute_subscribe
    (fun ~caller () -> if not (List.mem caller t.subscribers) then t.subscribers <- caller :: t.subscribers);
  t

let lookups_served t = Metrics.counter_value t.c_lookups
