module Service = Dacs_ws.Service
module Engine = Dacs_net.Engine
module Net = Dacs_net.Net
module Metrics = Dacs_telemetry.Metrics

type t = {
  services : Service.t;
  node : Net.node_id;
  lease : float;
  (* (kind, node) -> (expiry, registration order) *)
  entries : (string * Net.node_id, float * int) Hashtbl.t;
  c_registrations : Metrics.counter;
  c_lookups : Metrics.counter;
  mutable next_order : int;
}

let now t = Net.now (Service.net t.services)

let lookup t ~kind =
  let live =
    Hashtbl.fold
      (fun (k, n) (expiry, order) acc ->
        if k = kind && expiry > now t then (order, n) :: acc else acc)
      t.entries []
  in
  List.map snd (List.sort compare live)

let registrations t = Metrics.counter_value t.c_registrations

let create services ~node ?(lease = 10.0) () =
  let metrics = Service.metrics services in
  let own ?help n = Metrics.counter metrics ?help ~labels:[ ("node", node) ] n in
  let t =
    {
      services;
      node;
      lease;
      entries = Hashtbl.create 32;
      c_registrations = own "discovery_registrations_total" ~help:"Register calls served";
      c_lookups = own "discovery_lookups_total" ~help:"Discover calls served";
      next_order = 0;
    }
  in
  Service.serve services ~node Wire.Services.register
    (fun ~caller ~headers:_ (kind, advertised) reply ->
      (* Only accept self-advertisements: the caller vouches for itself.
         A node advertising someone else could keep a dead replica
         alive in the registry. *)
      if advertised <> caller then reply (Service.sender_fault "nodes may only advertise themselves")
      else begin
        Metrics.inc t.c_registrations;
        let order =
          match Hashtbl.find_opt t.entries (kind, advertised) with
          | Some (_, order) -> order
          | None ->
            t.next_order <- t.next_order + 1;
            t.next_order
        in
        Hashtbl.replace t.entries (kind, advertised) (now t +. t.lease, order);
        reply Wire.write_register_ack
      end);
  Service.serve services ~node Wire.Services.discover
    (fun ~caller:_ ~headers:_ kind reply ->
      Metrics.inc t.c_lookups;
      let endpoints = lookup t ~kind in
      reply (fun buf -> Wire.write_endpoints buf endpoints));
  t

let advertise t ~services ~node ~kind () =
  let engine = Net.engine (Service.net services) in
  let period = t.lease /. 2.0 in
  let rec renew () =
    (* A crashed node's sends are dropped by the network, so the
       advertisement naturally lapses; the loop keeps ticking and renews
       again after recovery. *)
    Service.call services ~src:node ~dst:t.node ~breaker:true Wire.Services.register
      (fun buf -> Wire.write_register buf ~kind ~node)
      ignore;
    Engine.schedule engine ~delay:period renew
  in
  renew ()

let auto_rebind t ~pep ~kind ?period () =
  let period = Option.value period ~default:t.lease in
  let engine = Net.engine (Service.net t.services) in
  let pep_node = Pep.node pep in
  let rec refresh () =
    Service.call t.services ~src:pep_node ~dst:t.node ~breaker:true Wire.Services.discover
      (fun buf -> Wire.write_discover buf ~kind)
      (fun response ->
        (match response with
        | Ok (Ok (_ :: _ as endpoints)) -> Pep.set_pull_pdps pep endpoints
        | Ok (Ok []) | Ok (Error _) | Error _ -> () (* keep the last known list *));
        Engine.schedule engine ~delay:period refresh)
  in
  refresh ()
