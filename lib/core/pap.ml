module Engine = Dacs_net.Engine
module Service = Dacs_ws.Service
module Policy = Dacs_policy.Policy
module Delta = Dacs_policy.Delta
module Decision = Dacs_policy.Decision
module Context = Dacs_policy.Context
module Value = Dacs_policy.Value
module Metrics = Dacs_telemetry.Metrics

type t = {
  services : Service.t;
  node : Dacs_net.Net.node_id;
  name : string;
  c_queries : Metrics.counter;
  c_accepted : Metrics.counter;
  c_rejected : Metrics.counter;
  mutable admin_policy : Policy.child option;
  mutable root : Policy.child option;
  mutable version : int;
  mutable subscribers : Dacs_net.Net.node_id list;
  mutable update_transform : Policy.child -> Policy.child option;
  mutable hooks : (Delta.t -> unit) list;  (* in registration order *)
  mutable parent : Dacs_net.Net.node_id option;  (* the anti-entropy parent *)
  known : (Dacs_net.Net.node_id, int) Hashtbl.t;
      (* each upstream PAP's version as last pushed (or, for the parent,
         polled); kept apart from [version], which local accepts bump, so
         comparing against that would loop *)
}

let node t = t.node
let version t = t.version
let current t = t.root
let subscribers t = t.subscribers

let set_admin_policy t p = t.admin_policy <- Some p
let set_update_transform t f = t.update_transform <- f
let on_update t hook = t.hooks <- t.hooks @ [ hook ]

let known_version t node = Option.value (Hashtbl.find_opt t.known node) ~default:0

let queries_served t = Metrics.counter_value t.c_queries
let updates_accepted t = Metrics.counter_value t.c_accepted
let updates_rejected t = Metrics.counter_value t.c_rejected

(* The admin policy decides whether [caller] may update this PAP. *)
let admin_permits t ~caller =
  match t.admin_policy with
  | None -> false
  | Some policy ->
    let ctx =
      Context.make
        ~subject:[ ("subject-id", Value.String caller) ]
        ~resource:[ ("resource-id", Value.String t.name) ]
        ~action:[ ("action-id", Value.String "policy-update") ]
        ()
    in
    Decision.is_permit (Policy.evaluate_child ctx policy)

let push_to_subscribers t =
  match t.root with
  | None -> ()
  | Some root ->
    List.iter
      (fun child ->
        Service.cast t.services ~src:t.node ~dst:child Wire.Services.policy_update (fun buf ->
            Wire.write_policy_update buf ~version:t.version root))
      t.subscribers

(* The one place a policy change is announced: every accepted update
   (local publish, pushed [policy-update], anti-entropy pull) computes its
   change-impact region once and hands it to the hooks, after the pushes
   to subscribers so message order does not depend on who listens. *)
let accept_update t child =
  let region = Delta.between t.root (Some child) in
  t.root <- Some child;
  t.version <- t.version + 1;
  Metrics.inc t.c_accepted;
  push_to_subscribers t;
  List.iter (fun hook -> hook region) t.hooks

(* A syndicated update, pushed or pulled, is stored as the local
   transform makes it, or ignored when the transform declines it. *)
let adopt t child =
  match t.update_transform child with
  | Some stored ->
    accept_update t stored;
    true
  | None -> false

let publish = accept_update

let create services ~node ~name ?admin_policy ?root () =
  let metrics = Service.metrics services in
  let own ?help n = Metrics.counter metrics ?help ~labels:[ ("node", node) ] n in
  let t =
    {
      services;
      node;
      name;
      c_queries = own "pap_queries_total" ~help:"Policy queries served";
      c_accepted = own "pap_updates_accepted_total" ~help:"Policy updates accepted";
      c_rejected = own "pap_updates_rejected_total" ~help:"Policy updates rejected";
      admin_policy;
      root;
      version = (match root with None -> 0 | Some _ -> 1);
      subscribers = [];
      update_transform = Option.some;
      hooks = [];
      parent = None;
      known = Hashtbl.create 2;
    }
  in
  Service.serve services ~node Wire.Services.policy_query
    (fun ~caller:_ ~headers:_ (_scope, known_version) reply ->
      Metrics.inc t.c_queries;
      let policy = if known_version >= t.version then None else t.root in
      reply (fun buf -> Wire.write_policy_response buf ~version:t.version policy));
  Service.serve_cast services ~node Wire.Services.policy_update
    (fun ~caller (remote_version, child) ->
      (* Every caller, a syndicating parent we subscribed to included,
         needs the admin policy's blessing; an authorised update must
         then pass the local transform.  Each authorised push records
         its caller's version, which a later anti-entropy pull from that
         caller starts from; a push from the anti-entropy parent whose
         version is already known was adopted before. *)
      if not (admin_permits t ~caller) then Metrics.inc t.c_rejected
      else if not (t.parent = Some caller && remote_version <= known_version t caller) then begin
        Hashtbl.replace t.known caller remote_version;
        if not (adopt t child) then Metrics.inc t.c_rejected
      end);
  t

let subscribe_local t ~child =
  if not (List.mem child t.subscribers) then t.subscribers <- child :: t.subscribers

let enable_anti_entropy t ~parent ~period =
  let engine = Dacs_net.Net.engine (Service.net t.services) in
  t.parent <- Some parent;
  let rec poll () =
    Service.call t.services ~src:t.node ~dst:parent Wire.Services.policy_query
      (fun buf -> Wire.write_policy_query buf ~scope:"" ~known_version:(known_version t parent))
      (fun result ->
        (match result with
        | Ok (Ok (version, Some child)) when version > known_version t parent ->
          Hashtbl.replace t.known parent version;
          ignore (adopt t child : bool)
        | Ok (Ok (version, None)) -> Hashtbl.replace t.known parent (max (known_version t parent) version)
        | Ok (Ok (_, Some _)) | Ok (Error _) | Error _ -> ());
        Engine.schedule engine ~delay:period poll)
  in
  poll ()
