module Engine = Dacs_net.Engine
module Service = Dacs_ws.Service
module Policy = Dacs_policy.Policy
module Compiled = Dacs_policy.Compiled
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
  mutable compiled : Compiled.t option;  (* kept in step with [root] *)
  mutable version : int;
  mutable subscribers : Dacs_net.Net.node_id list;
  mutable update_filter : Policy.child -> bool;
  mutable update_transform : Policy.child -> Policy.child;
  mutable last_region : Dacs_policy.Delta.t;
  mutable parent : Dacs_net.Net.node_id option;  (* the anti-entropy parent *)
  mutable parent_version : int;
      (* parent's version as last pushed/polled; kept apart from [version],
         which local accepts bump, so comparing against that would loop *)
}

let node t = t.node
let version t = t.version
let current t = t.root
let compilation_epoch t = match t.compiled with None -> 0 | Some c -> Compiled.epoch c
let subscribers t = t.subscribers

let set_admin_policy t p = t.admin_policy <- Some p
let set_update_filter t f = t.update_filter <- f
let set_update_transform t f = t.update_transform <- f
let last_region t = t.last_region

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
        Service.call_frame t.services ~src:t.node ~dst:child ~service:"policy-update"
          ~read:Wire.read_policy_update_ack
          (fun buf -> Wire.write_policy_update buf ~version:t.version root)
          ignore)
      t.subscribers

let accept_update t child =
  let before = t.root in
  t.root <- Some child;
  (* Incremental recompilation: unchanged leaf policies keep their
     compiled form; the epoch moves only when the tree actually changed,
     so PDPs can cheaply detect a semantic update. *)
  t.compiled <-
    Some
      (match t.compiled with
      | None -> Compiled.compile child
      | Some prev -> Compiled.recompile prev child);
  t.version <- t.version + 1;
  Metrics.inc t.c_accepted;
  (* Change-impact analysis over the same structural diff recompilation
     reuses: a no-op publish yields an Empty region (and a preserved
     compilation epoch), a bounded edit yields the zones the
     invalidation plane purges instead of flushing VO-wide. *)
  t.last_region <- Dacs_policy.Delta.between before (Some child);
  push_to_subscribers t

let publish t child = accept_update t child

let lookup t id =
  match t.root with
  | None -> None
  | Some root ->
    if Policy.child_id root = id then Some root
    else begin
      match root with
      | Policy.Inline_set s ->
        List.find_opt (fun c -> Policy.child_id c = id) s.Policy.children
      | Policy.Inline_policy _ | Policy.Policy_ref _ -> None
    end

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
      compiled = Option.map Compiled.compile root;
      version = (match root with None -> 0 | Some _ -> 1);
      subscribers = [];
      update_filter = (fun _ -> true);
      update_transform = (fun c -> c);
      last_region = Dacs_policy.Delta.empty;
      parent = None;
      parent_version = 0;
    }
  in
  Service.serve_frame services ~node ~service:"policy-query" ~read:Wire.read_policy_query
    (fun ~caller:_ ~headers:_ (_scope, known_version) reply ->
      Metrics.inc t.c_queries;
      let policy = if known_version >= t.version then None else t.root in
      reply (fun buf -> Wire.write_policy_response buf ~version:t.version policy));
  Service.serve_frame services ~node ~service:"policy-update" ~read:Wire.read_policy_update
    (fun ~caller ~headers:_ (remote_version, child) reply ->
      let refuse reason =
        Metrics.inc t.c_rejected;
        reply (Service.receiver_fault reason)
      in
      (* Every caller, a syndicating parent we subscribed to included,
         needs the admin policy's blessing; an authorised update must
         then pass the local filter.  A push from the anti-entropy
         parent moves the version its polls report as known, and one
         whose version is already known was adopted before. *)
      let from_parent = t.parent = Some caller in
      if not (admin_permits t ~caller) then refuse "policy update not authorised"
      else if from_parent && remote_version <= t.parent_version then
        reply (fun buf -> Wire.write_policy_update_ack buf ~version:t.version)
      else begin
        if from_parent then t.parent_version <- remote_version;
        if not (t.update_filter child) then refuse "update rejected by local constraints"
        else begin
          accept_update t (t.update_transform child);
          reply (fun buf -> Wire.write_policy_update_ack buf ~version:t.version)
        end
      end);
  t

let subscribe_local t ~child =
  if not (List.mem child t.subscribers) then t.subscribers <- child :: t.subscribers

let enable_anti_entropy t ~parent ~period =
  let engine = Dacs_net.Net.engine (Service.net t.services) in
  t.parent <- Some parent;
  let rec poll () =
    Service.call_frame t.services ~src:t.node ~dst:parent ~service:"policy-query" ~read:Wire.read_policy_response
      (fun buf -> Wire.write_policy_query buf ~scope:"" ~known_version:t.parent_version)
      (fun result ->
        (match result with
        | Ok (Ok (version, Some child)) when version > t.parent_version ->
          t.parent_version <- version;
          if t.update_filter child then accept_update t (t.update_transform child)
        | Ok (Ok (version, None)) -> t.parent_version <- max t.parent_version version
        | Ok (Ok (_, Some _)) | Ok (Error _) | Error _ -> ());
        Engine.schedule engine ~delay:period poll)
  in
  poll ()
