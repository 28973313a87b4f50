type node_id = string

type message = {
  src : node_id;
  dst : node_id;
  category : string;
  payload : string;
}

type stat = { count : int; bytes : int }

(* A category's running tally, bumped in place on every message; [stat]
   copies are made only when the statistics are read. *)
type tally = { mutable messages : int; mutable total_bytes : int }

type trace_entry = { t_src : node_id; t_dst : node_id; t_category : string; t_time : float }

type t = {
  engine : Engine.t;
  nodes : (node_id, node_state) Hashtbl.t;
  latencies : (node_id, (node_id, float) Hashtbl.t) Hashtbl.t;
      (** per-link overrides under the lesser endpoint, keyed by the greater *)
  mutable default_latency : float;
  mutable drop_rate : float;
  mutable partitions : (node_id list * node_id list) list;
  sent : (string, tally) Hashtbl.t;
  delivered : (string, tally) Hashtbl.t;
  mutable dropped : int;
  mutable tracing : bool;
  mutable trace_rev : trace_entry list;
}

(* A node knows its network, so a delivery needs only the node and the
   message. *)
and node_state = {
  net : t;
  mutable handler : message -> unit;
  mutable crashed : bool;
}

let create ?seed () =
  {
    engine = Engine.create ?seed ();
    nodes = Hashtbl.create 64;
    latencies = Hashtbl.create 64;
    default_latency = 0.005;
    drop_rate = 0.0;
    partitions = [];
    sent = Hashtbl.create 16;
    delivered = Hashtbl.create 16;
    dropped = 0;
    tracing = false;
    trace_rev = [];
  }

let engine t = t.engine
let now t = Engine.now t.engine

let add_node t id =
  if not (Hashtbl.mem t.nodes id) then
    Hashtbl.add t.nodes id { net = t; handler = ignore; crashed = false }

let has_node t id = Hashtbl.mem t.nodes id

let nodes t = Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [] |> List.sort compare

let node_exn t id =
  match Hashtbl.find t.nodes id with
  | n -> n
  | exception Not_found -> invalid_arg (Printf.sprintf "Net: unknown node %s" id)

let set_handler t id handler = (node_exn t id).handler <- handler

let set_default_latency t l = t.default_latency <- l

(* A link is symmetric: its override is filed under the lesser endpoint
   and found by the greater, so a lookup builds no pair and returns no
   option. *)
let links_of t a b = Hashtbl.find t.latencies (if a <= b then a else b)
let far a b = if a <= b then b else a

let set_latency t a b l =
  let links =
    match links_of t a b with
    | links -> links
    | exception Not_found ->
      let links = Hashtbl.create 4 in
      Hashtbl.add t.latencies (if a <= b then a else b) links;
      links
  in
  Hashtbl.replace links (far a b) l

let latency t a b =
  match Hashtbl.find (links_of t a b) (far a b) with
  | l -> l
  | exception Not_found -> t.default_latency

let latency_override t a b =
  match Hashtbl.find (links_of t a b) (far a b) with l -> Some l | exception Not_found -> None

let clear_latency t a b =
  match links_of t a b with
  | links ->
    Hashtbl.remove links (far a b);
    if Hashtbl.length links = 0 then Hashtbl.remove t.latencies (if a <= b then a else b)
  | exception Not_found -> ()

let set_drop_rate t rate =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Net.set_drop_rate";
  t.drop_rate <- rate

let drop_rate t = t.drop_rate

let crash t id = (node_exn t id).crashed <- true
let recover t id = (node_exn t id).crashed <- false

let partition t group_a group_b = t.partitions <- (group_a, group_b) :: t.partitions

let unpartition t group_a group_b =
  t.partitions <-
    List.filter
      (fun (ga, gb) -> not ((ga = group_a && gb = group_b) || (ga = group_b && gb = group_a)))
      t.partitions

let partitioned t a b =
  match t.partitions with
  | [] -> false
  | partitions ->
    List.exists
      (fun (ga, gb) -> (List.mem a ga && List.mem b gb) || (List.mem a gb && List.mem b ga))
      partitions

let bump table category size =
  match Hashtbl.find table category with
  | tally ->
    tally.messages <- tally.messages + 1;
    tally.total_bytes <- tally.total_bytes + size
  | exception Not_found -> Hashtbl.add table category { messages = 1; total_bytes = size }

(* Nodes are never removed, so the state found at send time is the one
   the delivery reads; the delivery carries only it and the message. *)
let deliver dst_node msg =
  let t = dst_node.net in
  if dst_node.crashed then t.dropped <- t.dropped + 1
  else begin
    bump t.delivered msg.category (String.length msg.payload);
    if t.tracing then
      t.trace_rev <-
        { t_src = msg.src; t_dst = msg.dst; t_category = msg.category; t_time = now t }
        :: t.trace_rev;
    dst_node.handler msg
  end

(* A message allocates itself and its delivery. *)
let send t ~src ~dst ~category payload =
  let src_node = node_exn t src in
  let dst_node = node_exn t dst in
  let size = String.length payload in
  if src_node.crashed then ()
  else begin
    bump t.sent category size;
    let lost =
      partitioned t src dst
      || (t.drop_rate > 0.0 && Dacs_crypto.Rng.float (Engine.rng t.engine) 1.0 < t.drop_rate)
    in
    if lost then t.dropped <- t.dropped + 1
    else begin
      let delay = latency t src dst in
      let msg = { src; dst; category; payload } in
      Engine.schedule t.engine ~delay (fun () -> deliver dst_node msg)
    end
  end

let sorted_stats table =
  Hashtbl.fold (fun k v acc -> (k, { count = v.messages; bytes = v.total_bytes }) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let stats_by_category t = sorted_stats t.sent

let total table =
  Hashtbl.fold (fun _ v acc -> { count = acc.count + v.messages; bytes = acc.bytes + v.total_bytes })
    table { count = 0; bytes = 0 }

let total_sent t = total t.sent
let total_delivered t = total t.delivered
let dropped_count t = t.dropped

let reset_stats t =
  Hashtbl.reset t.sent;
  Hashtbl.reset t.delivered;
  t.dropped <- 0

let set_tracing t on = t.tracing <- on
let trace t = List.rev t.trace_rev

let run ?until t = Engine.run ?until t.engine
