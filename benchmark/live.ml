(* One live repetition of a workload: generate its inputs from the seed,
   stand the deployment up from public constructors, drive
   [Pep.decide_explained] open-loop at each pre-generated due time, and
   account for every answer. *)

module Net = Dacs_net.Net
module Engine = Dacs_net.Engine
module Service = Dacs_ws.Service
module Metrics = Dacs_telemetry.Metrics
module Context = Dacs_policy.Context
module Value = Dacs_policy.Value
module Decision = Dacs_policy.Decision
module Policy = Dacs_policy.Policy
module Delta = Dacs_policy.Delta
open Dacs_core

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* --- inputs ------------------------------------------------------------- *)

(* Zipf(skew) over [0, n) by Vose's alias method: O(n) set-up, one
   uniform draw per sample.  The harness's own sampler, on the stdlib
   RNG, so a change to the library's RNG or workload engine cannot
   change the inputs. *)
let zipf_sampler rs ~n ~skew =
  if skew <= 0.0 then fun () -> Random.State.int rs n
  else begin
    let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** skew)) in
    let scale = float_of_int n /. Array.fold_left ( +. ) 0.0 w in
    Array.iteri (fun i x -> w.(i) <- x *. scale) w;
    let prob = Array.make n 1.0 and alias = Array.init n Fun.id in
    let small = Array.make n 0 and large = Array.make n 0 in
    let ns = ref 0 and nl = ref 0 in
    let push i = if w.(i) < 1.0 then (small.(!ns) <- i; incr ns) else (large.(!nl) <- i; incr nl) in
    for i = 0 to n - 1 do push i done;
    while !ns > 0 && !nl > 0 do
      decr ns;
      decr nl;
      let s = small.(!ns) and l = large.(!nl) in
      prob.(s) <- w.(s);
      alias.(s) <- l;
      w.(l) <- w.(l) -. (1.0 -. w.(s));
      push l
    done;
    fun () ->
      let u = Random.State.float rs (float_of_int n) in
      let i = min (int_of_float u) (n - 1) in
      if u -. float_of_int i < prob.(i) then i else alias.(i)
  end

let roles = [| "doctor"; "nurse"; "admin" |]
let actions = [| "read"; "write" |]

type inputs = {
  due : float array;  (** virtual issue time of arrival i *)
  user : int array;  (** index into [subjects] *)
  pep : int array;
  action : int array;
  first_timed : int;  (** arrivals before this index are warm-up *)
  subjects : (string * Value.t) list array;  (** one per distinct user *)
}

let generate (w : Spec.workload) ~seed =
  let rs = Random.State.make [| seed; Hashtbl.hash w.name |] in
  let sample_user = zipf_sampler rs ~n:w.users ~skew:w.zipf in
  let horizon = w.warmup +. w.duration in
  let due = ref [] and user = ref [] and pep = ref [] and action = ref [] in
  let compact = Hashtbl.create 4096 and subjects = ref [] and distinct = ref 0 in
  let t = ref (-.log (1.0 -. Random.State.float rs 1.0) /. w.rate) in
  while !t < horizon do
    let u = sample_user () in
    let k =
      match Hashtbl.find_opt compact u with
      | Some k -> k
      | None ->
        let k = !distinct in
        Hashtbl.add compact u k;
        incr distinct;
        subjects :=
          [ ("subject-id", Value.String ("user" ^ string_of_int u));
            ("role", Value.String roles.(u mod Array.length roles)) ]
          :: !subjects;
        k
    in
    due := !t :: !due;
    user := k :: !user;
    pep := Random.State.int rs w.peps :: !pep;
    action := Random.State.int rs (Array.length actions) :: !action;
    t := !t +. (-.log (1.0 -. Random.State.float rs 1.0) /. w.rate)
  done;
  let arr l = Array.of_list (List.rev l) in
  let due = arr !due in
  let first_timed =
    let i = ref 0 in
    while !i < Array.length due && due.(!i) < w.warmup do incr i done;
    !i
  in
  { due; user = arr !user; pep = arr !pep; action = arr !action; first_timed;
    subjects = arr !subjects }

let resource_of (w : Spec.workload) pep = Printf.sprintf "res%d" (pep mod w.resources)

let policy (w : Spec.workload) gen =
  Policy.Inline_policy (Dacs_workload.Workload.churned_policy ~resources:w.resources ~gen)

(* Request contents are a function of (user, PEP, action) only, so the
   reference check can rebuild any request exactly. *)
let contexts (w : Spec.workload) inp =
  let res = Array.init w.peps (fun p -> [ ("resource-id", Value.String (resource_of w p)) ]) in
  let act = Array.map (fun a -> [ ("action-id", Value.String a) ]) actions in
  fun i ->
    Context.make ~subject:inp.subjects.(inp.user.(i)) ~resource:res.(inp.pep.(i))
      ~action:act.(inp.action.(i)) ()

(* --- deployment --------------------------------------------------------- *)

let mesh_key = Dacs_crypto.Sha256.digest "dacsbench-offline-mesh"

type deployment = {
  net : Net.t;
  metrics : Metrics.t;
  shards : Pdp_service.t list;
  shard_nodes : Net.node_id list;
  peps : Pep.t array;
  l1s : Decision_cache.t array;  (** the PEPs' own caches, when the workload has them *)
  replicas : Offline.t array;
}

let deploy (w : Spec.workload) ~seed =
  let net = Net.create ~seed:(Int64.of_int seed) () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  let metrics = Service.metrics services in
  let root = policy w 0 in
  let shards =
    List.init w.shards (fun i ->
        let node = Printf.sprintf "pdp.%d" i in
        Net.add_node net node;
        Pdp_service.create services ~node ~name:node ~root ~service_time:w.service_time ())
  in
  let shard_nodes = List.map Pdp_service.node shards in
  let domain d = Printf.sprintf "dom%d" d in
  let l2s =
    Array.init (if w.l2 then w.domains else 0) (fun d ->
        let node = domain d ^ ".l2" in
        Net.add_node net node;
        ignore (Cache_hierarchy.L2.create services ~node ~max_entries:Spec.l2_capacity ~ttl:Spec.l1_ttl ());
        node)
  in
  let replicas =
    Array.init (if w.offline then w.domains else 0) (fun d ->
        let o = Offline.create ~metrics ~now:(fun () -> Net.now net) ~key:mesh_key ~author:(domain d) () in
        Offline.publish o root;
        o)
  in
  let node i = Printf.sprintf "%s.pep%d" (domain (i mod w.domains)) i in
  let l1s =
    match w.l1 with
    | None -> [||]
    | Some cap ->
      Array.init w.peps (fun i ->
          Decision_cache.create ~metrics ~owner:(node i) ~max_entries:cap ~ttl:Spec.l1_ttl ())
  in
  let peps =
    Array.init w.peps (fun i ->
        let d = i mod w.domains and node = node i in
        Net.add_node net node;
        let tier = Pdp_tier.create services ~node ~shards:shard_nodes () in
        let cache = if Array.length l1s = 0 then None else Some l1s.(i) in
        let pep = Pep.create services ~node ~domain:(domain d) ~resource:(resource_of w i) (Pep.Sharded { tier; cache }) in
        if w.l2 then Pep.set_l2 pep (Some l2s.(d));
        if w.offline then Pep.set_offline_replica pep (Some replicas.(d));
        Option.iter
          (fun (max_inflight, max_queue) -> Pep.set_admission pep (Some { Pep.max_inflight; max_queue }))
          w.admission;
        pep)
  in
  { net; metrics; shards; shard_nodes; peps; l1s; replicas }

let mean_l1_size dep =
  if Array.length dep.l1s = 0 then 0
  else Array.fold_left (fun acc c -> acc + Decision_cache.size c) 0 dep.l1s / Array.length dep.l1s

(* --- registry counters ---------------------------------------------------- *)

(* The registry series the per-layer view divides by, read as deltas over
   the timed phase. *)
let counter_names =
  [ "pep_shed_total"; "pdp_tier_exhausted_total"; "pdp_overload_total"; "pep_offline_serves_total";
    "pdp_tier_dispatch_total"; "pdp_tier_batches_total"; "pdp_queries_total"; "l2_lookups_total";
    "l2_hits_total"; "coalesced_total"; "pep_pdp_calls_total"; "offline_decides_total";
    "offline_events_total"; "rpc_calls_total"; "rpc_batches_total"; "rpc_batch_parts_total";
    "rpc_requests_served_total"; "rpc_errors_total"; "decision_cache_hits_total";
    "decision_cache_misses_total" ]

let read_counters dep =
  let by_cache name =
    List.fold_left
      (fun acc (cache, n) -> if String.contains cache '.' && Filename.extension cache <> ".l2" then acc + n else acc)
      0
      (Metrics.sum_counter_by dep.metrics name ~label:"cache")
  in
  let served = Metrics.sum_counter_by dep.metrics "rpc_requests_served_total" ~label:"service" in
  List.map (fun n -> (n, Metrics.sum_counter dep.metrics n)) counter_names
  @ [
      ("l1_hits", by_cache "decision_cache_hits_total");
      ("l1_misses", by_cache "decision_cache_misses_total");
      ("served_authz", Option.value (List.assoc_opt "authz-query" served) ~default:0);
    ]

let delta_counters before after =
  List.map2 (fun (n, a) (_, b) -> (n, b - a)) before after

(* --- one repetition ------------------------------------------------------- *)

(* What the traced repetition records beyond an untimed one. *)
type span = { id : int; name : string; parent : int; start_ns : int64; end_ns : int64; req : int }

type capture = {
  mutable spans : span list;
  mutable next_id : int;
  sampled : (int * Context.t) Queue.t;  (** every [sample]-th request *)
  mutable publishes : (Policy.child * Policy.child * int) list;
      (** (old, new, mean L1 size before the purge), newest first *)
}

let sample = 8

(* The traced repetition's own span: every request, publish and heal span
   is its child. *)
let rep_span = 1

type rep = {
  wall_s : float;  (** timed phase only *)
  minor_words : float;  (** timed phase only *)
  heap_words : int;  (** process high-water mark after this repetition *)
  offered : int;  (** timed arrivals *)
  failed : int;  (** timed Indeterminate answers *)
  latencies : float array;  (** sorted virtual seconds of timed non-failed answers *)
  live_latencies : float array;  (** the same for answers from the live tier *)
  within_slo : int;
  msgs : int;
  bytes : int;
  counters : (string * int) list;  (** timed-phase deltas *)
  publishes : int;
  purged : int;
  heals : int;
  moved : int;  (** events exchanged by heal syncs *)
  problems : string list;  (** conservation, lateness and sync failures *)
  digest : string;  (** of every answer, its rung and its time *)
  verdict : Bytes.t;  (** decision code per request, '.' while unanswered *)
  rung : Bytes.t;  (** serving rung per request ({!rung_code}) *)
  order : int array;  (** delivery sequence number per request *)
  joined : bool array;  (** answered by an identical in-flight descent it was folded onto *)
  gen_issue : int array;
  gen_answer : int array;
  inputs : inputs;
  deployment : deployment;
  capture : capture option;
}

let code_of (d : Decision.t) =
  match d with
  | Decision.Permit -> 'P'
  | Decision.Deny -> 'D'
  | Decision.Not_applicable -> 'N'
  | Decision.Indeterminate _ -> 'I'

let rung_code (s : Provenance.stage) =
  match s with
  | Provenance.L1 -> '1'
  | Provenance.L2 -> '2'
  | Provenance.Live -> 'V'
  | Provenance.Offline -> 'O'
  | Provenance.Stale -> 'S'
  | Provenance.Fail_closed | Provenance.Shed | Provenance.Local | Provenance.Capability -> '-'

(* Set-up: the inputs, then the deployment. *)
let set_up (w : Spec.workload) ~seed =
  let inp = generate w ~seed in
  (inp, deploy w ~seed)

let run (w : Spec.workload) ~seed ~traced =
  let inp, dep = set_up w ~seed in
  let net = dep.net in
  let engine = Net.engine net in
  let n = Array.length inp.due in
  let ctx_of = contexts w inp in
  let verdict = Bytes.make n '.' and rung = Bytes.make n '.' in
  let answered_at = Array.make n nan and order = Array.make n (-1) and joined = Array.make n false in
  let delivered = ref 0 in
  let gen = ref 0 in
  let gen_issue = Array.make n 0 and gen_answer = Array.make n 0 in
  let doubles = ref 0 and lateness = ref 0.0 in
  let capture =
    if traced then Some { spans = []; next_id = rep_span + 1; sampled = Queue.create (); publishes = [] }
    else None
  in
  let span_open () = match capture with Some _ -> now_ns () | None -> 0L in
  let span_close name ?(req = -1) start =
    Option.iter
      (fun c ->
        c.spans <-
          { id = c.next_id; name; parent = rep_span; start_ns = start; end_ns = now_ns (); req } :: c.spans;
        c.next_id <- c.next_id + 1)
      capture
  in
  let answer i (r : Decision.result) (p : Provenance.t) =
    if Bytes.get verdict i <> '.' then incr doubles
    else begin
      Bytes.set verdict i (code_of r.Decision.decision);
      Bytes.set rung i (rung_code p.Provenance.stage);
      answered_at.(i) <- Net.now net;
      order.(i) <- !delivered;
      joined.(i) <- p.Provenance.coalesced;
      incr delivered;
      gen_answer.(i) <- !gen
    end
  in
  (* [Pep.decide] is [decide_explained] without the provenance record;
     the harness keeps the record's rung to tell cache answers apart. *)
  let rec issue i =
    let late = Float.abs (Net.now net -. inp.due.(i)) in
    if late > !lateness then lateness := late;
    gen_issue.(i) <- !gen;
    let ctx = ctx_of i in
    let pep = dep.peps.(inp.pep.(i)) in
    (match capture with
    | Some c when i mod sample = 0 ->
      Queue.add (i, ctx) c.sampled;
      let start = now_ns () in
      Pep.decide_explained pep ctx (fun r p ->
          answer i r p;
          span_close "request" ~req:i start)
    | Some _ | None -> Pep.decide_explained pep ctx (answer i));
    if i + 1 < n then Engine.schedule_at engine ~at:inp.due.(i + 1) (fun () -> issue (i + 1))
  in
  if n > 0 then Engine.schedule_at engine ~at:inp.due.(0) (fun () -> issue 0);
  (* Policy churn: the next generation goes to every shard and every PEP
     purges the publish's change-impact region from its L1. *)
  let publishes = ref 0 and purged = ref 0 in
  let horizon = w.warmup +. w.duration in
  (match w.churn_period with
  | None -> ()
  | Some period ->
    let current = ref (policy w 0) in
    let rec tick k =
      let at = float_of_int k *. period in
      if at < horizon then
        Engine.schedule_at engine ~at (fun () ->
            let start = span_open () in
            incr gen;
            let next = policy w !gen in
            let region = Delta.between (Some !current) (Some next) in
            Option.iter
              (fun (c : capture) -> c.publishes <- (!current, next, mean_l1_size dep) :: c.publishes)
              capture;
            current := next;
            List.iter (fun s -> Pdp_service.install_policy s next) dep.shards;
            Array.iter (fun p -> purged := !purged + Pep.invalidate_region p region) dep.peps;
            incr publishes;
            span_close "publish" start;
            tick (k + 1))
    in
    tick 1);
  (* Partition: PEPs lose every shard; at the heal the replicas leave
     offline mode and sync their logs. *)
  let heals = ref 0 and moved = ref 0 and problems = ref [] in
  (match w.partition with
  | None -> ()
  | Some (from, until) ->
    let pep_nodes = Array.to_list (Array.map Pep.node dep.peps) in
    Engine.schedule_at engine ~at:from (fun () -> Net.partition net pep_nodes dep.shard_nodes);
    Engine.schedule_at engine ~at:until (fun () ->
        let start = span_open () in
        Net.unpartition net pep_nodes dep.shard_nodes;
        Array.iter (fun o -> Offline.set_offline o false) dep.replicas;
        for d = 1 to Array.length dep.replicas - 1 do
          match Offline.sync_pair dep.replicas.(0) dep.replicas.(d) with
          | Ok k -> moved := !moved + k
          | Error e -> problems := ("heal sync: " ^ Offline.sync_error_to_string e) :: !problems
        done;
        incr heals;
        span_close "heal" start));
  Gc.full_major ();
  if w.warmup > 0.0 then Net.run ~until:w.warmup net;
  let before = read_counters dep in
  let sent0 = Net.total_sent net in
  let words0 = Gc.minor_words () in
  let wall0 = now_ns () in
  Net.run net;
  let wall_s = seconds_since wall0 in
  let minor_words = Gc.minor_words () -. words0 in
  let sent1 = Net.total_sent net in
  let counters = delta_counters before (read_counters dep) in
  Option.iter
    (fun c ->
      c.spans <- { id = rep_span; name = "live-rep"; parent = 0; start_ns = wall0; end_ns = now_ns (); req = -1 } :: c.spans)
    capture;
  (* Accounting over the timed arrivals. *)
  let offered = n - inp.first_timed in
  let failed = ref 0 and within = ref 0 and lats = ref [] and live = ref [] in
  for i = inp.first_timed to n - 1 do
    match Bytes.get verdict i with
    | '.' -> ()
    | 'I' -> incr failed
    | _ ->
      let l = answered_at.(i) -. inp.due.(i) in
      lats := l :: !lats;
      if l <= Spec.slo_seconds then incr within;
      if Bytes.get rung i = 'V' then live := l :: !live
  done;
  let sorted l =
    let a = Array.of_list l in
    Array.sort Float.compare a;
    a
  in
  let unanswered_all = ref 0 in
  Bytes.iter (fun c -> if c = '.' then incr unanswered_all) verdict;
  if !unanswered_all > 0 then
    problems := Printf.sprintf "conservation: %d of %d requests never answered" !unanswered_all n :: !problems;
  if !doubles > 0 then
    problems := Printf.sprintf "conservation: %d requests answered more than once" !doubles :: !problems;
  if !lateness > 0.0 then
    problems := Printf.sprintf "generator lateness %.3g s (must be 0)" !lateness :: !problems;
  let digest =
    let b = Buffer.create (n * 10) in
    Buffer.add_bytes b verdict;
    Buffer.add_bytes b rung;
    Array.iter (fun t -> Buffer.add_int64_le b (Int64.bits_of_float t)) answered_at;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  {
    wall_s;
    minor_words;
    heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    offered;
    failed = !failed;
    latencies = sorted !lats;
    live_latencies = sorted !live;
    within_slo = !within;
    msgs = sent1.Net.count - sent0.Net.count;
    bytes = sent1.Net.bytes - sent0.Net.bytes;
    counters;
    publishes = !publishes;
    purged = !purged;
    heals = !heals;
    moved = !moved;
    problems = List.rev !problems;
    digest;
    verdict;
    rung;
    order;
    joined;
    gen_issue;
    gen_answer;
    inputs = inp;
    deployment = dep;
    capture;
  }

let counter r name = Option.value (List.assoc_opt name r.counters) ~default:0

type verdicts = {
  wrong : int;  (** answers no generation in force during the request decides *)
  stale : int;  (** L1 answers left behind by the put-after-purge race *)
  overtaken : int;  (** coalesced answers from a descent that a publish overtook *)
}

(* Every non-Indeterminate answer must equal the reference evaluator's
   decision under a generation in force while it was in flight (from
   issue to answer).  A coalesced answer is the answer of the descent it
   was folded onto, so its flight starts when that descent's leader was
   issued: the leader is delivered just before its waiters, and is the
   last uncoalesced answer for the same request at the same PEP.  A
   publish does not cut such a flight short, so a request issued after
   the publish can receive the decision of the generation before it;
   those answers are counted apart, as [overtaken].  Another exception
   is counted apart, as [stale]: the L1's put-after-purge race.  A query
   evaluated under generation e is cached when its answer arrives under
   a later generation a, after publish a's purge already ran, so the L1
   holds a decision that was out of date when it was stored.  An L1 hit
   is stale, not wrong, when
   it returns exactly what the last live or L2 answer for that request at
   that PEP stored under generation a, and the reference decision has not
   changed from a up to the hit: every publish since the put left the
   decision alone, so no purge owed it anything, and the hit's staleness
   dates from the put.  When the decision changed after the put, a sound
   purge had to drop the entry, and the hit is wrong.  Requests are a
   function of (user, PEP resource, action), so the reference is
   memoised on that tuple and the generation. *)
let check_answers (w : Spec.workload) r =
  let inp = r.inputs in
  let ctx_of = contexts w inp in
  let policies = Hashtbl.create 16 in
  let policy_of g =
    match Hashtbl.find_opt policies g with
    | Some p -> p
    | None ->
      let p = policy w g in
      Hashtbl.add policies g p;
      p
  in
  let memo = Hashtbl.create 65536 in
  let reference i g =
    let key = (inp.user.(i), inp.pep.(i) mod w.resources, inp.action.(i), g) in
    match Hashtbl.find_opt memo key with
    | Some c -> c
    | None ->
      let c = code_of (Policy.evaluate_child (ctx_of i) (policy_of g)).Decision.decision in
      Hashtbl.add memo key c;
      c
  in
  let by_delivery = Array.make (Array.length r.order) (-1) in
  Array.iteri (fun i k -> if k >= 0 then by_delivery.(k) <- i) r.order;
  let stored = Hashtbl.create 65536 and leader = Hashtbl.create 65536 in
  let wrong = ref 0 and stale = ref 0 and overtaken = ref 0 in
  Array.iter
    (fun i ->
      if i >= 0 then begin
        let c = Bytes.get r.verdict i in
        let slot = (inp.pep.(i), inp.user.(i), inp.action.(i)) in
        if not r.joined.(i) then Hashtbl.replace leader slot r.gen_issue.(i);
        let rec current_from g = g <= r.gen_answer.(i) && (c = reference i g || current_from (g + 1)) in
        let current () =
          current_from r.gen_issue.(i)
          || r.joined.(i)
             &&
             match Hashtbl.find_opt leader slot with
             | Some g when current_from g ->
               incr overtaken;
               true
             | Some _ | None -> false
        in
        (* The reference decision is the same in every generation from
           [a] to [upto]. *)
        let rec unchanged a g upto = g > upto || (reference i g = reference i a && unchanged a (g + 1) upto) in
        match Bytes.get r.rung i with
        | _ when c = 'I' -> ()
        | '1' -> (
          let current = current () in
          match Hashtbl.find_opt stored slot with
          | Some (v, a) when v = c ->
            if not current then
              if unchanged a (a + 1) r.gen_issue.(i) then incr stale else incr wrong
          | Some _ | None -> incr wrong)
        | rung ->
          if not (current ()) then incr wrong;
          if rung = 'V' || rung = '2' then Hashtbl.replace stored slot (c, r.gen_answer.(i))
      end)
    by_delivery;
  { wrong = !wrong; stale = !stale; overtaken = !overtaken }

(* The deterministic face of a repetition: everything that depends only
   on the seed.  Repetitions (and runs) with one seed must agree on it
   byte for byte. *)
let deterministic r =
  let l = r.latencies in
  String.concat "\n"
    ([
       Printf.sprintf "offered %d failed %d within_slo %d" r.offered r.failed r.within_slo;
       Printf.sprintf "latency p50 %h p99 %h p999 %h max %h" (Stats.percentile l 0.5)
         (Stats.percentile l 0.99) (Stats.percentile l 0.999) (Stats.percentile l 1.0);
       Printf.sprintf "msgs %d bytes %d publishes %d purged %d heals %d moved %d" r.msgs r.bytes
         r.publishes r.purged r.heals r.moved;
       "answers " ^ r.digest;
     ]
    @ List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) r.counters)
