(* The gated experiments: E16-E19, E21, E23 and the seven gated dacs scenarios
   (tier, cache, explain, slo, offline, load, delta).  Each is an
   Experiment.v whose gates are declared up front.  Where a scenario and
   a bench experiment build the same setup, one function below builds
   it for both and takes only what differs between them (seed, users,
   actions, shard count). *)

open Dacs_core
open Common

(* Under --json stdout carries only the JSON document. *)
let log json = if json then stderr else stdout

(* ==================================================================== *)
(* A sharded, batched PDP tier: dacs tier, E16                          *)
(* ==================================================================== *)

type tier_run = {
  shard_nodes : string list;
  answered : int;
  granted : int;
  makespan : float;  (** first burst to last answer, virtual seconds *)
  msgs : int;
  stats : Pdp_tier.stats;
  dispatched : string -> int;
  evaluated : string -> int;
}

(* [requests] distinct admins burst at t=0.5 through one enforcement point
   in front of [shards] PDP replicas behind a batched, hash-partitioned
   tier, so the requests spread across the shards and coalesce into
   batches.  With [crash], shard 0 crashes at t=2 and the burst repeats
   at t=3 to show failure remapping. *)
let sharded_burst ~seed ~shards ~batch ~requests ?service_time ~crash () =
  let net = Net.create ~seed:(Int64.of_int seed) () in
  let rpc = Rpc.create net in
  let services = Service.create rpc in
  let policy = admins_read_policy "tier-policy" in
  let shard_nodes =
    List.init shards (fun i ->
        let node = Printf.sprintf "pdp.%d" i in
        Net.add_node net node;
        ignore (Pdp_service.create services ~node ~name:node ~root:policy ?service_time ());
        node)
  in
  Net.add_node net "pep";
  let tier = Pdp_tier.create services ~node:"pep" ~shards:shard_nodes ~batch () in
  let pep =
    Pep.create services ~node:"pep" ~domain:"demo" ~resource:"demo-resource" ~content:"42"
      (Pep.Sharded { tier; cache = None })
  in
  let granted = ref 0 and answered = ref 0 and last = ref 0.5 in
  let burst at =
    List.iter
      (fun i ->
        Engine.schedule_at (Net.engine net) ~at (fun () ->
            let node = Printf.sprintf "cli.%d.%g" i at in
            Net.add_node net node;
            let user = Printf.sprintf "user%d" i in
            let client =
              Client.create services ~node
                ~subject:[ ("subject-id", Value.String user); ("role", Value.String "admin") ]
            in
            Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:10.0 (fun r ->
                incr answered;
                last := Float.max !last (Net.now net);
                match r with Ok (Wire.Granted _) -> incr granted | _ -> ())))
      (List.init requests (fun i -> i))
  in
  burst 0.5;
  if crash then begin
    Engine.schedule_at (Net.engine net) ~at:2.0 (fun () -> Net.crash net (List.hd shard_nodes));
    burst 3.0
  end;
  Net.run net;
  let counter labels name = Metrics.counter_value (Metrics.counter (Rpc.metrics rpc) ~labels name) in
  {
    shard_nodes;
    answered = !answered;
    granted = !granted;
    makespan = !last -. 0.5;
    msgs = (Net.total_sent net).Net.count;
    stats = Pdp_tier.stats tier;
    dispatched = (fun s -> counter [ ("node", "pep"); ("shard", s) ] "pdp_tier_dispatch_total");
    evaluated = (fun s -> counter [ ("node", s) ] "pdp_queries_total");
  }

let tier shards batch seed requests json =
  Experiment.v "tier" ~gates:[ Gate.exact "all-requests-granted" ] ~log:(log json) @@ fun x ->
  if shards < 1 then begin
    prerr_endline "tier: --shards must be >= 1";
    exit 2
  end;
  if batch < 1 then begin
    prerr_endline "tier: --batch must be >= 1";
    exit 2
  end;
  let r = sharded_burst ~seed ~shards ~batch ~requests ~crash:true () in
  let s = r.stats and total = 2 * requests in
  let crashed = List.hd r.shard_nodes in
  if json then begin
    let shard_json =
      String.concat ","
        (List.map
           (fun shard ->
             Printf.sprintf "{\"shard\":%s,\"dispatched\":%d,\"evaluated\":%d}" (Metrics.json_string shard)
               (r.dispatched shard) (r.evaluated shard))
           r.shard_nodes)
    in
    Printf.printf
      "{\"seed\":%d,\"shards\":%d,\"batch\":%d,\"requests\":%d,\"answered\":%d,\"granted\":%d,\"shard_load\":[%s],\"tier\":{\"dispatched\":%d,\"batches\":%d,\"failovers\":%d,\"hedges\":%d,\"exhausted\":%d}}\n"
      seed shards batch total r.answered r.granted shard_json s.Pdp_tier.dispatched
      s.Pdp_tier.batches s.Pdp_tier.failovers s.Pdp_tier.hedges s.Pdp_tier.exhausted
  end
  else begin
    Printf.printf
      "sharded PDP tier: %d shards, batch limit %d, %d requests (burst of %d before and after \
       crashing %s)\n\n"
      shards batch total requests crashed;
    Printf.printf "%-10s %12s %12s\n" "shard" "dispatched" "evaluated";
    List.iter
      (fun shard ->
        Printf.printf "%-10s %12d %12d%s\n" shard (r.dispatched shard) (r.evaluated shard)
          (if shard = crashed then "   (crashed at t=2)" else ""))
      r.shard_nodes;
    Printf.printf
      "\ntier: %d dispatched, %d batches, %d failovers and %d hedges after the crash, %d failed \
       closed\n"
      s.Pdp_tier.dispatched s.Pdp_tier.batches s.Pdp_tier.failovers s.Pdp_tier.hedges
      s.Pdp_tier.exhausted;
    Printf.printf "outcome: %d/%d answered, %d granted\n\n" r.answered total r.granted
  end;
  Experiment.check x "all-requests-granted" (r.granted = total)
    (Printf.sprintf "%d/%d" r.granted total)

let e16 =
  Experiment.v "e16"
    ~gates:Gate.[ exact "all-requests-granted"; exact "balanced-shards";
                  ratio "speedup>=3x at 4 shards" ~at_least:3.0 ]
  @@ fun x ->
  header "E16  Sharded, batched PDP tier (shard count x batch size ablation)"
    "hash-partitioning the Fig. 3 flow across PDP replicas multiplies sustained \
     throughput near-linearly in shards (>= 3x at 4 shards over 1), and batching \
     cuts per-request message cost without changing any decision";
  let requests = 200 in
  (* The dacs tier burst without the crash, with 4 ms of PDP evaluation
     capacity per query.  Throughput is requests / virtual makespan, so
     it measures the architecture (queueing at the decision points), not
     the host machine. *)
  let run ~shards ~batch =
    sharded_burst ~seed:1 ~shards ~batch ~requests ~service_time:0.004 ~crash:false ()
  in
  let tput r = float_of_int requests /. r.makespan in
  let base = tput (run ~shards:1 ~batch:8) in
  Printf.printf "%-22s %8s %10s %10s %9s %9s %11s\n" "configuration" "granted" "makespan" "req/s"
    "speedup" "msgs/req" "mean batch";
  let short = ref [] in
  let row ~shards ~batch =
    let label = Printf.sprintf "%d shard%s, batch %d" shards (if shards = 1 then "" else "s") batch in
    let r = run ~shards ~batch in
    Printf.printf "%-22s %8d %9.3fs %10.0f %8.2fx %9.1f %11.1f\n" label r.granted r.makespan (tput r)
      (tput r /. base)
      (float_of_int r.msgs /. float_of_int requests)
      (float_of_int r.stats.Pdp_tier.dispatched /. float_of_int (max 1 r.stats.Pdp_tier.batches));
    if r.granted <> requests then
      short := Printf.sprintf "%s: %d/%d" label r.granted requests :: !short
  in
  List.iter (fun shards -> row ~shards ~batch:8) [ 1; 2; 4; 8 ];
  List.iter (fun batch -> row ~shards:4 ~batch) [ 1; 4; 16 ];
  (* The balanced workload the gates read: 4 shards, batch 8. *)
  let four = run ~shards:4 ~batch:8 in
  let per_shard = List.map (fun n -> (n, four.evaluated n)) four.shard_nodes in
  Printf.printf "\nper-shard evaluations (4 shards, batch 8):\n";
  List.iter (fun (node, n) -> Printf.printf "  %-14s %6d evaluations\n" node n) per_shard;
  print_newline ();
  Experiment.check x "all-requests-granted" (!short = [])
    (if !short = [] then "every configuration granted every request"
     else "short: " ^ String.concat ", " (List.rev !short));
  let least = List.fold_left (fun acc (_, n) -> min acc n) max_int per_shard in
  Experiment.check x "balanced-shards" (least > 0)
    (Printf.sprintf "least-loaded of %d shards evaluated %d queries" (List.length per_shard) least);
  Experiment.ratio x "speedup>=3x at 4 shards" (tput four) base;
  (* The busiest shard is the makespan: its share of the evaluations is
     what placement balance costs the speedup. *)
  let busiest = List.fold_left (fun acc (_, n) -> max acc n) 0 per_shard in
  let evaluations = List.fold_left (fun acc (_, n) -> acc + n) 0 per_shard in
  Experiment.metric x "busiest_shard_share"
    (float_of_int busiest /. float_of_int (max 1 evaluations));
  Experiment.metric x "one_shard_req_s" base;
  Experiment.metric x "four_shards_req_s" (tput four);
  Experiment.metric x "speedup_4_shards" (tput four /. base)

(* ==================================================================== *)
(* The decision-cache ladder: dacs cache, E17                           *)
(* ==================================================================== *)

type ladder = {
  total : int;
  granted : int;
  cold_mpr : float;
  warm_mpr : float;
  frames : int;  (** attribute frames the PDP sent *)
  served : int;  (** attribute lookups the PIP answered *)
  l1_hits : int;
  l2_hits : int;
  coalesced : int;
  p50 : float;
  p99 : float;
}

(* Two pull PEPs guard one resource before a PDP that resolves every
   subject attribute from a PIP (optionally caching it), optionally over
   a shared L2.  Every (user, action) pair, one virtual second apart,
   runs down the ladder: a cold pass at replica 0 with a same-instant
   duplicate (the coalescing opportunity), a replica pass at replica 1
   (the L2 opportunity), then a warm pass at both (all L1). *)
let cache_ladder ~seed ~users ~actions ~l2 ~attr_cache =
  let net = Net.create ~seed:(Int64.of_int seed) () in
  let services = Service.create (Rpc.create net) in
  let add id =
    Net.add_node net id;
    id
  in
  (* Deny-overrides over independent permit conditions: one decision
     needs both subject attributes, neither carried by the client. *)
  let policy =
    Policy.Inline_policy
      (Policy.make ~id:"attr-heavy" ~rule_combining:Combine.Deny_overrides
         [
           Rule.permit ~condition:(Expr.one_of (Expr.subject_attr "role") [ "doctor" ]) "by-role";
           Rule.permit
             ~condition:(Expr.one_of (Expr.subject_attr "clearance") [ "secret" ])
             "by-clearance";
         ])
  in
  let pip = Pip.create services ~node:(add "pip") in
  let pdp =
    Pdp_service.create services ~node:(add "pdp") ~name:"pdp" ~root:policy ~pips:[ "pip" ]
      ?attr_cache_ttl:(if attr_cache then Some 3600.0 else None)
      ()
  in
  let l2 =
    if l2 then Some (Cache_hierarchy.L2.create services ~node:(add "l2") ~ttl:3600.0 ()) else None
  in
  let peps =
    List.init 2 (fun i ->
        let cache = Some (Decision_cache.create ~ttl:3600.0 ()) in
        let node = add (Printf.sprintf "pep%d" i) in
        let tier = Pdp_tier.ordered services ~node ~pdps:[ "pdp" ] ~call_timeout:5.0 in
        let pep =
          Pep.create services ~node ~domain:"demo" ~resource:"demo-resource" ~content:"42"
            (Pep.Sharded { tier; cache })
        in
        Option.iter (fun l2 -> Pep.set_l2 pep (Some (Cache_hierarchy.L2.node l2))) l2;
        pep)
  in
  let pep0 = List.nth peps 0 and pep1 = List.nth peps 1 in
  let pairs =
    List.concat_map
      (fun i ->
        let user = Printf.sprintf "user%d" i in
        List.iter
          (fun (id, v) -> Pip.add_subject_attribute pip ~subject:user ~id (Value.String v))
          [ ("role", "doctor"); ("clearance", "secret") ];
        let client =
          Client.create services
            ~node:(add ("cli." ^ user))
            ~subject:[ ("subject-id", Value.String user) ]
        in
        List.map (fun action -> (client, action)) actions)
      (List.init users Fun.id)
  in
  let granted = ref 0 and total = ref 0 and lats = Loghist.create () in
  let issue (client, action) pep ~at =
    incr total;
    Engine.schedule_at (Net.engine net) ~at (fun () ->
        let t0 = Net.now net in
        Client.request client ~pep:(Pep.node pep) ~action ~timeout:5.0 (fun r ->
            Loghist.observe lats (Net.now net -. t0);
            match r with Ok (Wire.Granted _) -> incr granted | _ -> ()))
  in
  let phase f =
    let t0 = Net.now net +. 1.0 in
    List.iteri (fun i pair -> f pair (t0 +. float_of_int i)) pairs;
    Net.run net
  in
  phase (fun p at ->
      issue p pep0 ~at;
      issue p pep0 ~at);
  phase (fun p at -> issue p pep1 ~at);
  let cold_requests = !total in
  let cold_mpr = float_of_int (Net.total_sent net).Net.count /. float_of_int cold_requests in
  Net.reset_stats net;
  phase (fun p at ->
      issue p pep0 ~at;
      issue p pep1 ~at);
  let warm_mpr =
    float_of_int (Net.total_sent net).Net.count /. float_of_int (!total - cold_requests)
  in
  let stat f = List.fold_left (fun acc pep -> acc + f (Pep.stats pep)) 0 peps in
  {
    total = !total;
    granted = !granted;
    cold_mpr;
    warm_mpr;
    frames = (Pdp_service.stats pdp).Pdp_service.pip_fetches;
    served = Pip.lookups_served pip;
    l1_hits = stat (fun s -> s.Pep.cache_hits);
    l2_hits = stat (fun s -> s.Pep.l2_hits);
    coalesced = stat (fun s -> s.Pep.coalesced);
    p50 = 1000.0 *. Loghist.quantile lats 0.50;
    p99 = 1000.0 *. Loghist.quantile lats 0.99;
  }

let cache seed json =
  Experiment.v "cache" ~log:(log json)
    ~gates:Gate.[ exact "all-requests-granted"; exact "warm-path-msgs-per-req" ]
  @@ fun x ->
  let users = 4 in
  let r = cache_ladder ~seed ~users ~actions:[ "read" ] ~l2:true ~attr_cache:true in
  if json then
    Printf.printf
      "{\"seed\":%d,\"requests\":%d,\"granted\":%d,\"warm_msgs_per_req\":%.2f,\"attr_frames\":%d,\"attrs_served\":%d,\"l1_hits\":%d,\"l2_hits\":%d,\"coalesced\":%d}\n"
      seed r.total r.granted r.warm_mpr r.frames r.served r.l1_hits r.l2_hits r.coalesced
  else begin
    Printf.printf
      "cache hierarchy: %d users, 2 PEP replicas over one shared L2, attribute-caching PDP\n\n"
      users;
    Printf.printf "%-44s %8d\n" "requests granted" r.granted;
    Printf.printf "%-44s %8d\n" "requests issued" r.total;
    Printf.printf "%-44s %8.2f\n" "warm-path messages per request" r.warm_mpr;
    Printf.printf "%-44s %8d\n" "attribute fetch frames (batched)" r.frames;
    Printf.printf "%-44s %8d\n" "attributes served by the PIP" r.served;
    Printf.printf "%-44s %8d\n" "L1 hits" r.l1_hits;
    Printf.printf "%-44s %8d\n" "shared L2 hits" r.l2_hits;
    Printf.printf "%-44s %8d\n" "coalesced (single-flight)" r.coalesced;
    print_newline ()
  end;
  Experiment.check x "all-requests-granted" (r.granted = r.total) (Printf.sprintf "%d/%d" r.granted r.total);
  Experiment.check x "warm-path-msgs-per-req" (r.warm_mpr < 2.2)
    (Printf.sprintf "%.2f < 2.2" r.warm_mpr)

let e17 =
  Experiment.v "e17"
    ~gates:Gate.[ exact "all-requests-granted"; exact "warm msgs/req < 2.2 (full config)";
                  ratio "attr RPCs/decision reduced >= 2x by batching" ~at_least:2.0 ]
  @@ fun x ->
  header "E17  Hierarchical caching + batched attribute resolution (ablation)"
    "stacking the cache hierarchy — per-PEP L1 with single-flight coalescing, \
     domain-shared L2, PDP attribute cache — cuts warm-path message cost to the \
     bare request/response pair (< 2.2 msgs/req) without changing any decision, \
     and batched PIP fetches answer >= 2x as many attribute lookups as they \
     send frames";
  (* The dacs cache ladder at 12 users x 3 actions, one arm per level. *)
  let configs =
    [ ("l1 only", false, false); ("+ shared l2", true, false); ("+ attr cache = full", true, true) ]
  in
  Printf.printf "%-20s %9s %9s %9s %11s %11s %8s %10s %9s %9s\n" "configuration" "granted" "cold m/r"
    "warm m/r" "attr frames" "attr served" "l2 hits" "coalesced" "p50 (ms)" "p99 (ms)";
  let short = ref [] in
  let results =
    List.map
      (fun (label, l2, attr_cache) ->
        let r =
          cache_ladder ~seed:1 ~users:12 ~actions:[ "read"; "write"; "audit" ] ~l2 ~attr_cache
        in
        Printf.printf "%-20s %4d/%-4d %9.2f %9.2f %11d %11d %8d %10d %9.2f %9.2f\n" label r.granted
          r.total r.cold_mpr r.warm_mpr r.frames r.served r.l2_hits r.coalesced r.p50 r.p99;
        if r.granted <> r.total then short := Printf.sprintf "%s: %d/%d" label r.granted r.total :: !short;
        r)
      configs
  in
  (* Batching, measured within the full run: a one-RPC-per-attribute
     fetch would send one frame per lookup the PIP served. *)
  let full = List.nth results (List.length results - 1) in
  let lookups_per_frame = float_of_int full.served /. float_of_int (max 1 full.frames) in
  print_newline ();
  Experiment.check x "all-requests-granted" (!short = [])
    (if !short = [] then "every configuration granted every request"
     else "short: " ^ String.concat ", " (List.rev !short));
  Experiment.check x "warm msgs/req < 2.2 (full config)" (full.warm_mpr < 2.2)
    (Printf.sprintf "%.2f" full.warm_mpr);
  Experiment.ratio x "attr RPCs/decision reduced >= 2x by batching"
    ~detail:(Printf.sprintf "%d lookups in %d frames" full.served full.frames)
    (float_of_int full.served) (float_of_int (max 1 full.frames));
  Experiment.metric x "warm_msgs_per_req" full.warm_mpr;
  Experiment.metric x "attr_frame_reduction" lookups_per_frame;
  Experiment.count x "attr_queries_served" full.served;
  Experiment.count x "attr_frames" full.frames

(* ==================================================================== *)
(* E18 — workload engine: overload protection ablation                  *)
(* ==================================================================== *)

let e18 =
  Experiment.v "e18"
    ~gates:Gate.[ exact "conservation"; exact "shedding-engages"; exact "p99-bounded";
                  exact "no-shed-below-saturation"; exact "cache-relieves-shedding";
                  exact "determinism" ]
  @@ fun x ->
  header "E18  Open-loop workload vs overload protection (rate x shards x cache)"
    "under open-loop Poisson arrivals past saturation, the bounded admission \
     queue sheds the excess (pep_shed_total > 0) while p99 latency of admitted \
     requests stays bounded; below saturation nothing is shed; the L1 decision \
     cache relieves shedding at the same offered rate; and the whole report is \
     byte-identical across same-seed runs";
  let scenario ~rate ~shards ~cache_ttl =
    {
      W.default with
      W.seed = 7;
      shards;
      cache_ttl;
      arrivals = W.Open_loop { rate };
      duration = 4.0;
    }
  in
  Printf.printf "%-28s %8s %8s %8s %6s %9s %8s %9s %9s\n" "configuration" "offered" "granted"
    "shed" "pdp-ov" "req/s" "p50 (s)" "p99 (s)" "max (s)";
  let rows =
    List.concat_map
      (fun rate ->
        List.concat_map
          (fun shards ->
            List.map
              (fun cache_ttl ->
                let r = W.run (scenario ~rate ~shards ~cache_ttl) in
                let label =
                  Printf.sprintf "%4.0f req/s %d shard%s %s" rate shards
                    (if shards = 1 then " " else "s")
                    (if cache_ttl > 0.0 then "cache" else "no-cache")
                in
                Printf.printf "%-28s %8d %8d %8d %6d %9.1f %8.4f %9.4f %9.4f\n" label r.W.offered
                  r.W.granted r.W.shed r.W.pdp_overloads r.W.throughput r.W.latency.W.p50
                  r.W.latency.W.p99 r.W.latency.W.max;
                ((rate, shards, cache_ttl), r))
              [ 0.0; 30.0 ])
          [ 1; 4 ])
      [ 100.0; 400.0; 1600.0 ]
  in
  let get rate shards cache_ttl = List.assoc (rate, shards, cache_ttl) rows in
  let check = Experiment.check x in
  (* Every row must conserve requests regardless of load. *)
  let conserved = List.for_all (fun (_, r) -> W.conservation_ok r) rows in
  print_newline ();
  check "conservation"
    conserved
    (Printf.sprintf "%d configurations, completed = offered and answers sum up in each" (List.length rows));
  let saturated = get 1600.0 1 0.0 in
  check "shedding-engages" (saturated.W.shed > 0)
    (Printf.sprintf "1600 req/s on 1 shard no-cache sheds %d of %d" saturated.W.shed
       saturated.W.offered);
  let worst_p99 =
    List.fold_left (fun acc (_, r) -> Float.max acc r.W.latency.W.p99) 0.0 rows
  in
  check "p99-bounded" (worst_p99 <= 2.0)
    (Printf.sprintf "worst admitted p99 %.4fs <= 2.0s across the grid" worst_p99);
  let light = get 100.0 4 0.0 in
  check "no-shed-below-saturation"
    (light.W.shed = 0 && light.W.pdp_overloads = 0)
    (Printf.sprintf "100 req/s on 4 shards sheds %d, overloads %d" light.W.shed
       light.W.pdp_overloads);
  let cached = get 1600.0 1 30.0 in
  check "cache-relieves-shedding"
    (cached.W.shed < saturated.W.shed)
    (Printf.sprintf "shed %d with cache vs %d without at 1600 req/s on 1 shard" cached.W.shed
       saturated.W.shed);
  let rerun = W.run (scenario ~rate:1600.0 ~shards:1 ~cache_ttl:0.0) in
  check "determinism"
    (W.render rerun = W.render saturated)
    "same-seed saturating run renders byte-identical";
  Experiment.count x "shed_saturated_1_shard" saturated.W.shed;
  Experiment.count x "shed_saturated_cached" cached.W.shed;
  Experiment.metric x "worst_admitted_p99_s" worst_p99

(* ==================================================================== *)
(* E19 — compiled evaluation vs the interpreter reference               *)
(* ==================================================================== *)

let e19 =
  Experiment.v "e19"
    ~gates:Gate.[ exact "decisions-identical";
                  ratio "compiled-speedup>=5x on deep tree" ~at_least:5.0;
                  no_worse "flat-words-regression" ~key:"compiled_words_flat_1000" ~better:`Lower;
                  no_worse "deep-words-regression" ~key:"compiled_words_deep_tree" ~better:`Lower ]
  @@ fun x ->
  header "E19  Compiled vs interpreted evaluation (target-indexed dispatch, §3.1 scalability)"
    "compiling the policy tree into per-(resource, action) buckets makes \
     per-decision cost depend on the matching rules, not the store size: \
     >= 5x cheaper than the interpreter reference on a deep tree, identical \
     decisions everywhere; the minor words one compiled evaluation allocates \
     are deterministic and must not grow against the previous ledger entry";
  let diverged = ref [] and compared = ref 0 in
  let result_equal (a : Decision.result) (b : Decision.result) =
    Decision.equal_decision a.Decision.decision b.Decision.decision
    && a.Decision.obligations = b.Decision.obligations
  in
  (* Minor words per call, a deterministic count. *)
  let words f =
    let rounds = 1000 in
    let before = Gc.minor_words () in
    for _ = 1 to rounds do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. before) /. float_of_int rounds
  in
  (* Flat policies: one leaf, n resource-pinned rules, worst-case request. *)
  Printf.printf "%8s %16s %14s %10s %12s %16s\n" "rules" "interpreted (us)" "compiled (us)" "speedup"
    "candidates" "compiled words";
  let flat =
    List.map
      (fun n ->
        let child = Policy.Inline_policy (sized_policy n) in
        let c = Dacs_policy.Compiled.compile child in
        let ctx = request_for (n - 1) in
        incr compared;
        if not (result_equal (Policy.evaluate_child ctx child) (Dacs_policy.Compiled.evaluate ctx c))
        then diverged := Printf.sprintf "flat %d rules" n :: !diverged;
        let interp = time_us (fun () -> ignore (Policy.evaluate_child ctx child)) in
        let comp = time_us (fun () -> ignore (Dacs_policy.Compiled.evaluate ctx c)) in
        let comp_words = words (fun () -> Dacs_policy.Compiled.evaluate ctx c) in
        Printf.printf "%8d %16.2f %14.2f %9.1fx %12d %16.1f\n" n interp comp (interp /. comp)
          (Dacs_policy.Compiled.candidate_count c ctx)
          comp_words;
        (n, interp /. comp, comp_words))
      [ 10; 100; 1000; 10000 ]
  in
  (* Deep tree: a policy set fanning out to many leaves, each with many
     pinned rules — the shape where an interpreter walks everything and
     compiled dispatch touches one bucket per leaf. *)
  let policies = 16 and rules_per = 64 in
  let deep =
    Policy.Inline_set
      (Policy.make_set ~id:"deep" ~policy_combining:Combine.Deny_overrides
         (List.init policies (fun p ->
              Policy.Inline_policy
                (Policy.make
                   ~id:(Printf.sprintf "p%d" p)
                   ~rule_combining:Combine.First_applicable
                   (List.init rules_per (fun i ->
                        Rule.permit
                          ~target:
                            Target.(
                              any |> resource_is "resource-id" (Printf.sprintf "res%d-%d" p i))
                          (Printf.sprintf "r%d-%d" p i)))))))
  in
  let c = Dacs_policy.Compiled.compile deep in
  let deep_ctx =
    Context.make ~subject:(doctor_subject "alice")
      ~resource:
        [ ("resource-id", Value.String (Printf.sprintf "res%d-%d" (policies - 1) (rules_per - 1))) ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  (* Equivalence over a spread of requests, including misses. *)
  List.iter
    (fun rid ->
      let ctx =
        Context.make ~subject:(doctor_subject "alice")
          ~resource:[ ("resource-id", Value.String rid) ]
          ~action:[ ("action-id", Value.String "read") ]
          ()
      in
      incr compared;
      if not (result_equal (Policy.evaluate_child ctx deep) (Dacs_policy.Compiled.evaluate ctx c))
      then diverged := Printf.sprintf "deep tree on %s" rid :: !diverged)
    [ "res0-0"; "res7-31"; "res15-63"; "nosuch" ];
  let interp = time_us (fun () -> ignore (Policy.evaluate_child deep_ctx deep)) in
  let comp = time_us (fun () -> ignore (Dacs_policy.Compiled.evaluate deep_ctx c)) in
  let deep_speedup = interp /. comp in
  let deep_words = words (fun () -> Dacs_policy.Compiled.evaluate deep_ctx c) in
  Printf.printf "\ndeep tree (%d policies x %d rules, worst-case request):\n" policies rules_per;
  Printf.printf "%-28s %14.2f us\n%-28s %14.2f us  (%.1fx, %d candidates of %d rules)\n"
    "interpreted" interp "compiled" comp deep_speedup
    (Dacs_policy.Compiled.candidate_count c deep_ctx)
    (Dacs_policy.Compiled.rule_count c);
  Printf.printf "%-28s %14.1f\n" "compiled minor words" deep_words;
  print_newline ();
  Experiment.check x "decisions-identical" (!diverged = [])
    (if !diverged = [] then Printf.sprintf "%d requests, compiled = interpreter" !compared
     else "diverged: " ^ String.concat ", " (List.rev !diverged));
  Experiment.ratio x "compiled-speedup>=5x on deep tree" interp comp;
  List.iter
    (fun (n, s, _) -> Experiment.metric x (Printf.sprintf "flat_speedup_%d_rules" n) s)
    flat;
  List.iter
    (fun (n, _, w) -> if n = 1000 then Experiment.metric x ~digits:1 "compiled_words_flat_1000" w)
    flat;
  Experiment.metric x ~digits:1 "compiled_words_deep_tree" deep_words;
  Experiment.metric x "deep_tree_speedup" deep_speedup;
  Experiment.metric x "deep_tree_interpreted_us" interp;
  Experiment.metric x "deep_tree_compiled_us" comp

(* ==================================================================== *)
(* Offline authorization: dacs offline, E21                             *)
(* ==================================================================== *)

(* The same partition-window workload without and with offline replicas
   (fail closed vs served from the signed log), then the replica-level
   story end to end: diverge under partition, reject a tampered segment,
   heal, deny-wins replay with conflict surfacing and retroactive
   invalidation. *)
let offline seed json =
  Experiment.v "offline" ~log:(log json)
    ~gates:Gate.[ exact "partition-fails-closed-without-offline";
                  exact "offline-serves-during-partition"; exact "offline-reduces-fail-closed";
                  exact "conservation"; exact "tampered-segment-rejected";
                  exact "post-heal-convergence"; exact "deny-wins-retroactively" ]
  @@ fun x ->
  let module O = Offline in
  let partition = Some { W.from = 1.0; until = 3.0 } in
  let base = W.run { W.default with W.seed; partition } in
  let off = W.run { W.default with W.seed; partition; offline = true } in
  (* Replica-level: two domains, a shared history, then a partition-era
     race — alpha grants carol and serves an offline Permit from that
     grant while beta, unaware, revokes her. *)
  let now = ref 0.0 in
  let tick () = now := !now +. 1.0 in
  let mk name = O.create ~now:(fun () -> !now) ~key:"dacs-offline-smoke-key" ~author:name () in
  let a = mk "alpha" and b = mk "beta" in
  let pol =
    Policy.make ~id:"offline-demo" ~rule_combining:Combine.First_applicable
      [
        Rule.permit ~condition:(Expr.one_of (Expr.subject_attr "role") [ "doctor" ]) "doctors";
        Rule.deny "default-deny";
      ]
  in
  tick ();
  O.publish a (Policy.Inline_policy pol);
  tick ();
  O.grant a ~subject:"alice" ~attr:"role" ~value:"doctor";
  let shared_sync = match O.sync_pair a b with Ok _ -> true | Error _ -> false in
  tick ();
  O.grant a ~subject:"carol" ~attr:"role" ~value:"doctor";
  let ctx_carol =
    Context.make
      ~subject:[ ("subject-id", Value.String "carol") ]
      ~resource:[ ("resource-id", Value.String "chart") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  tick ();
  let offline_permit =
    match O.decide a ctx_carol with
    | Some (r, _) -> r.Decision.decision = Decision.Permit
    | None -> false
  in
  tick ();
  O.revoke b ~subject:"carol" ~attr:"role";
  (* A mutated copy of beta's suffix must be refused outright... *)
  let tampered =
    List.map (fun ev -> { ev with O.at = ev.O.at +. 0.5 }) (O.missing_for b ~frontier:(O.frontier a))
  in
  let known_before = (O.stats a).O.events_known in
  let tamper_rejected, tamper_error =
    match O.admit a tampered with
    | Error e -> ((O.stats a).O.events_known = known_before, O.sync_error_to_string e)
    | Ok n -> (false, Printf.sprintf "admitted %d tampered events" n)
  in
  (* ... while the honest exchange converges both replicas. *)
  let healed = match O.sync_pair a b with Ok _ -> true | Error _ -> false in
  let converged = healed && O.state_digest a = O.state_digest b in
  let deny_wins = not (List.mem ("carol", "role", "doctor") (O.surviving_grants a)) in
  let conflict_surfaced = List.exists (fun c -> c.O.c_subject = "carol") (O.conflicts a) in
  let invalidated = (O.stats a).O.invalidations >= 1 in
  if json then
    Printf.printf "{\"seed\":%d,\"baseline\":%s,\"offline\":%s}\n" seed (W.render_json base)
      (W.render_json off)
  else begin
    Printf.printf "offline mode (seed %d): partition window [1s, 3s) of a %.0fs run\n\n" seed
      W.default.W.duration;
    Printf.printf "without offline replicas (fail closed):\n";
    print_string (W.render base);
    Printf.printf "\nwith offline replicas (served from the signed log):\n";
    print_string (W.render off);
    print_newline ()
  end;
  let check = Experiment.check x in
  check "partition-fails-closed-without-offline"
    (base.W.errors > 0 && base.W.offline_serves = 0)
    (Printf.sprintf "%d fail-closed answers during the partition window" base.W.errors);
  check "offline-serves-during-partition" (off.W.offline_serves > 0)
    (Printf.sprintf "%d decisions served from the signed log" off.W.offline_serves);
  check "offline-reduces-fail-closed" (off.W.errors < base.W.errors)
    (Printf.sprintf "errors %d -> %d" base.W.errors off.W.errors);
  check "conservation"
    (W.conservation_ok base && W.conservation_ok off)
    "every offered request answered exactly once in both runs";
  check "tampered-segment-rejected" tamper_rejected
    (Printf.sprintf "whole segment refused, log untouched (%s)" tamper_error);
  check "post-heal-convergence" (shared_sync && converged)
    (Printf.sprintf "state digests byte-identical (%s)" (String.sub (O.state_digest a) 0 12));
  check "deny-wins-retroactively"
    (offline_permit && deny_wins && conflict_surfaced && invalidated)
    "offline grant defeated, conflict surfaced, offline Permit invalidated"

(* The reconciliation cost: a 4-domain mesh diverges across a partition
   (concurrent grants, revocations and offline decisions), then heals
   over a ring anti-entropy topology.  Convergence rounds, replayed
   events, deny-wins conflicts and retroactive invalidations are all
   deterministic, so they gate against the previous ledger entry. *)
let e21 =
  Experiment.v "e21"
    ~gates:Gate.[ exact "post-heal-convergence";
                  exact "deny-wins"; exact "retroactive-invalidation";
                  no_worse "convergence-rounds-regression" ~key:"convergence_rounds"
                    ~better:`Lower;
                  no_worse "replayed-events-regression" ~key:"replayed_events" ~better:`Lower;
                  no_worse "rechecked-regression" ~key:"rechecked" ~better:`Lower;
                  no_worse "invalidations-regression" ~key:"retroactive_invalidations"
                    ~better:`Lower;
                  no_worse "offline-decide-words-regression" ~key:"words_per_offline_decide"
                    ~better:`Lower;
                  no_worse "heal-words-regression" ~key:"words_per_heal_event" ~better:`Lower;
                  no_worse "logged-bytes-regression" ~key:"logged_bytes_per_decide"
                    ~better:`Lower ]
  @@ fun x ->
  header "E21  Partition -> heal reconciliation (offline authorization)"
    "after a partition, heal reconverges every offline replica by deny-wins \
     replay in a bounded number of anti-entropy rounds — convergence rounds, \
     replayed events, re-checked decisions and retroactive invalidations are \
     deterministic and must not worsen against the previous ledger entry";
  let module O = Offline in
  let n = 4 in
  let now = ref 0.0 in
  let tick () = now := !now +. 1.0 in
  let reps =
    Array.init n (fun i ->
        O.create ~now:(fun () -> !now) ~key:"e21-mesh-key"
          ~author:(Printf.sprintf "dom%d" i) ())
  in
  let pol =
    Policy.make ~id:"e21" ~rule_combining:Combine.First_applicable
      [
        Rule.permit ~condition:(Expr.one_of (Expr.subject_attr "role") [ "doctor" ]) "doctors";
        Rule.deny "default-deny";
      ]
  in
  let user u = Printf.sprintf "user%d" u in
  let ctx_for u =
    Context.make
      ~subject:[ ("subject-id", Value.String (user u)) ]
      ~resource:[ ("resource-id", Value.String "chart") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  (* one pull round over a connectivity relation; returns events moved *)
  let sync_round conn =
    let moved = ref 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && conn i j then
          match O.admit reps.(i) (O.missing_for reps.(j) ~frontier:(O.frontier reps.(i))) with
          | Ok k -> moved := !moved + k
          | Error e -> Printf.printf "  !! sync rejected: %s\n" (O.sync_error_to_string e)
      done
    done;
    !moved
  in
  let full _ _ = true in
  let intra i j = i < 2 = (j < 2) in
  let ring i j = j = (i + 1) mod n in
  (* shared history: policy + ten doctors, fully synced *)
  tick ();
  O.publish reps.(0) (Policy.Inline_policy pol);
  for u = 0 to 9 do
    tick ();
    O.grant reps.(0) ~subject:(user u) ~attr:"role" ~value:"doctor"
  done;
  ignore (sync_round full);
  (* partition {dom0,dom1} | {dom2,dom3}: component A grants five new
     users and keeps deciding for the old ones; component B revokes the
     old ones (and two of A's concurrent grants' subjects — the deny-wins
     races).  Intra-component anti-entropy keeps each side converged. *)
  for u = 10 to 14 do
    tick ();
    O.grant reps.(0) ~subject:(user u) ~attr:"role" ~value:"doctor"
  done;
  let offline_decides = ref 0 in
  let decide_words = ref 0.0 in
  for u = 0 to 4 do
    tick ();
    let w0 = Gc.minor_words () in
    let served = O.decide reps.(0) (ctx_for u) in
    decide_words := !decide_words +. (Gc.minor_words () -. w0);
    (match served with Some _ -> incr offline_decides | None -> ());
    tick ();
    O.revoke reps.(2) ~subject:(user u) ~attr:"role"
  done;
  tick ();
  O.revoke reps.(3) ~subject:(user 10) ~attr:"role";
  tick ();
  O.revoke reps.(3) ~subject:(user 11) ~attr:"role";
  ignore (sync_round intra);
  (* The canonical bytes of each offline Decide ([Wire.write_log_link]'s):
     what the chain hashes at append and again at every admission. *)
  let logged_bytes =
    let buf = Buffer.create 1024 in
    List.fold_left
      (fun acc ev ->
        match ev.O.kind with
        | O.Decide _ ->
          Buffer.clear buf;
          Wire.write_log_link buf ev;
          acc + Buffer.length buf
        | _ -> acc)
      0 (O.events reps.(0))
  in
  let logged_bytes_per_decide = float_of_int logged_bytes /. float_of_int (max 1 !offline_decides) in
  (* heal over the ring: count rounds until every digest is identical *)
  let converged () =
    let d0 = O.state_digest reps.(0) in
    Array.for_all (fun o -> O.state_digest o = d0) reps
  in
  let rounds = ref 0 and heal_moved = ref 0 in
  let w0 = Gc.minor_words () in
  while (not (converged ())) && !rounds < 16 do
    incr rounds;
    heal_moved := !heal_moved + sync_round ring
  done;
  let heal_words = Gc.minor_words () -. w0 in
  let words_per_decide = !decide_words /. float_of_int (max 1 !offline_decides) in
  let words_per_heal_event = heal_words /. float_of_int (max 1 !heal_moved) in
  let total f = Array.fold_left (fun acc o -> acc + f (O.stats o)) 0 reps in
  let replayed = total (fun s -> s.O.replayed_events) in
  let rechecked = total (fun s -> s.O.rechecked) in
  let invalidations = total (fun s -> s.O.invalidations) in
  let conflicts = List.length (O.conflicts reps.(0)) in
  Printf.printf "reconciliation (4 domains, 2-2 partition, ring anti-entropy):\n";
  Printf.printf "  %-32s %8d\n" "offline decisions under partition" !offline_decides;
  Printf.printf "  %-32s %8d\n" "convergence rounds (ring)" !rounds;
  Printf.printf "  %-32s %8d\n" "events replayed (all replicas)" replayed;
  Printf.printf "  %-32s %8d\n" "Decides re-checked (all replicas)" rechecked;
  Printf.printf "  %-32s %8d\n" "retroactive invalidations" invalidations;
  Printf.printf "  %-32s %8d\n" "deny-wins conflicts" conflicts;
  Printf.printf "  %-32s %8.1f\n" "minor words per offline decide" words_per_decide;
  Printf.printf "  %-32s %8.1f\n" "minor words per heal-moved event" words_per_heal_event;
  Printf.printf "  %-32s %8.1f\n" "canonical bytes per Decide" logged_bytes_per_decide;
  print_newline ();
  let check = Experiment.check x in
  check "post-heal-convergence" (converged ())
    (Printf.sprintf "all digests identical after %d ring rounds" !rounds);
  check "deny-wins"
    ((not (List.mem (user 10, "role", "doctor") (O.surviving_grants reps.(0))))
    && List.mem (user 12, "role", "doctor") (O.surviving_grants reps.(0)))
    "concurrent revoke defeats the offline grant; uncontested grants survive";
  check "retroactive-invalidation"
    (invalidations >= n)
    (Printf.sprintf "%d contradicted offline decisions purged" invalidations);
  Experiment.count x "offline_decides_partition" !offline_decides;
  Experiment.count x "convergence_rounds" !rounds;
  Experiment.count x "replayed_events" replayed;
  Experiment.count x "rechecked" rechecked;
  Experiment.count x "retroactive_invalidations" invalidations;
  Experiment.count x "conflicts" conflicts;
  Experiment.metric x ~digits:1 "words_per_offline_decide" words_per_decide;
  Experiment.metric x ~digits:1 "words_per_heal_event" words_per_heal_event;
  Experiment.metric x ~digits:1 "logged_bytes_per_decide" logged_bytes_per_decide

(* ==================================================================== *)
(* The churn corpus: dacs delta, E23                                    *)
(* ==================================================================== *)

let churn_request ~role ~res ~act =
  Context.make
    ~subject:[ ("subject-id", Value.String ("u-" ^ role)); ("role", Value.String role) ]
    ~resource:[ ("resource-id", Value.String res) ]
    ~action:[ ("action-id", Value.String act) ]
    ()

(* The workload's policy-churn family over [resources] resources, as
   generation -> policy, and every (role, resource, action) request. *)
let churn_corpus ~resources =
  ( (fun gen -> Policy.Inline_policy (W.churned_policy ~resources ~gen)),
    List.concat_map
      (fun role ->
        List.concat_map
          (fun r ->
            List.map
              (fun act -> churn_request ~role ~res:(Printf.sprintf "res%d" r) ~act)
              [ "read"; "write" ])
          (List.init resources Fun.id))
      [ "doctor"; "nurse"; "admin" ] )

(* Each publish's change-impact region over the corpus, a soundness
   spot-check against direct evaluation, and what a targeted
   invalidation saves an L1 cache over the full flush. *)
let delta json =
  Experiment.v "delta" ~log:(log json)
    ~gates:Gate.[ exact "no-op-publish-empty"; exact "first-publish-unbounded";
                  exact "rule-add-covered"; exact "soundness-sample"; exact "targeted-drops-fewer" ]
  @@ fun x ->
  let module Delta = Dacs_policy.Delta in
  let resources = 4 in
  let root, ctxs = churn_corpus ~resources in
  let region01 = Delta.between (Some (root 0)) (Some (root 1)) in
  let region12 = Delta.between (Some (root 1)) (Some (root 2)) in
  (* Every context the region does not cover must decide identically
     under both generations. *)
  let sound region old_root new_root =
    List.for_all
      (fun c ->
        Delta.covers region c
        || Policy.evaluate_child c old_root = Policy.evaluate_child c new_root)
      ctxs
  in
  (* Warm an L1 over the population, then invalidate with the publish's
     region instead of a full flush. *)
  let cache = Decision_cache.create ~max_entries:1024 ~ttl:3600.0 () in
  List.iter
    (fun c ->
      Decision_cache.put cache ~now:0.0 ~key:(Decision_cache.request_key c)
        (Policy.evaluate_child c (root 1)))
    ctxs;
  let warm = Decision_cache.size cache in
  let dropped = Decision_cache.invalidate_region cache region12 in
  let verdicts =
    [
      ( "no-op-publish-empty",
        Delta.is_empty (Delta.between (Some (root 1)) (Some (root 1))),
        "publishing an identical policy yields the empty region" );
      ( "first-publish-unbounded",
        Delta.is_unbounded (Delta.between None (Some (root 0))),
        "publishing over no previous policy degrades to the full flush" );
      ( "rule-add-covered",
        Delta.covers region01 (churn_request ~role:"admin" ~res:"res1" ~act:"read"),
        "the added admins-read rule's requests fall inside the region" );
      ( "soundness-sample",
        sound region01 (root 0) (root 1) && sound region12 (root 1) (root 2),
        "every context outside the region decides identically pre/post publish" );
      ( "targeted-drops-fewer",
        dropped > 0 && dropped < warm,
        Printf.sprintf "region dropped %d of %d warm entries (full flush drops all)" dropped warm );
    ]
  in
  if json then begin
    let fields =
      List.map (fun (name, ok, _) -> Printf.sprintf "%s:%b" (Metrics.json_string name) ok) verdicts
    in
    Printf.printf
      "{\"region_0_1\":%s,\"region_1_2\":%s,\"zones_1_2\":%d,\"warm\":%d,\"dropped\":%d,%s}\n"
      (Metrics.json_string (Delta.to_string region01))
      (Metrics.json_string (Delta.to_string region12))
      (Delta.zone_count region12) warm dropped (String.concat "," fields)
  end
  else begin
    Printf.printf "change-impact regions over the churn family (%d resources):\n\n" resources;
    Printf.printf "publish gen0 -> gen1 (adds admins-read-churn on res1):\n  %s\n\n"
      (Delta.to_string region01);
    Printf.printf "publish gen1 -> gen2 (retargets it to res2):\n  %s\n\n"
      (Delta.to_string region12);
    Printf.printf "targeted invalidation: dropped %d of %d warm L1 entries\n\n" dropped warm
  end;
  List.iter (fun (name, ok, detail) -> Experiment.check x name ok detail) verdicts

(* ==================================================================== *)
(* E23 — policy churn: targeted region invalidation vs full flush       *)
(* ==================================================================== *)

(* A sequential churn corpus: G policy generations over a fixed request
   population, decided through an L1 decision cache under three arms —
   targeted region invalidation (Delta.between), full flush, and an
   uncached Policy.evaluate reference.  No request is ever in flight
   across a publish, so the three decision streams must be
   byte-identical, and the targeted arm must retain strictly more warm
   entries.  Then the cost of one publish's purge over a warm L1. *)

let e23 =
  Experiment.v "e23"
    ~gates:Gate.[ exact "corpus-decisions-identical"; exact "corpus-hit-retention";
                  exact "corpus-targeted-drops-fewer"; exact "regions-bounded";
                  exact "missed-cache-skipped";
                  no_worse "purge-words-regression" ~key:"purge_words_per_entry"
                    ~better:`Lower ]
  @@ fun x ->
  header "E23  Policy churn: targeted region invalidation vs full flush"
    "a publish's change-impact region purges only the affected cached \
     decisions: decision streams stay byte-identical to a full flush and an \
     uncached reference, while the targeted arm retains strictly more warm \
     entries";
  let module D = Dacs_policy.Delta in
  let check = Experiment.check x in
  let resources = 8 and generations = 12 in
  let root, ctxs = churn_corpus ~resources in
  let decide_cached cache child ctx =
    let key = Decision_cache.request_key ctx in
    match Decision_cache.get cache ~now:0.0 ~key with
    | Some r -> r
    | None ->
      let r = Policy.evaluate_child ctx child in
      Decision_cache.put cache ~now:0.0 ~key r;
      r
  in
  let max_zones = ref 0 and region_unbounded = ref false in
  (* The three arms decide the whole corpus side by side, each recording
     its decision stream. *)
  let targeted = Decision_cache.create ~max_entries:4096 ~ttl:3600.0 () in
  let full = Decision_cache.create ~max_entries:4096 ~ttl:3600.0 () in
  let bt = Buffer.create 1024 and bf = Buffer.create 1024 and br = Buffer.create 1024 in
  let record buf (r : Decision.result) =
    Buffer.add_string buf (Decision.decision_to_string r.Decision.decision);
    Buffer.add_char buf ';'
  in
  let p_tdrop = ref 0 and p_fdrop = ref 0 in
  for gen = 0 to generations do
    if gen > 0 then begin
      let region = D.between (Some (root (gen - 1))) (Some (root gen)) in
      max_zones := max !max_zones (D.zone_count region);
      if D.is_unbounded region then region_unbounded := true;
      p_tdrop := !p_tdrop + Decision_cache.invalidate_region targeted region;
      p_fdrop := !p_fdrop + Decision_cache.invalidate_region full D.unbounded
    end;
    List.iter
      (fun ctx ->
        record bt (decide_cached targeted (root gen) ctx);
        record bf (decide_cached full (root gen) ctx);
        record br (Policy.evaluate_child ctx (root gen)))
      ctxs
  done;
  let p_thits = (Decision_cache.stats targeted).Decision_cache.hits in
  let p_fhits = (Decision_cache.stats full).Decision_cache.hits in
  Printf.printf "sequential corpus (%d resources, %d publishes, %d requests/generation):\n"
    resources generations (List.length ctxs);
  Printf.printf "  %14s %14s %14s %14s\n" "targeted hits" "flush hits" "targeted drops"
    "flush drops";
  Printf.printf "  %14d %14d %14d %14d\n" p_thits p_fhits !p_tdrop !p_fdrop;
  print_newline ();
  check "corpus-decisions-identical"
    (Buffer.contents bt = Buffer.contents bf && Buffer.contents bf = Buffer.contents br)
    "targeted = full-flush = uncached reference, byte-identical streams";
  check "corpus-hit-retention" (p_thits > p_fhits)
    (Printf.sprintf "%d targeted hits > %d flush hits" p_thits p_fhits);
  check "corpus-targeted-drops-fewer" (!p_tdrop < !p_fdrop)
    (Printf.sprintf "%d targeted drops < %d flush drops" !p_tdrop !p_fdrop);
  check "regions-bounded"
    ((not !region_unbounded) && !max_zones <= 4)
    (Printf.sprintf "every consecutive-generation region bounded, max %d zones" !max_zones);
  (* -- purge cost: one consecutive-generation purge of a warm L1 ------- *)
  let purge_entries = 4096 in
  let region = D.between (Some (root 1)) (Some (root 2)) in
  let warm_l1 roles =
    let warm = Decision_cache.create ~max_entries:purge_entries ~ttl:3600.0 () in
    for i = 0 to purge_entries - 1 do
      let ctx =
        Context.make
          ~subject:
            [
              ("subject-id", Value.String (Printf.sprintf "purge-%d" i));
              ("role", Value.String roles.(i mod Array.length roles));
            ]
          ~resource:[ ("resource-id", Value.String (Printf.sprintf "res%d" (i / 3 mod resources))) ]
          ~action:[ ("action-id", Value.String (if i / 24 mod 2 = 0 then "read" else "write")) ]
          ()
      in
      Decision_cache.put warm ~now:0.0 ~key:(Decision_cache.request_key ctx) Decision.permit
    done;
    warm
  in
  let purged, purge_words =
    let warm = warm_l1 [| "doctor"; "nurse"; "admin" |] in
    let before = Gc.minor_words () in
    let purged = Decision_cache.invalidate_region warm region in
    (purged, Gc.minor_words () -. before)
  in
  (* A second L1 holds no admin key, so the region's admin pin excludes
     every entry.  After the previous publish's purge has counted it, the
     census proves the region missed and the purge visits no entry. *)
  let missed_dropped, missed_scans =
    let missed = warm_l1 [| "doctor"; "nurse" |] in
    ignore (Decision_cache.invalidate_region missed (D.between (Some (root 0)) (Some (root 1))));
    let scans = Decision_cache.region_scans missed in
    let dropped = Decision_cache.invalidate_region missed region in
    (dropped, Decision_cache.region_scans missed - scans)
  in
  Printf.printf
    "purge cost: one publish's region over a warm %d-entry L1 dropped %d entries \
     in %.0f minor words (%.3f per entry)\n"
    purge_entries purged purge_words
    (purge_words /. float_of_int purge_entries);
  Printf.printf
    "missed cache: the same region over a warm %d-entry L1 with no key in it dropped %d \
     entries in %d scans\n\n"
    purge_entries missed_dropped missed_scans;
  check "missed-cache-skipped"
    (missed_dropped = 0 && missed_scans = 0)
    (Printf.sprintf "%d dropped, %d scans of a cache the region provably misses" missed_dropped
       missed_scans);
  Experiment.count x "seq_targeted_hits" p_thits;
  Experiment.count x "seq_full_hits" p_fhits;
  Experiment.count x "seq_targeted_drops" !p_tdrop;
  Experiment.count x "seq_full_drops" !p_fdrop;
  Experiment.count x "max_region_zones" !max_zones;
  Experiment.count x "purge_dropped" purged;
  Experiment.count x "missed_cache_scans" missed_scans;
  Experiment.metric x "purge_words_per_entry" (purge_words /. float_of_int purge_entries)

(* ==================================================================== *)
(* dacs explain, slo and load                                           *)
(* ==================================================================== *)

(* Walk one request population down every rung of the decision ladder —
   cold (live), a same-instant duplicate (coalesced), a replica pass
   (shared L2), a warm pass (L1), then crash the decision tier for a
   bounded-stale serve and a fail-closed miss — and answer "who decided
   this and how" from the audit log: one provenance record per decision,
   plus the latency attribution and critical path of the run. *)
let explain seed json =
  Experiment.v "explain" ~log:(log json)
    ~gates:Gate.[ exact "every-decision-has-provenance"; exact "stage-live"; exact "stage-l2";
                  exact "stage-l1"; exact "stage-stale"; exact "stage-fail-closed";
                  exact "coalesced-flagged" ]
  @@ fun x ->
  let net = Net.create ~seed:(Int64.of_int seed) () in
  let rpc = Rpc.create net in
  let services = Service.create rpc in
  Rpc.set_tracing rpc true;
  let add id =
    Net.add_node net id;
    id
  in
  ignore
    (Pdp_service.create services ~node:(add "pdp") ~name:"pdp"
       ~root:(admins_read_policy "explain-policy") ());
  let l2 = Cache_hierarchy.L2.create services ~node:(add "l2") ~ttl:3600.0 () in
  let audit = Audit.create () in
  let peps =
    List.init 2 (fun i ->
        let cache = Some (Decision_cache.create ~ttl:3.0 ()) in
        let node = add (Printf.sprintf "pep%d" i) in
        let tier = Pdp_tier.ordered services ~node ~pdps:[ "pdp" ] ~call_timeout:0.4 in
        let pep =
          Pep.create services ~node ~domain:"demo" ~resource:"demo-resource" ~content:"42" ~audit
            (Pep.Sharded { tier; cache })
        in
        Pep.set_l2 pep (Some (Cache_hierarchy.L2.node l2));
        Pep.set_stale_window pep 30.0;
        pep)
  in
  let pep0 = List.nth peps 0 and pep1 = List.nth peps 1 in
  let client user node =
    Client.create services ~node:(add node)
      ~subject:[ ("subject-id", Value.String user); ("role", Value.String "admin") ]
  in
  let alice = client "alice" "cli0"
  and alice_dup = client "alice" "cli0b"
  and alice_replica = client "alice" "cli1"
  and bob = client "bob" "cli2" in
  let req client pep ~at =
    Engine.schedule_at (Net.engine net) ~at (fun () ->
        Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:10.0 (fun _ -> ()))
  in
  (* cold + same-instant duplicate: live leader, coalesced waiter *)
  req alice pep0 ~at:1.0;
  req alice_dup pep0 ~at:1.0;
  (* replica pass answered by the shared L2 *)
  req alice_replica pep1 ~at:2.0;
  (* warm pass answered fresh from L1 *)
  req alice pep0 ~at:2.5;
  (* kill the decision tier and the shared cache *)
  Engine.schedule_at (Net.engine net) ~at:4.0 (fun () ->
      Net.crash net "pdp";
      Net.crash net "l2");
  (* expired L1 entry, everything else dark: bounded-stale serve *)
  req alice pep0 ~at:8.0;
  (* never-cached subject, everything dark: fail closed *)
  req bob pep0 ~at:9.0;
  Net.run net;
  let entries = Audit.entries audit in
  if json then begin
    let entries_json =
      String.concat ","
        (List.map
           (fun e ->
             Printf.sprintf "{\"at\":%.6f,\"subject\":%s,\"action\":%s,\"decision\":%s,\"provenance\":%s}"
               e.Audit.at (Metrics.json_string e.Audit.subject) (Metrics.json_string e.Audit.action)
               (Metrics.json_string (Decision.decision_to_string e.Audit.decision))
               (match e.Audit.provenance with
               | Some p -> Provenance.to_json p
               | None -> "null"))
           entries)
    in
    Printf.printf "{\"seed\":%d,\"decisions\":[%s]}\n" seed entries_json
  end
  else begin
    Printf.printf "decision provenance (seed %d, %d decisions):\n" seed (List.length entries);
    List.iter
      (fun e ->
        Printf.printf "  t=%6.3f  %-6s %-5s -> %-14s %s\n" e.Audit.at e.Audit.subject
          e.Audit.action
          (Decision.decision_to_string e.Audit.decision)
          (match e.Audit.provenance with
          | Some p -> Provenance.to_string p
          | None -> "(no provenance)"))
      entries;
    print_newline ();
    print_string (Report.attribution services);
    print_newline ();
    print_string (Report.critical_path services);
    print_newline ()
  end;
  let stages =
    List.filter_map
      (fun e -> Option.map (fun p -> Provenance.stage_name p.Provenance.stage) e.Audit.provenance)
      entries
  in
  let stage name detail = Experiment.check x ("stage-" ^ name) (List.mem name stages) detail in
  Experiment.check x "every-decision-has-provenance"
    (entries <> [] && List.for_all (fun e -> e.Audit.provenance <> None) entries)
    (Printf.sprintf "%d audit entries" (List.length entries));
  stage "live" "cold descent reached a live PDP";
  stage "l2" "replica pass served by the shared cache";
  stage "l1" "warm pass served from the local cache";
  stage "stale" "degraded serve from an expired entry";
  stage "fail-closed" "unservable request denied";
  Experiment.check x "coalesced-flagged"
    (List.exists
       (fun e -> match e.Audit.provenance with Some p -> p.Provenance.coalesced | None -> false)
       entries)
    "duplicate folded onto the leader's descent"

(* The SLO monitor over two workload runs off the same knobs: one inside
   the serving capacity (objectives met, burn under 1) and one offered
   far beyond it (admission control sheds, the availability budget
   burns).  The checks prove the monitor separates the two regimes. *)
let slo seed json =
  Experiment.v "slo" ~log:(log json)
    ~gates:Gate.[ exact "healthy-objectives-met"; exact "overload-violates-availability";
                  exact "overload-burns-budget" ]
  @@ fun x ->
  let module Slo = Dacs_telemetry.Slo in
  let healthy = W.run { W.default with seed } in
  let overloaded =
    W.run { W.default with seed; arrivals = W.Open_loop { rate = 2000.0 }; duration = 2.0 }
  in
  let h = healthy.W.slo and o = overloaded.W.slo in
  if json then
    Printf.printf "{\"seed\":%d,\"healthy\":%s,\"overloaded\":%s}\n" seed (W.render_json healthy)
      (W.render_json overloaded)
  else begin
    Printf.printf "slo monitor (seed %d, objective: %.1f%% served, %.0f%% within %gs, %gs window)\n\n"
      seed
      (Slo.objective.Slo.availability_target *. 100.0)
      (Slo.objective.Slo.latency_target *. 100.0)
      Slo.objective.Slo.latency_threshold Slo.objective.Slo.window;
    Printf.printf "within capacity (%d decisions):\n" h.Slo.total;
    print_string (W.render healthy);
    Printf.printf "\noffered 10x capacity (%d decisions):\n" o.Slo.total;
    print_string (W.render overloaded);
    print_newline ()
  end;
  Experiment.check x "healthy-objectives-met"
    (h.Slo.availability_met && h.Slo.latency_met)
    (Printf.sprintf "availability %.3f%%, latency compliance %.3f%%" (h.Slo.availability *. 100.0)
       (h.Slo.latency_compliance *. 100.0));
  Experiment.check x "overload-violates-availability" (not o.Slo.availability_met)
    (Printf.sprintf "availability %.3f%% with %d shed" (o.Slo.availability *. 100.0)
       overloaded.W.shed);
  Experiment.check x "overload-burns-budget"
    (o.Slo.availability_burn > 1.0 && o.Slo.availability_burn > h.Slo.availability_burn)
    (Printf.sprintf "burn %.1fx vs %.1fx" o.Slo.availability_burn h.Slo.availability_burn)

(* The deterministic workload engine from the command line: the same
   scenario (same seed) always prints a byte-identical report. *)
let load seed rate clients think duration peps shards users zipf cache_ttl cache_entries
    service_time batch max_inflight queue pdp_max_inflight rule_cost json =
  Experiment.v "load" ~log:(log json) ~gates:Gate.[ exact "conservation"; exact "answered" ]
  @@ fun x ->
  let arrivals =
    if clients > 0 then W.Closed_loop { clients; think_time = think } else W.Open_loop { rate }
  in
  let scenario =
    {
      W.seed;
      peps;
      shards;
      users;
      zipf;
      arrivals;
      duration;
      cache_ttl;
      cache_capacity = cache_entries;
      service_time;
      batch;
      admission =
        (if max_inflight > 0 then Some { Pep.max_inflight; max_queue = queue } else None);
      pdp_max_inflight = (if pdp_max_inflight > 0 then Some pdp_max_inflight else None);
      rule_cost;
      partition = None;
      offline = false;
    }
  in
  let report =
    match W.run scenario with
    | report -> report
    | exception Invalid_argument m ->
      prerr_endline ("load: " ^ m);
      exit 2
  in
  if json then print_endline (W.render_json report)
  else begin
    (match arrivals with
    | W.Open_loop { rate } ->
      Printf.printf
        "workload (seed %d): open-loop %.0f req/s for %.1f s, %d PEPs x %d shards, %d users, \
         zipf %.2f, cache ttl %.1f\n\n"
        seed rate duration peps shards users zipf cache_ttl
    | W.Closed_loop { clients; think_time } ->
      Printf.printf
        "workload (seed %d): closed-loop %d clients (think %.3f s) for %.1f s, %d PEPs x %d \
         shards, %d users, zipf %.2f, cache ttl %.1f\n\n"
        seed clients think_time duration peps shards users zipf cache_ttl);
    print_string (W.render report);
    print_newline ()
  end;
  Experiment.check x "conservation" (W.conservation_ok report)
    (Printf.sprintf "completed %d of offered %d; %d+%d+%d+%d accounted" report.W.completed
       report.W.offered report.W.granted report.W.denied report.W.errors report.W.shed);
  Experiment.check x "answered" (report.W.completed > 0)
    (Printf.sprintf "%d completions" report.W.completed)
