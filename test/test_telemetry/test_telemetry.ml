(* Telemetry suite: the metrics registry (bucket semantics, label-set
   identity, one retry count with the RPC bus) and the tracing layer
   (context propagation through RPC frames, the golden Fig. 3 span tree).

   The golden-tree test is the paper's Fig. 3 pull flow made visible: one
   client request produces exactly one trace whose spans are the PEP ->
   PDP -> PIP/PAP hops, each with a non-zero virtual-time latency. *)

module Metrics = Dacs_telemetry.Metrics
module Trace = Dacs_telemetry.Trace
module Net = Dacs_net.Net
module Rpc = Dacs_net.Rpc
module Service = Dacs_ws.Service
module Value = Dacs_policy.Value
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Target = Dacs_policy.Target
module Combine = Dacs_policy.Combine
open Dacs_core

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

(* --- histogram bucket boundaries -------------------------------------------- *)

module Loghist = Dacs_telemetry.Loghist

let counts h = Loghist.bucket_counts (Metrics.loghist h)

let test_histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat_seconds" in
  (* Prometheus [le] semantics over Loghist's shape: a value lands in the
     first bucket whose upper bound is >= v, so an exact boundary stays
     in its own bucket. *)
  List.iter (Metrics.observe h) [ 0.0004; 0.0005; 0.00050001; 0.001; 0.0015; 300.0 ];
  let c = counts h in
  check int_ "le 0.0005 (0.0004 and the exact boundary)" 2 (snd c.(0));
  check (Alcotest.float 0.0) "bound 1" 0.001 (fst c.(1));
  check int_ "0.0005 < v <= 0.001" 2 (snd c.(1));
  check int_ "0.001 < v <= 0.002" 1 (snd c.(2));
  check bool_ "last bound is +Inf" true (fst c.(Loghist.buckets) = infinity);
  check int_ "overflow" 1 (snd c.(Loghist.buckets));
  check int_ "count" 6 (Loghist.count (Metrics.loghist h));
  check (Alcotest.float 1e-9) "sum" 300.00390001 (Loghist.sum (Metrics.loghist h))

let test_histogram_one_shape () =
  (* Every series has the same buckets: 0.5 ms * 2^i for i = 0..19, then
     +Inf — whatever it measures and however it is labelled. *)
  let m = Metrics.create () in
  let a = Metrics.histogram m "a_seconds" and b = Metrics.histogram m ~labels:[ ("k", "v") ] "b_size" in
  let expected = List.init 20 (fun i -> 0.0005 *. (2.0 ** float_of_int i)) @ [ infinity ] in
  check bool_ "a: the one shape" true (Array.to_list (Array.map fst (counts a)) = expected);
  check bool_ "b: the one shape" true (Array.to_list (Array.map fst (counts b)) = expected);
  check (Alcotest.float 0.0) "top finite bound" 262.144 (Loghist.bound (Loghist.buckets - 1))

(* --- quantile edge cases ------------------------------------------------- *)

let test_quantile_empty_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "empty_seconds" in
  check (Alcotest.float 0.0) "empty histogram quantile is 0" 0.0
    (Loghist.quantile (Metrics.loghist h) 0.5);
  check (Alcotest.float 0.0) "empty histogram max is 0" 0.0
    (Loghist.max_seen (Metrics.loghist h))

let test_quantile_bucket_bound () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "q_seconds" in
  let q = Loghist.quantile (Metrics.loghist h) in
  (* The estimate is the bound of the bucket holding the ceil(q * n)-th
     observation, clamped to the largest value seen. *)
  List.iter (Metrics.observe h) [ 0.2; 0.4; 0.6; 0.8 ];
  check (Alcotest.float 0.0) "p50 is the second value's bucket bound" 0.512 (q 0.5);
  check (Alcotest.float 0.0) "p100 clamps to the maximum" 0.8 (q 1.0);
  (* An observation past every finite bound reports the exact maximum
     rather than inventing a value. *)
  Metrics.observe h 500.0;
  check (Alcotest.float 0.0) "overflow rank is the exact maximum" 500.0 (q 0.99)

(* --- observing allocates nothing --------------------------------------------- *)

let words_per_call n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  int_of_float ((Gc.minor_words () -. before) /. float_of_int n)

let test_observe_allocates_nothing () =
  let n = 10_000 in
  let v = Sys.opaque_identity 0.0123 in
  let lh = Loghist.create () in
  let h = Metrics.histogram (Metrics.create ()) "alloc_seconds" in
  check int_ "Loghist.observe" 0 (words_per_call n (fun () -> Loghist.observe lh v));
  check int_ "Metrics.observe" 0 (words_per_call n (fun () -> Metrics.observe h v));
  check int_ "Metrics.observe_exemplar ~trace:\"\"" 0
    (words_per_call n (fun () -> Metrics.observe_exemplar h v ~trace:"" ~at:1.0));
  check int_ "every observation counted" (2 * n) (Loghist.count (Metrics.loghist h))

(* --- exemplar retention --------------------------------------------------- *)

let test_exemplar_retention () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "ex_seconds" in
  (* Retention is bounded at one exemplar per bucket; the latest wins. *)
  Metrics.observe_exemplar h 0.05 ~trace:"aaaa" ~at:1.0;
  Metrics.observe_exemplar h 0.06 ~trace:"bbbb" ~at:2.0;
  Metrics.observe_exemplar h 0.5 ~trace:"cccc" ~at:3.0;
  Metrics.observe_exemplar h 700.0 ~trace:"dddd" ~at:4.0;
  (match Metrics.histogram_exemplars h with
  | [ (b1, e1); (b2, e2); (binf, einf) ] ->
    check (Alcotest.float 1e-9) "first bucket bound" 0.064 b1;
    check string_ "latest observation wins" "bbbb" e1.Metrics.e_trace;
    check (Alcotest.float 1e-9) "latest value kept" 0.06 e1.Metrics.e_value;
    check (Alcotest.float 1e-9) "second bucket bound" 0.512 b2;
    check string_ "second bucket exemplar" "cccc" e2.Metrics.e_trace;
    check bool_ "overflow bucket keeps one too" true (binf = infinity);
    check string_ "overflow exemplar" "dddd" einf.Metrics.e_trace;
    check (Alcotest.float 1e-9) "timestamp kept" 4.0 einf.Metrics.e_at
  | l -> Alcotest.failf "expected 3 exemplars, got %d" (List.length l));
  (* An empty trace tag (tracing off) still observes but retains nothing. *)
  let h2 = Metrics.histogram m "ex2_seconds" in
  Metrics.observe_exemplar h2 0.05 ~trace:"" ~at:1.0;
  check int_ "observation counted" 1 (Loghist.count (Metrics.loghist h2));
  check int_ "no exemplar without a trace" 0 (List.length (Metrics.histogram_exemplars h2))

let test_observe_is_exemplar_free () =
  (* [observe] is [observe_exemplar] with no trace: same buckets, same
     count and sum, and nothing retained. *)
  let m = Metrics.create () in
  let a = Metrics.histogram m "plain_seconds" in
  let b = Metrics.histogram m "traced_seconds" in
  List.iteri
    (fun i v ->
      Metrics.observe a v;
      Metrics.observe_exemplar b v ~trace:(Printf.sprintf "t%d" i) ~at:(float_of_int i))
    [ 0.05; 0.1; 0.100001; 0.5; 1.0; 7.0 ];
  let a' = Metrics.loghist a and b' = Metrics.loghist b in
  check bool_ "same buckets" true (counts a = counts b);
  check int_ "same count" (Loghist.count b') (Loghist.count a');
  check (Alcotest.float 1e-12) "same sum" (Loghist.sum b') (Loghist.sum a');
  check int_ "observe keeps no exemplar" 0 (List.length (Metrics.histogram_exemplars a));
  check int_ "one exemplar per bucket otherwise" 5 (List.length (Metrics.histogram_exemplars b))

(* --- snapshot ------------------------------------------------------------------ *)

let test_snapshot_order_and_values () =
  let m = Metrics.create () in
  let z = Metrics.counter m ~labels:[ ("node", "b") ] "z_total" in
  ignore (Metrics.counter m ~labels:[ ("node", "a") ] "z_total");
  Metrics.inc ~by:4 z;
  Metrics.set_gauge_count (Metrics.gauge m "inflight") 7;
  Metrics.observe (Metrics.histogram m ~labels:[ ("zone", "x"); ("node", "a") ] "lat_seconds") 0.001;
  (* Sorted by name, then labels; labels sorted by key whatever order
     they were given in. *)
  check
    (Alcotest.list (Alcotest.pair string_ (Alcotest.list (Alcotest.pair string_ string_))))
    "series order"
    [
      ("inflight", []);
      ("lat_seconds", [ ("node", "a"); ("zone", "x") ]);
      ("z_total", [ ("node", "a") ]);
      ("z_total", [ ("node", "b") ]);
    ]
    (List.map (fun s -> (s.Metrics.name, s.Metrics.labels)) (Metrics.snapshot m));
  match List.map (fun s -> s.Metrics.value) (Metrics.snapshot m) with
  | [ Metrics.Gauge g; Metrics.Histogram h; Metrics.Counter a; Metrics.Counter b ] ->
    check (Alcotest.float 0.0) "a count set as a gauge" 7.0 g;
    check int_ "histogram count" 1 h.count;
    check int_ "one bucket per bound" (Loghist.buckets + 1) (List.length h.buckets);
    check int_ "the observation in the second bucket" 1 (snd (List.nth h.buckets 1));
    check int_ "untouched counter" 0 a;
    check int_ "incremented counter" 4 b
  | _ -> Alcotest.fail "unexpected sample kinds"

(* --- per-label counter breakdown ------------------------------------------- *)

let test_sum_counter_by () =
  let m = Metrics.create () in
  let c node reason = Metrics.counter m ~labels:[ ("node", node); ("reason", reason) ] "shed_total" in
  Metrics.inc ~by:3 (c "pep0" "overload");
  Metrics.inc ~by:2 (c "pep1" "overload");
  Metrics.inc (c "pep0" "breaker");
  ignore (Metrics.counter m ~labels:[ ("node", "pep2") ] "shed_total");
  check
    (Alcotest.list (Alcotest.pair string_ int_))
    "summed by reason, sorted, unlabelled series omitted"
    [ ("breaker", 1); ("overload", 5) ]
    (Metrics.sum_counter_by m "shed_total" ~label:"reason")

(* --- label-set identity -------------------------------------------------- *)

let test_label_identity () =
  let m = Metrics.create () in
  let a = Metrics.counter m ~labels:[ ("node", "pep"); ("kind", "pull") ] "requests_total" in
  (* Same label set in a different order: the very same cell. *)
  let b = Metrics.counter m ~labels:[ ("kind", "pull"); ("node", "pep") ] "requests_total" in
  Metrics.inc a;
  Metrics.inc b;
  check int_ "one shared cell" 2 (Metrics.counter_value a);
  (* A different label set is a different cell under the same name. *)
  let c = Metrics.counter m ~labels:[ ("node", "pep2"); ("kind", "pull") ] "requests_total" in
  check int_ "distinct cell" 0 (Metrics.counter_value c);
  Metrics.inc c;
  check int_ "sum across label sets" 3 (Metrics.sum_counter m "requests_total");
  check int_ "series count" 2 (Metrics.series_count m);
  (* One name, one instrument kind. *)
  check bool_ "kind conflict raises" true
    (try
       ignore (Metrics.gauge m "requests_total");
       false
     with Invalid_argument _ -> true)

let test_render_no_duplicate_names () =
  let m = Metrics.create ~now:(fun () -> 1.5) () in
  ignore (Metrics.counter m ~labels:[ ("node", "a") ] "x_total");
  ignore (Metrics.counter m ~labels:[ ("node", "b") ] "x_total");
  ignore (Metrics.gauge m "y");
  let rendered = Metrics.render m in
  let type_lines =
    List.filter (fun l -> String.length l >= 6 && String.sub l 0 6 = "# TYPE")
      (String.split_on_char '\n' rendered)
  in
  (* One TYPE header per metric name, even with several label sets. *)
  check int_ "one TYPE header per name" 2 (List.length type_lines);
  check int_ "no duplicate TYPE headers" 2
    (List.length (List.sort_uniq compare type_lines))

(* A label value is a JSON string: a quote, a backslash and a control
   byte are escaped once, and UTF-8 bytes pass as they are. *)
let test_render_json_escapes_labels () =
  let m = Metrics.create ~now:(fun () -> 1.5) () in
  ignore (Metrics.counter m ~labels:[ ("path", "q\"b\\s\001 \xc3\xa9") ] "x_total");
  check string_ "escaped once"
    "{\"at\":1.5,\"metrics\":[{\"name\":\"x_total\",\"labels\":{\"path\":\"q\\\"b\\\\s\\u0001 \xc3\xa9\"},\"type\":\"counter\",\"value\":0}]}"
    (Metrics.render_json m)

(* --- one retry count across the bus ------------------------------------------ *)

let deny_all_policy =
  Policy.Inline_policy
    (Policy.make ~id:"p" ~rule_combining:Combine.First_applicable [ Rule.deny "deny-all" ])

let test_retries_counted_once () =
  let net = Net.create ~seed:5L () in
  let rpc = Rpc.create net in
  let services = Service.create rpc in
  List.iter (Net.add_node net) [ "pep"; "pdp"; "cli" ];
  ignore (Pdp_service.create services ~node:"pdp" ~name:"pdp" ~root:deny_all_policy ());
  let tier = Pdp_tier.ordered services ~node:"pep" ~pdps:[ "pdp" ] ~call_timeout:0.2 in
  let pep = Pep.create services ~node:"pep" ~domain:"d" ~resource:"r" (Pep.Sharded { tier; cache = None }) in
  Pdp_tier.set_retry_policy tier
    { Rpc.attempts = 3; base_delay = 0.05; multiplier = 2.0; max_delay = 1.0; jitter = 0.0 };
  Net.crash net "pdp";
  let client =
    Client.create services ~node:"cli" ~subject:[ ("subject-id", Value.String "u") ]
  in
  Client.request client ~pep:"pep" ~action:"read" ~timeout:10.0 (fun _ -> ());
  Net.run net;
  (* The PEP's query was re-sent twice; both its own stats and the
     bus-wide aggregate see the same underlying counters. *)
  check int_ "pep saw retries" 2 (Pep.stats pep).Pep.retries;
  check int_ "bus saw the same retries" 2 (Rpc.resilience_stats rpc).Rpc.retries

(* --- registry lookups stay off the request path ----------------------------- *)

let test_steady_state_decision_no_lookups () =
  (* After warm-up every series a tier decision touches is resolved, so
     the next decision — PEP ladder, tier batch, RPC both ways, PDP —
     increments held handles and resolves nothing in the registry.  The
     same holds for a decision that fails over because its shard went
     silent, and for one the tier sheds because every shard's breaker
     is open. *)
  let net = Net.create ~seed:5L () in
  let rpc = Rpc.create net in
  let services = Service.create rpc in
  List.iter (Net.add_node net) [ "pep"; "pdp.0"; "pdp.1" ];
  List.iter
    (fun node -> ignore (Pdp_service.create services ~node ~name:node ~root:deny_all_policy ()))
    [ "pdp.0"; "pdp.1" ];
  let tier = Pdp_tier.create services ~node:"pep" ~shards:[ "pdp.0"; "pdp.1" ] () in
  let pep = Pep.create services ~node:"pep" ~domain:"d" ~resource:"r" (Pep.Sharded { tier; cache = None }) in
  let ctx user =
    Dacs_policy.Context.make
      ~subject:[ ("subject-id", Value.String user) ]
      ~resource:[ ("resource-id", Value.String "r") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  let answered_at = ref 0.0 in
  let decide user =
    let answered = ref false in
    Pep.decide pep (ctx user) (fun _ ->
        answered := true;
        answered_at := Net.now net);
    Net.run net;
    check bool_ ("answered " ^ user) true !answered
  in
  List.iter decide [ "a"; "b"; "c"; "d"; "e"; "f" ];
  let registry = Service.metrics services in
  let before = Metrics.lookups registry in
  decide "g";
  check int_ "registry lookups in a steady-state decision" 0 (Metrics.lookups registry - before);
  (* pdp.0 goes silent: a decision for a key it owns fails over to pdp.1
     when the tier suspects pdp.0, one RTO after the frame left.  The
     first such decision registers the expiry counter; the next resolves
     nothing. *)
  Net.crash net "pdp.0";
  let owned =
    List.filter
      (fun u -> Pdp_tier.shard_for tier (Decision_cache.request_key (ctx u)) = Some "pdp.0")
      (List.init 20 (Printf.sprintf "u%d"))
  in
  decide (List.nth owned 0);
  let expiries = (Pdp_tier.stats tier).Pdp_tier.expiries in
  let before = Metrics.lookups registry and asked_at = Net.now net in
  decide (List.nth owned 1);
  check int_ "registry lookups in a decision failed over by expiry" 0
    (Metrics.lookups registry - before);
  check int_ "it failed over by expiry" (expiries + 1) (Pdp_tier.stats tier).Pdp_tier.expiries;
  check bool_ "before the call timeout" true (!answered_at -. asked_at < 1.0);
  Net.recover net "pdp.0";
  (* Both shards go down; the first decision's timeouts open both
     breakers, the next warms the shed path. *)
  Rpc.set_breaker rpc { Rpc.failure_threshold = 1; cooldown = 100.0 };
  List.iter (Net.crash net) [ "pdp.0"; "pdp.1" ];
  List.iter decide [ "h"; "i" ];
  let shed = (Rpc.resilience_stats rpc).Rpc.breaker_rejections in
  let before = Metrics.lookups registry in
  decide "j";
  check int_ "registry lookups in a breaker-shed decision" 0 (Metrics.lookups registry - before);
  check int_ "the decision was shed at both shards" (shed + 2)
    (Rpc.resilience_stats rpc).Rpc.breaker_rejections

(* --- trace context through an RPC frame (QCheck) ----------------------------- *)

(* A service name holds no '|' (the bus refuses one); a body holds
   anything. *)
let context_roundtrip =
  let service_name = QCheck.(string_gen Gen.(map (fun c -> if c = '|' then '_' else c) printable)) in
  QCheck.Test.make ~count:200 ~name:"trace context survives the RPC frame"
    QCheck.(
      quad (map Int64.of_int int) (map Int64.of_int int) small_nat (pair service_name printable_string))
    (fun (trace_id, span_id, id, (service, body)) ->
      let ctx = { Trace.trace_id; span_id } in
      let trace = Trace.context_to_string ctx in
      match Rpc.decode (Rpc.encode_traced_request id service ~trace body) with
      | Some (Rpc.Traced_request { id = id'; service = service'; trace = trace'; body = body' })
        ->
        id' = id && service' = service && body' = body
        && Trace.context_of_string trace' = Some ctx
      | _ -> false)

(* --- golden span tree: the Fig. 3 pull flow --------------------------------- *)

(* Mirror of the CLI's observability scenario (bin/dacs.ml): a full
   domain (PEP, PDP, PAP, PIP) where the client presents only its
   subject-id, forcing the PDP to fetch the role attribute from the PIP
   and the policy from the PAP. *)
let pull_flow_scenario ~seed =
  let net = Net.create ~seed () in
  let rpc = Rpc.create net in
  let services = Service.create rpc in
  Rpc.set_tracing rpc true;
  let domain = Domain.create services ~name:"demo" () in
  Domain.set_local_policy domain
    (Policy.Inline_policy
       (Policy.make ~id:"demo-policy" ~rule_combining:Combine.First_applicable
          [
            Rule.permit
              ~target:
                Target.(any |> subject_is "role" "admin" |> action_is "action-id" "read")
              "admins-read";
            Rule.deny "default-deny";
          ]));
  let cache =
    Decision_cache.create ~metrics:(Rpc.metrics rpc) ~owner:"demo-resource" ~ttl:2.0 ()
  in
  let pep = Domain.expose_resource domain ~resource:"demo-resource" ~content:"42" ~cache () in
  Domain.register_user domain ~user:"admin1" [ ("role", Value.String "admin") ];
  Net.add_node net "cli";
  let client =
    Client.create services ~node:"cli" ~subject:[ ("subject-id", Value.String "admin1") ]
  in
  let outcome = ref None in
  Client.request client ~pep:(Pep.node pep) ~action:"read" (fun r -> outcome := Some r);
  Net.run net;
  (rpc, !outcome)

let golden_tree =
  String.concat "\n"
    [
      "trace 63cbe1e459320dd7  (10 spans, 40.0ms)";
      "`- rpc:access  [+0.0ms 40.0ms]  src=cli dst=demo.pep.demo-resource";
      "   `- serve:access  [+5.0ms 30.0ms]  node=demo.pep.demo-resource caller=cli";
      "      `- pep:enforce  [+5.0ms 30.0ms]  node=demo.pep.demo-resource subject=admin1 \
       action=read decision=Permit stage=live";
      "         `- rpc:authz-query  [+5.0ms 30.0ms]  src=demo.pep.demo-resource dst=demo.pdp";
      "            `- serve:authz-query  [+10.0ms 20.0ms]  node=demo.pdp \
       caller=demo.pep.demo-resource";
      "               `- pdp:evaluate  [+10.0ms 20.0ms]  node=demo.pdp decision=Permit";
      "                  |- rpc:policy-query  [+10.0ms 10.0ms]  src=demo.pdp dst=demo.pap";
      "                  |  `- serve:policy-query  [+15.0ms 0.0ms]  node=demo.pap caller=demo.pdp";
      "                  `- rpc:attribute-query  [+20.0ms 10.0ms]  src=demo.pdp dst=demo.pip";
      "                     `- serve:attribute-query  [+25.0ms 0.0ms]  node=demo.pip \
       caller=demo.pdp";
      "";
    ]

let test_golden_pull_trace () =
  let rpc, outcome = pull_flow_scenario ~seed:7L in
  (match outcome with
  | Some (Ok (Wire.Granted { content; _ })) -> check string_ "granted" "42" content
  | _ -> Alcotest.fail "expected a granted pull request");
  let tr = Rpc.tracer rpc in
  check int_ "one trace" 1 (List.length (Trace.trace_ids tr));
  check string_ "golden span tree" golden_tree (Trace.render_tree tr)

let test_trace_determinism () =
  let render seed =
    let rpc, _ = pull_flow_scenario ~seed in
    Trace.render_tree (Rpc.tracer rpc)
  in
  check string_ "same seed, byte-identical tree" (render 7L) (render 7L);
  check bool_ "different seed, different ids" true (render 7L <> render 8L)

(* A retried frame is sent from a backoff timer, where no span is
   current; every attempt must still land under the decision that asked
   for it.  The PDP is down for the first attempt and back for the
   second: both [rpc:authz-query] spans are children of [pep:enforce]. *)
let test_retry_attempts_share_a_parent () =
  let net = Net.create ~seed:7L () in
  let rpc = Rpc.create net in
  let services = Service.create rpc in
  List.iter (Net.add_node net) [ "pep"; "pdp"; "cli" ];
  ignore (Pdp_service.create services ~node:"pdp" ~name:"pdp" ~root:deny_all_policy ());
  let tier = Pdp_tier.ordered services ~node:"pep" ~pdps:[ "pdp" ] ~call_timeout:0.2 in
  let pep = Pep.create services ~node:"pep" ~domain:"d" ~resource:"r" (Pep.Sharded { tier; cache = None }) in
  Pdp_tier.set_retry_policy tier
    { Rpc.attempts = 3; base_delay = 0.05; multiplier = 2.0; max_delay = 1.0; jitter = 0.0 };
  Rpc.set_tracing rpc true;
  Net.crash net "pdp";
  Dacs_net.Engine.schedule_at (Net.engine net) ~at:0.1 (fun () -> Net.recover net "pdp");
  let client = Client.create services ~node:"cli" ~subject:[ ("subject-id", Value.String "u") ] in
  let answered = ref false in
  Client.request client ~pep:"pep" ~action:"read" ~timeout:10.0 (fun r -> answered := Result.is_ok r);
  Net.run net;
  check bool_ "answered" true !answered;
  check int_ "one retry" 1 (Pep.stats pep).Pep.retries;
  (* Each span line of the tree with the name of the line it hangs under. *)
  let lines = String.split_on_char '\n' (Trace.render_tree (Rpc.tracer rpc)) in
  let depth l =
    let rec go i = if i < String.length l && String.contains " |`-" l.[i] then go (i + 1) else i in
    go 0
  in
  let name l = List.hd (String.split_on_char ' ' (String.sub l (depth l) (String.length l - depth l))) in
  let rec parents stack = function
    | [] -> []
    | l :: rest when depth l = 0 || l = "" -> parents [] rest
    | l :: rest ->
      let stack = List.filter (fun (d, _) -> d < depth l) stack in
      let parent = match stack with (_, p) :: _ -> p | [] -> "" in
      (name l, parent) :: parents ((depth l, name l) :: stack) rest
  in
  let attempts = List.filter (fun (n, _) -> n = "rpc:authz-query") (parents [] lines) in
  check
    (Alcotest.list (Alcotest.pair string_ string_))
    "both attempts under the decision"
    [ ("rpc:authz-query", "pep:enforce"); ("rpc:authz-query", "pep:enforce") ]
    attempts

let test_tracing_off_is_free () =
  let net = Net.create ~seed:7L () in
  let rpc = Rpc.create net in
  let tr = Rpc.tracer rpc in
  check bool_ "off by default" false (Trace.enabled tr);
  (* While disabled, start_span mints no ids and records nothing, so the
     engine's RNG stream is exactly what an untraced run sees. *)
  let before = Dacs_crypto.Rng.next_int64 (Dacs_net.Engine.rng (Net.engine net)) in
  let span = Trace.start_span tr "noop" in
  Trace.annotate span "k" "v";
  Trace.finish tr span;
  check int_ "nothing recorded" 0 (Trace.span_count tr);
  let net2 = Net.create ~seed:7L () in
  let rng2 = Dacs_net.Engine.rng (Net.engine net2) in
  check bool_ "rng stream unperturbed" true
    (Dacs_crypto.Rng.next_int64 rng2 = before)

(* --- streaming log-bucket histograms ----------------------------------------- *)

(* The exponent-bit bucket index against the definitionally-correct
   linear scan: the first bucket whose upper bound [0.0005 * 2^i] is >= the
   observation, or the overflow bucket past the last one. *)
let linear_scan v =
  let rec scan i =
    if i >= Loghist.buckets || v <= 0.0005 *. (2.0 ** float_of_int i) then i else scan (i + 1)
  in
  scan 0

let placed v =
  let h = Loghist.create () in
  Loghist.observe h v;
  let at = ref (-1) in
  Array.iteri (fun i (_, c) -> if c = 1 then at := i) (Loghist.bucket_counts h);
  !at

let prop_loghist_index_matches_linear_scan =
  let open QCheck in
  Test.make ~name:"loghist: exponent-bit index == linear-scan index" ~count:1000
    (float_range 0.000001 600.0)
    (fun v -> placed v = linear_scan v && Loghist.index v = linear_scan v)

(* Merging two histograms is indistinguishable from one histogram that
   saw both streams: same buckets, count, sum, max and quantiles. *)
let prop_loghist_merge_is_union =
  let open QCheck in
  Test.make ~name:"loghist: merge == combined stream" ~count:300
    (pair (list_of_size Gen.(0 -- 40) (float_range 0.0001 10.0))
       (list_of_size Gen.(0 -- 40) (float_range 0.0001 10.0)))
    (fun (xs, ys) ->
      let a = Loghist.create () and b = Loghist.create () and u = Loghist.create () in
      List.iter (fun v -> Loghist.observe a v; Loghist.observe u v) xs;
      List.iter (fun v -> Loghist.observe b v; Loghist.observe u v) ys;
      let m = Loghist.merge a b in
      Loghist.count m = Loghist.count u
      && Loghist.max_seen m = Loghist.max_seen u
      && Float.abs (Loghist.sum m -. Loghist.sum u) < 1e-9
      && Loghist.bucket_counts m = Loghist.bucket_counts u
      && List.for_all
           (fun q -> Loghist.quantile m q = Loghist.quantile u q)
           [ 0.5; 0.95; 0.99; 1.0 ])

let prop_loghist_quantile_monotone =
  let open QCheck in
  Test.make ~name:"loghist: quantiles monotone and bounded by max" ~count:300
    (list_of_size Gen.(1 -- 60) (float_range 0.0001 30.0))
    (fun xs ->
      let h = Loghist.create () in
      List.iter (Loghist.observe h) xs;
      let q50 = Loghist.quantile h 0.5
      and q95 = Loghist.quantile h 0.95
      and q99 = Loghist.quantile h 0.99 in
      q50 <= q95 && q95 <= q99 && q99 <= Loghist.max_seen h)

let test_loghist_edges () =
  let h = Loghist.create () in
  check (Alcotest.float 0.0) "empty quantile" 0.0 (Loghist.quantile h 0.99);
  check (Alcotest.float 0.0) "empty max" 0.0 (Loghist.max_seen h);
  (* Non-positive and tiny values land in the first bucket. *)
  Loghist.observe h 0.0;
  Loghist.observe h (-1.0);
  Loghist.observe h 0.0005;
  check int_ "first bucket holds them" 3 (snd (Loghist.bucket_counts h).(0));
  (* Each bound is an inclusive upper bound, and the floats either side
     of it fall where the linear scan puts them. *)
  for i = 0 to Loghist.buckets - 1 do
    let b = Loghist.bound i in
    List.iter
      (fun v ->
        check int_ (Printf.sprintf "%h against bound %d" v i) (linear_scan v) (placed v))
      [ Float.pred b; b; Float.succ b ]
  done;
  check int_ "2 * 0.5 ms sits in bucket 1" 1 (placed 0.001);
  (* Past the top bound: overflow bucket, quantile reports exact max. *)
  let o = Loghist.create () in
  Loghist.observe o 1000.0;
  Loghist.observe o infinity;
  check int_ "overflow bucket" 2 (snd (Loghist.bucket_counts o).(Loghist.buckets));
  check (Alcotest.float 0.0) "overflow quantile is exact max" infinity (Loghist.quantile o 0.99)

(* --- suite ------------------------------------------------------------------- *)

let () =
  Alcotest.run "dacs_telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "every series has the one shape" `Quick test_histogram_one_shape;
          Alcotest.test_case "quantile on an empty histogram" `Quick test_quantile_empty_histogram;
          Alcotest.test_case "quantile is the bucket bound, clamped to the maximum" `Quick
            test_quantile_bucket_bound;
          Alcotest.test_case "observing allocates nothing" `Quick test_observe_allocates_nothing;
          Alcotest.test_case "exemplar retention bounds" `Quick test_exemplar_retention;
          Alcotest.test_case "observe is observe_exemplar without a trace" `Quick
            test_observe_is_exemplar_free;
          Alcotest.test_case "per-label counter breakdown" `Quick test_sum_counter_by;
          Alcotest.test_case "label-set identity" `Quick test_label_identity;
          Alcotest.test_case "snapshot order and values" `Quick test_snapshot_order_and_values;
          Alcotest.test_case "exposition has no duplicate headers" `Quick
            test_render_no_duplicate_names;
          Alcotest.test_case "JSON label values are escaped once" `Quick test_render_json_escapes_labels;
          Alcotest.test_case "a PEP's retries are the bus's retries" `Quick test_retries_counted_once;
          Alcotest.test_case "a steady-state tier decision makes no registry lookups" `Quick
            test_steady_state_decision_no_lookups;
        ] );
      ( "loghist",
        [
          QCheck_alcotest.to_alcotest prop_loghist_index_matches_linear_scan;
          QCheck_alcotest.to_alcotest prop_loghist_merge_is_union;
          QCheck_alcotest.to_alcotest prop_loghist_quantile_monotone;
          Alcotest.test_case "edge cases and both sides of every bound" `Quick test_loghist_edges;
        ] );
      ( "tracing",
        [
          QCheck_alcotest.to_alcotest context_roundtrip;
          Alcotest.test_case "golden Fig. 3 pull-flow span tree" `Quick test_golden_pull_trace;
          Alcotest.test_case "trace output deterministic per seed" `Quick test_trace_determinism;
          Alcotest.test_case "disabled tracing mints no ids" `Quick test_tracing_off_is_free;
          Alcotest.test_case "every attempt of a retried frame has the decision as parent" `Quick
            test_retry_attempts_share_a_parent;
        ] );
    ]
