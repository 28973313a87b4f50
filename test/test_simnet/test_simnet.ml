(* Tests for dacs_net: engine ordering, link model, faults, stats, RPC. *)

open Dacs_net

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string
let float_ = Alcotest.float 1e-9

(* --- engine -------------------------------------------------------------- *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log);
  Engine.run e;
  check (Alcotest.list string_) "timestamp order" [ "a"; "b"; "c" ] (List.rev !log);
  check float_ "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  check (Alcotest.list int_) "ties in scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "outer" :: !log;
      Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log));
  Engine.run e;
  check (Alcotest.list string_) "nested" [ "outer"; "inner" ] (List.rev !log);
  check float_ "time" 2.0 (Engine.now e)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Engine.schedule e ~delay:1.0 tick
  in
  Engine.schedule e ~delay:1.0 tick;
  Engine.run ~until:5.5 e;
  check int_ "five ticks" 5 !count;
  check float_ "clock clamped" 5.5 (Engine.now e);
  check bool_ "still pending" true (Engine.pending e > 0)

let test_engine_step () =
  let e = Engine.create () in
  check bool_ "empty step" false (Engine.step e);
  Engine.schedule e ~delay:1.0 ignore;
  check bool_ "one step" true (Engine.step e);
  check bool_ "drained" false (Engine.step e)

let test_engine_negative_delay () =
  let e = Engine.create () in
  (try
     Engine.schedule e ~delay:(-1.0) ignore;
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  Engine.schedule e ~delay:1.0 (fun () ->
      try
        Engine.schedule_at e ~at:0.5 ignore;
        Alcotest.fail "expected Invalid_argument for past time"
      with Invalid_argument _ -> ());
  Engine.run e

let test_engine_many_events_order () =
  (* Heap stress: 1000 events with random-ish times must fire sorted. *)
  let e = Engine.create () in
  let rng = Dacs_crypto.Rng.create 99L in
  let last = ref (-1.0) in
  let monotone = ref true in
  for _ = 1 to 1000 do
    Engine.schedule e ~delay:(Dacs_crypto.Rng.float rng 100.0) (fun () ->
        if Engine.now e < !last then monotone := false;
        last := Engine.now e)
  done;
  Engine.run e;
  check bool_ "monotone delivery" true !monotone

(* --- net ------------------------------------------------------------------ *)

let make_pair () =
  let net = Net.create () in
  Net.add_node net "a";
  Net.add_node net "b";
  net

let test_net_delivery_latency () =
  let net = make_pair () in
  Net.set_latency net "a" "b" 0.25;
  let got = ref None in
  Net.set_handler net "b" (fun m -> got := Some (m.Net.payload, Net.now net));
  Net.send net ~src:"a" ~dst:"b" ~category:"test" "hello";
  Net.run net;
  match !got with
  | Some (payload, at) ->
    check string_ "payload" "hello" payload;
    check float_ "arrives after latency" 0.25 at
  | None -> Alcotest.fail "message not delivered"

let test_net_default_latency () =
  let net = make_pair () in
  Net.set_default_latency net 0.1;
  check float_ "default" 0.1 (Net.latency net "a" "b");
  Net.set_latency net "a" "b" 0.7;
  check float_ "override" 0.7 (Net.latency net "b" "a") (* symmetric *)

let test_net_bandwidth_model () =
  let net = make_pair () in
  Net.set_latency net "a" "b" 0.1;
  Net.set_bytes_per_second net (Some 1000.0);
  let at = ref 0.0 in
  Net.set_handler net "b" (fun _ -> at := Net.now net);
  Net.send net ~src:"a" ~dst:"b" ~category:"t" (String.make 100 'x');
  Net.run net;
  check float_ "latency + size/rate" 0.2 !at

let test_net_crash_drops () =
  let net = make_pair () in
  let got = ref 0 in
  Net.set_handler net "b" (fun _ -> incr got);
  Net.crash net "b";
  Net.send net ~src:"a" ~dst:"b" ~category:"t" "x";
  Net.run net;
  check int_ "crashed receiver drops" 0 !got;
  check int_ "counted dropped" 1 (Net.dropped_count net);
  Net.recover net "b";
  Net.send net ~src:"a" ~dst:"b" ~category:"t" "x";
  Net.run net;
  check int_ "delivered after recover" 1 !got

let test_net_crashed_sender_silent () =
  let net = make_pair () in
  let got = ref 0 in
  Net.set_handler net "b" (fun _ -> incr got);
  Net.crash net "a";
  Net.send net ~src:"a" ~dst:"b" ~category:"t" "x";
  Net.run net;
  check int_ "no delivery" 0 !got;
  check int_ "not even counted as sent" 0 (Net.total_sent net).Net.count

let test_net_crash_in_flight () =
  (* A message already in flight is lost if the receiver crashes before
     delivery. *)
  let net = make_pair () in
  let got = ref 0 in
  Net.set_handler net "b" (fun _ -> incr got);
  Net.set_latency net "a" "b" 1.0;
  Net.send net ~src:"a" ~dst:"b" ~category:"t" "x";
  Engine.schedule (Net.engine net) ~delay:0.5 (fun () -> Net.crash net "b");
  Net.run net;
  check int_ "lost in flight" 0 !got

let test_net_partition_and_heal () =
  let net = make_pair () in
  Net.add_node net "c";
  let got = ref [] in
  Net.set_handler net "b" (fun m -> got := m.Net.payload :: !got);
  Net.partition net [ "a" ] [ "b" ];
  Net.send net ~src:"a" ~dst:"b" ~category:"t" "blocked";
  Net.run net;
  check int_ "partitioned" 0 (List.length !got);
  (* c can still reach b *)
  Net.send net ~src:"c" ~dst:"b" ~category:"t" "ok";
  Net.run net;
  check (Alcotest.list string_) "third party unaffected" [ "ok" ] !got;
  Net.heal net;
  Net.send net ~src:"a" ~dst:"b" ~category:"t" "after-heal";
  Net.run net;
  check (Alcotest.list string_) "healed" [ "after-heal"; "ok" ] !got

let test_net_drop_rate () =
  let net = make_pair () in
  let got = ref 0 in
  Net.set_handler net "b" (fun _ -> incr got);
  Net.set_drop_rate net 0.5;
  for _ = 1 to 200 do
    Net.send net ~src:"a" ~dst:"b" ~category:"t" "x"
  done;
  Net.run net;
  (* With p=0.5 over 200 trials, 60..140 is a > 6-sigma window. *)
  check bool_ "roughly half lost" true (!got > 60 && !got < 140);
  check int_ "sent+dropped consistent" 200 (!got + Net.dropped_count net)

let test_net_stats () =
  let net = make_pair () in
  Net.set_handler net "b" ignore;
  Net.send net ~src:"a" ~dst:"b" ~category:"query" "12345";
  Net.send net ~src:"a" ~dst:"b" ~category:"query" "678";
  Net.send net ~src:"b" ~dst:"a" ~category:"reply" "ab";
  Net.run net;
  let stats = Net.stats_by_category net in
  check int_ "two categories" 2 (List.length stats);
  (match List.assoc_opt "query" stats with
  | Some s ->
    check int_ "query count" 2 s.Net.count;
    check int_ "query bytes" 8 s.Net.bytes
  | None -> Alcotest.fail "missing query stats");
  check int_ "total sent" 3 (Net.total_sent net).Net.count;
  check int_ "total delivered" 3 (Net.total_delivered net).Net.count;
  Net.reset_stats net;
  check int_ "reset" 0 (Net.total_sent net).Net.count

let test_net_trace () =
  let net = make_pair () in
  Net.set_handler net "b" ignore;
  Net.set_handler net "a" ignore;
  Net.set_tracing net true;
  Net.send net ~src:"a" ~dst:"b" ~category:"one" "x";
  Net.run net;
  Net.send net ~src:"b" ~dst:"a" ~category:"two" "y";
  Net.run net;
  let tr = Net.trace net in
  check (Alcotest.list string_) "sequence" [ "one"; "two" ]
    (List.map (fun e -> e.Net.t_category) tr);
  Net.clear_trace net;
  check int_ "cleared" 0 (List.length (Net.trace net))

let test_net_unknown_node () =
  let net = make_pair () in
  try
    Net.send net ~src:"a" ~dst:"nope" ~category:"t" "x";
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_net_unpartition_selective () =
  (* unpartition removes exactly one group pair, leaving others alone —
     heal would wipe both. *)
  let net = make_pair () in
  Net.add_node net "c";
  let got = ref [] in
  List.iter (fun n -> Net.set_handler net n (fun m -> got := m.Net.payload :: !got)) [ "b"; "c" ];
  Net.partition net [ "a" ] [ "b" ];
  Net.partition net [ "a" ] [ "c" ];
  Net.unpartition net [ "b" ] [ "a" ] (* reversed order must also match *);
  Net.send net ~src:"a" ~dst:"b" ~category:"t" "to-b";
  Net.send net ~src:"a" ~dst:"c" ~category:"t" "to-c";
  Net.run net;
  check (Alcotest.list string_) "b reachable, c still cut" [ "to-b" ] (List.rev !got)

let test_net_latency_override_roundtrip () =
  let net = make_pair () in
  Net.set_default_latency net 0.01;
  check bool_ "no override initially" true (Net.latency_override net "a" "b" = None);
  Net.set_latency net "a" "b" 0.9;
  check bool_ "override visible symmetrically" true (Net.latency_override net "b" "a" = Some 0.9);
  Net.clear_latency net "a" "b";
  check bool_ "cleared" true (Net.latency_override net "a" "b" = None);
  check float_ "back to default" 0.01 (Net.latency net "a" "b")

(* --- rpc ---------------------------------------------------------------------- *)

let make_rpc () =
  let net = Net.create () in
  Net.add_node net "client";
  Net.add_node net "server";
  (net, Rpc.create net)

(* String bodies over the frame API: each body written as is, each
   reply copied out. *)
let serve_string rpc ~node ~service handler =
  Rpc.serve_frame rpc ~node ~service (fun ~caller body reply ->
      handler ~caller (Rpc.slice_to_string body) (fun r -> reply (fun buf -> Buffer.add_string buf r)))

let call_string rpc ~src ~dst ~service ?timeout ?breaker body k =
  Rpc.call_frame rpc ~src ~dst ~service ?timeout ?breaker
    (fun buf -> Buffer.add_string buf body)
    (fun r -> k (Result.map Rpc.slice_to_string r))

let test_rpc_roundtrip () =
  let net, rpc = make_rpc () in
  serve_string rpc ~node:"server" ~service:"echo" (fun ~caller body reply ->
      check string_ "caller" "client" caller;
      reply ("echo:" ^ body));
  let result = ref None in
  call_string rpc ~src:"client" ~dst:"server" ~service:"echo" "hi" (fun r -> result := Some r);
  Net.run net;
  check bool_ "ok reply" true (!result = Some (Ok "echo:hi"))

let test_rpc_payload_with_separators () =
  (* Bodies containing the frame separator must survive. *)
  let net, rpc = make_rpc () in
  serve_string rpc ~node:"server" ~service:"echo" (fun ~caller:_ body reply -> reply body);
  let result = ref None in
  let nasty = "a|b||c|<xml attr=\"1|2\"/>" in
  call_string rpc ~src:"client" ~dst:"server" ~service:"echo" nasty (fun r -> result := Some r);
  Net.run net;
  check bool_ "separator-safe" true (!result = Some (Ok nasty))

let test_rpc_timeout_on_crash () =
  let net, rpc = make_rpc () in
  serve_string rpc ~node:"server" ~service:"echo" (fun ~caller:_ body reply -> reply body);
  Net.crash net "server";
  let result = ref None in
  call_string rpc ~src:"client" ~dst:"server" ~service:"echo" ~timeout:2.0 "hi" (fun r ->
      result := Some r);
  Net.run net;
  check bool_ "timeout" true (!result = Some (Error Rpc.Timeout));
  check int_ "no pending calls leak" 0 (Rpc.calls_in_flight rpc)

let test_rpc_no_such_service () =
  let net, rpc = make_rpc () in
  (* The server node must dispatch rpc frames even with no services: a
     service registration for another name sets up dispatch. *)
  serve_string rpc ~node:"server" ~service:"other" (fun ~caller:_ _ reply -> reply "x");
  let result = ref None in
  call_string rpc ~src:"client" ~dst:"server" ~service:"missing" "hi" (fun r -> result := Some r);
  Net.run net;
  check bool_ "no such service" true (!result = Some (Error (Rpc.No_such_service "missing")))

let test_rpc_late_reply_ignored () =
  let net, rpc = make_rpc () in
  (* Reply deferred beyond the timeout: the caller sees Timeout, the late
     reply is dropped, and the continuation fires exactly once. *)
  serve_string rpc ~node:"server" ~service:"slow" (fun ~caller:_ body reply ->
      Engine.schedule (Net.engine net) ~delay:5.0 (fun () -> reply body));
  let fires = ref 0 in
  let result = ref None in
  call_string rpc ~src:"client" ~dst:"server" ~service:"slow" ~timeout:1.0 "hi" (fun r ->
      incr fires;
      result := Some r);
  Net.run net;
  check int_ "exactly one continuation" 1 !fires;
  check bool_ "timeout" true (!result = Some (Error Rpc.Timeout))

(* Only the node a call went to can answer it: a third node's reply or
   error frame under the call's id is dropped, whatever id it guesses,
   and the real reply still completes the call. *)
let test_rpc_reply_only_from_callee () =
  let net, rpc = make_rpc () in
  Net.add_node net "mallory";
  serve_string rpc ~node:"server" ~service:"slow" (fun ~caller:_ body reply ->
      Engine.schedule (Net.engine net) ~delay:1.0 (fun () -> reply ("real:" ^ body)));
  let fires = ref [] in
  List.iter
    (fun body -> call_string rpc ~src:"client" ~dst:"server" ~service:"slow" ~timeout:5.0 body (fun r -> fires := r :: !fires))
    [ "a"; "b" ];
  Engine.schedule_at (Net.engine net) ~at:0.5 (fun () ->
      for id = 0 to 9 do
        Net.send net ~src:"mallory" ~dst:"client" ~category:"slow" (Rpc.encode_reply id "forged");
        Net.send net ~src:"mallory" ~dst:"client" ~category:"slow" (Rpc.encode_error id "forged")
      done);
  Net.run net;
  check bool_ "each call completed once, by the server" true
    (List.sort compare !fires = [ Ok "real:a"; Ok "real:b" ]);
  check int_ "no pending calls leak" 0 (Rpc.calls_in_flight rpc)

(* A node cannot relay: it sends the callee a request of its own under
   the id of another node's pending call, and the callee's answer — from
   the node called, under that id — is delivered to the relay, not to
   the caller, so it completes nothing.  [mallory] serves a service, so
   the bus dispatches what reaches it, as for any node that serves or
   calls; the server answers it at once and the client only after 1 s. *)
let test_rpc_relayed_id () =
  let net, rpc = make_rpc () in
  Net.add_node net "mallory";
  serve_string rpc ~node:"mallory" ~service:"noop" (fun ~caller:_ _ reply -> reply "");
  serve_string rpc ~node:"server" ~service:"slow" (fun ~caller body reply ->
      let delay = if String.equal caller "mallory" then 0.0 else 1.0 in
      Engine.schedule (Net.engine net) ~delay (fun () -> reply ("real:" ^ body)));
  let fires = ref [] in
  call_string rpc ~src:"client" ~dst:"server" ~service:"slow" ~timeout:5.0 "a" (fun r -> fires := r :: !fires);
  Engine.schedule_at (Net.engine net) ~at:0.1 (fun () ->
      for id = 0 to 9 do
        Net.send net ~src:"mallory" ~dst:"server" ~category:"slow" (Rpc.encode_request id "slow" "evil")
      done);
  Net.run net;
  check bool_ "the call completed once, with the answer to its own request" true (!fires = [ Ok "real:a" ]);
  check int_ "no pending calls leak" 0 (Rpc.calls_in_flight rpc)

let test_rpc_nested_call () =
  (* A service that itself calls another service before replying —
     the shape of a PDP consulting a PIP. *)
  let net, rpc = make_rpc () in
  Net.add_node net "pip";
  serve_string rpc ~node:"pip" ~service:"attributes" (fun ~caller:_ _ reply -> reply "role=doctor");
  serve_string rpc ~node:"server" ~service:"decide" (fun ~caller:_ body reply ->
      call_string rpc ~src:"server" ~dst:"pip" ~service:"attributes" "alice" (function
        | Ok attrs -> reply (body ^ "+" ^ attrs)
        | Error _ -> reply "error"));
  let result = ref None in
  call_string rpc ~src:"client" ~dst:"server" ~service:"decide" "req" (fun r -> result := Some r);
  Net.run net;
  check bool_ "nested" true (!result = Some (Ok "req+role=doctor"))

let test_rpc_concurrent_calls () =
  let net, rpc = make_rpc () in
  serve_string rpc ~node:"server" ~service:"echo" (fun ~caller:_ body reply -> reply body);
  let replies = ref [] in
  for i = 1 to 10 do
    call_string rpc ~src:"client" ~dst:"server" ~service:"echo" (string_of_int i) (function
      | Ok r -> replies := r :: !replies
      | Error _ -> ())
  done;
  Net.run net;
  check int_ "all replied" 10 (List.length !replies);
  check (Alcotest.list string_) "correlated correctly"
    (List.map string_of_int [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ])
    (List.sort (fun a b -> compare (int_of_string a) (int_of_string b)) !replies)

(* The pending table is indexed by id: a call held open while hundreds
   of later ids come and go — one at a time, then 150 at once — keeps its
   slot through every growth, and each call is completed once, by its
   own answer. *)
let test_rpc_long_pending_call () =
  let net, rpc = make_rpc () in
  serve_string rpc ~node:"server" ~service:"echo" (fun ~caller:_ body reply -> reply body);
  let held = ref None in
  serve_string rpc ~node:"server" ~service:"hold" (fun ~caller:_ _ reply -> held := Some reply);
  let first = ref [] in
  call_string rpc ~src:"client" ~dst:"server" ~service:"hold" ~timeout:1000.0 "x" (fun r -> first := r :: !first);
  Net.run net ~until:1.0;
  let answered = ref 0 in
  let echo i =
    call_string rpc ~src:"client" ~dst:"server" ~service:"echo" (string_of_int i) (function
      | Ok r when r = string_of_int i -> incr answered
      | Ok _ | Error _ -> ())
  in
  for i = 1 to 300 do
    echo i;
    Net.run net ~until:(1.0 +. float_of_int i)
  done;
  for i = 301 to 450 do
    echo i
  done;
  check int_ "the held call and 150 echoes pending" 151 (Rpc.calls_in_flight rpc);
  Net.run net ~until:400.0;
  check int_ "every echo answered by its own reply" 450 !answered;
  check int_ "the held call still pending" 1 (Rpc.calls_in_flight rpc);
  (match !held with Some reply -> reply "late" | None -> Alcotest.fail "the hold service never ran");
  Net.run net;
  check bool_ "the held call answered once" true (!first = [ Ok "late" ]);
  check int_ "nothing pending" 0 (Rpc.calls_in_flight rpc)

(* --- one-way frames --------------------------------------------------------- *)

let cast_string rpc ~src ~dst ~service body =
  Rpc.cast_frame rpc ~src ~dst ~service (fun buf -> Buffer.add_string buf body)

(* A one-way service recording each (caller, body) it runs for. *)
let serve_note rpc ~node =
  let seen = ref [] in
  Rpc.serve_cast rpc ~node ~service:"note" (fun ~caller body ->
      seen := (caller, Rpc.slice_to_string body) :: !seen);
  seen

let served_total rpc = Dacs_telemetry.Metrics.sum_counter (Rpc.metrics rpc) "rpc_requests_served_total"

let test_cast_runs_handler () =
  let net, rpc = make_rpc () in
  let seen = serve_note rpc ~node:"server" in
  cast_string rpc ~src:"client" ~dst:"server" ~service:"note" "hello";
  check int_ "nothing pending once sent" 0 (Rpc.calls_in_flight rpc);
  Net.run net;
  check bool_ "handler ran once" true (!seen = [ ("client", "hello") ]);
  check int_ "no call in flight" 0 (Rpc.calls_in_flight rpc);
  check int_ "no timer left" 0 (Engine.pending (Net.engine net));
  let bytes = String.length (Rpc.encode_one_way "note" "hello") in
  check bool_ "one message, no reply" true (Net.stats_by_category net = [ ("note", { Net.count = 1; bytes }) ]);
  check int_ "counted as a call" 1 (Dacs_telemetry.Metrics.sum_counter (Rpc.metrics rpc) "rpc_calls_total");
  check int_ "counted as served" 1 (served_total rpc)

let test_cast_unknown_service () =
  let net, rpc = make_rpc () in
  serve_string rpc ~node:"server" ~service:"note" (fun ~caller:_ _ reply -> reply "ack");
  cast_string rpc ~src:"client" ~dst:"server" ~service:"missing" "hello";
  Net.run net;
  check bool_ "only the one-way frame was sent" true
    (List.map fst (Net.stats_by_category net) = [ "missing" ]);
  check int_ "no timer left" 0 (Engine.pending (Net.engine net))

let test_cast_traced_span_tree () =
  let module Trace = Dacs_telemetry.Trace in
  let net, rpc = make_rpc () in
  Rpc.set_tracing rpc true;
  ignore (serve_note rpc ~node:"server");
  cast_string rpc ~src:"client" ~dst:"server" ~service:"note" "hello";
  Net.run net;
  match Trace.critical_path (Rpc.tracer rpc) with
  | [ client; server ] ->
    check string_ "client span" "rpc:note" client.Trace.v_name;
    check string_ "server span" "serve:note" server.Trace.v_name;
    check bool_ "server span is the client span's child" true
      (server.Trace.v_parent = Some client.Trace.v_span_id);
    check bool_ "same trace" true (server.Trace.v_trace_id = client.Trace.v_trace_id);
    check bool_ "both finished" true (client.Trace.v_end <> None && server.Trace.v_end <> None)
  | path -> Alcotest.failf "expected a client and a serve span, got %d spans" (List.length path)

(* A handler that casts just before it replies: the cast's client span
   ends at the instant the nested call it follows completes, but it
   bounds nobody's answer, so the path runs through the nested call. *)
let test_cast_off_critical_path () =
  let module Trace = Dacs_telemetry.Trace in
  let net, rpc = make_rpc () in
  Net.add_node net "pip";
  Net.add_node net "sink";
  Rpc.set_tracing rpc true;
  ignore (serve_note rpc ~node:"sink");
  serve_string rpc ~node:"pip" ~service:"lookup" (fun ~caller:_ _ reply -> reply "role=doctor");
  serve_string rpc ~node:"server" ~service:"work" (fun ~caller:_ body reply ->
      call_string rpc ~src:"server" ~dst:"pip" ~service:"lookup" body (fun _ ->
          cast_string rpc ~src:"server" ~dst:"sink" ~service:"note" body;
          reply "done"));
  call_string rpc ~src:"client" ~dst:"server" ~service:"work" "alice" ignore;
  Net.run net;
  check (Alcotest.list string_) "the path runs through the nested call"
    [ "rpc:work"; "serve:work"; "rpc:lookup"; "serve:lookup" ]
    (List.map (fun v -> v.Trace.v_name) (Trace.critical_path (Rpc.tracer rpc)));
  check int_ "the cast was still traced" 6 (Trace.span_count (Rpc.tracer rpc))

(* --- one shape per service: a call never runs a one-way handler, nor
   a one-way frame a request/reply one -------------------------------------- *)

let test_call_to_one_way_service () =
  let net, rpc = make_rpc () in
  let seen = serve_note rpc ~node:"server" in
  let results = ref [] in
  for _ = 1 to 6 do
    call_string rpc ~src:"client" ~dst:"server" ~service:"note" ~breaker:true "hello" (fun r ->
        results := r :: !results)
  done;
  Net.run net ~until:0.5;
  check bool_ "every call answered at once with no-such-service" true
    (!results = List.init 6 (fun _ -> Error (Rpc.No_such_service "note")));
  check int_ "nothing pending" 0 (Rpc.calls_in_flight rpc);
  Net.run net;
  check int_ "each continuation ran once" 6 (List.length !results);
  check bool_ "the handler never ran" true (!seen = []);
  check int_ "nothing served" 0 (served_total rpc);
  check bool_ "no breaker failure counted" true (Rpc.breaker_state rpc "server" = Rpc.Closed)

let test_batch_to_one_way_service () =
  let net, rpc = make_rpc () in
  let seen = serve_note rpc ~node:"server" in
  let result = ref None in
  Rpc.call_batch_frame rpc ~src:"client" ~dst:"server" ~service:"note"
    [ (fun buf -> Buffer.add_string buf "a"); (fun buf -> Buffer.add_string buf "b") ]
    (fun r -> result := Some r);
  Net.run net ~until:0.5;
  check bool_ "the batch fails with no-such-service" true
    (match !result with Some (Error (Rpc.No_such_service "note")) -> true | _ -> false);
  check bool_ "the handler never ran" true (!seen = []);
  check int_ "nothing served" 0 (served_total rpc)

let test_cast_to_request_reply_service () =
  let net, rpc = make_rpc () in
  let ran = ref 0 in
  serve_string rpc ~node:"server" ~service:"echo" (fun ~caller:_ body reply ->
      incr ran;
      reply body);
  cast_string rpc ~src:"client" ~dst:"server" ~service:"echo" "hello";
  Net.run net;
  check int_ "the handler never ran" 0 !ran;
  check bool_ "nothing sent back" true (List.map fst (Net.stats_by_category net) = [ "echo" ]);
  check int_ "nothing served" 0 (served_total rpc)

(* A one-way body its reader rejects, or whose envelope is malformed,
   reaches no handler and sends no fault: there is nobody to send it to. *)
let test_cast_rejected_body_dropped () =
  let module Service = Dacs_ws.Service in
  let module Cursor = Dacs_xml.Xml.Cursor in
  let net = Net.create () in
  let services = Service.create (Rpc.create net) in
  Net.add_node net "client";
  Net.add_node net "server";
  let ran = ref 0 in
  let ping = Service.one_way "ping" (fun c -> Ok (Cursor.leaf0 "Ping" c)) in
  Service.serve_cast services ~node:"server" ping (fun ~caller:_ () -> incr ran);
  Service.cast services ~src:"client" ~dst:"server" ping (fun buf -> Buffer.add_string buf "<Pong/>");
  Rpc.cast_frame (Service.rpc services) ~src:"client" ~dst:"server" ~service:"ping" (fun buf ->
      Buffer.add_string buf "<not-an-envelope");
  Net.run net;
  check int_ "no handler ran" 0 !ran;
  check bool_ "only the two one-way frames were sent" true
    (List.map (fun (c, st) -> (c, st.Net.count)) (Net.stats_by_category net) = [ ("ping", 2) ]);
  Service.cast services ~src:"client" ~dst:"server" ping (fun buf -> Buffer.add_string buf "<Ping/>");
  Net.run net;
  check int_ "a well-formed body still runs the handler" 1 !ran

(* The bus frames a service name verbatim between two bars, so a name
   holding '|' would mis-frame ("a|b" would be read as the service "a").
   Every way a name enters the bus, and both declaration shapes, refuse
   one before anything is registered or sent. *)
let test_rpc_service_name_with_separator () =
  let module Service = Dacs_ws.Service in
  let module Cursor = Dacs_xml.Xml.Cursor in
  let net, rpc = make_rpc () in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s accepted a service name holding '|'" what
    | exception Invalid_argument _ -> ()
  in
  let name = "weird|name" in
  let ping c = Ok (Cursor.leaf0 "Ping" c) in
  refused "Rpc.serve_frame" (fun () ->
      serve_string rpc ~node:"server" ~service:name (fun ~caller:_ b r -> r b));
  refused "Rpc.serve_cast" (fun () ->
      Rpc.serve_cast rpc ~node:"server" ~service:name (fun ~caller:_ _ -> ()));
  refused "Rpc.call_frame" (fun () -> call_string rpc ~src:"client" ~dst:"server" ~service:name "x|y" ignore);
  refused "Rpc.cast_frame" (fun () -> cast_string rpc ~src:"client" ~dst:"server" ~service:name "x|y");
  refused "Rpc.call_batch_frame" (fun () ->
      Rpc.call_batch_frame rpc ~src:"client" ~dst:"server" ~service:name
        [ (fun buf -> Buffer.add_string buf "x") ]
        ignore);
  refused "Service.request_reply" (fun () -> ignore (Service.request_reply name ~request:ping ~reply:ping));
  refused "Service.one_way" (fun () -> ignore (Service.one_way name ping));
  Net.run net;
  check int_ "nothing sent" 0 (Net.total_sent net).Net.count;
  check int_ "nothing pending" 0 (Rpc.calls_in_flight rpc)

(* --- rpc wire format (satellite: QCheck round-trip) ----------------------- *)

let frame_roundtrip_tests =
  let open QCheck in
  (* Adversarial strings: plenty of '|', '%', empty chunks.  Header
     fields (service names and trace contexts) are drawn from the same
     chunks without '|', the one byte no name may hold. *)
  let chunks = [ "|"; "%"; "%7C"; "a"; "xml<>&"; ""; "Q|1|"; "%25" ] in
  let made chunks =
    make ~print:Print.string Gen.(map (String.concat "") (list_size (int_bound 8) (oneofl chunks)))
  in
  let nasty_string = made chunks in
  let field = made (List.filter (fun c -> not (String.contains c '|')) chunks) in
  [
    Test.make ~name:"rpc frame: request round-trips adversarial service/body" ~count:500
      (triple small_nat field nasty_string) (fun (id, service, body) ->
        Rpc.decode (Rpc.encode_request id service body) = Some (Rpc.Request (id, service, body)));
    Test.make ~name:"rpc frame: reply and error round-trip" ~count:300
      (pair small_nat nasty_string) (fun (id, body) ->
        Rpc.decode (Rpc.encode_reply id body) = Some (Rpc.Reply (id, body))
        && Rpc.decode (Rpc.encode_error id body) = Some (Rpc.Error_frame (id, body)));
    (* Batch envelopes: the B/BT multi-part frames the tier and the
       attribute fetcher ride on.  Empty part lists and parts that are
       themselves empty strings are legal payloads. *)
    Test.make ~name:"rpc frame: batch request round-trips (incl. empty parts)" ~count:500
      (triple small_nat field (list_of_size (Gen.int_bound 6) nasty_string))
      (fun (id, service, parts) ->
        Rpc.decode (Rpc.encode_batch_request id service parts)
        = Some (Rpc.Batch_request (id, service, parts)));
    Test.make ~name:"rpc frame: traced batch request round-trips" ~count:500
      (pair (triple small_nat field field) (list_of_size (Gen.int_bound 6) nasty_string))
      (fun ((id, service, trace), parts) ->
        Rpc.decode (Rpc.encode_traced_batch_request id service ~trace parts)
        = Some (Rpc.Traced_batch_request { id; service; trace; parts }));
    Test.make ~name:"rpc frame: one-way and traced one-way round-trip" ~count:500
      (triple field field nasty_string) (fun (service, trace, body) ->
        Rpc.decode (Rpc.encode_one_way service body) = Some (Rpc.One_way (service, body))
        && Rpc.decode (Rpc.encode_traced_one_way service ~trace body)
           = Some (Rpc.Traced_one_way { service; trace; body }));
    Test.make ~name:"rpc frame: parts codec round-trips" ~count:500
      (list_of_size (Gen.int_bound 8) nasty_string) (fun parts ->
        Rpc.decode_parts (Rpc.encode_parts parts) = Some parts);
  ]

(* Headers are canonical: whatever [decode] accepts re-encodes to the
   very bytes it read, so no two byte strings name the same frame. *)
let encode_frame = function
  | Rpc.Request (id, service, body) -> Rpc.encode_request id service body
  | Rpc.Traced_request { id; service; trace; body } -> Rpc.encode_traced_request id service ~trace body
  | Rpc.Batch_request (id, service, parts) -> Rpc.encode_batch_request id service parts
  | Rpc.Traced_batch_request { id; service; trace; parts } ->
    Rpc.encode_traced_batch_request id service ~trace parts
  | Rpc.One_way (service, body) -> Rpc.encode_one_way service body
  | Rpc.Traced_one_way { service; trace; body } -> Rpc.encode_traced_one_way service ~trace body
  | Rpc.Reply (id, body) -> Rpc.encode_reply id body
  | Rpc.Error_frame (id, body) -> Rpc.encode_error id body

let canonical_decode s =
  match Rpc.decode s with
  | None -> true
  | Some f -> encode_frame f = s || QCheck.Test.fail_reportf "%S decodes but re-encodes as %S" s (encode_frame f)

(* Negative-path fuzz: random byte mutations of valid frames must come
   back as decode errors (None) or as some other well-formed, canonical
   frame — never as an exception.  The mutations are drawn from the generated
   ints, so a crashing mutation shrinks to a minimal one. *)
let frame_fuzz_tests =
  let open QCheck in
  let mutate ops s =
    List.fold_left
      (fun s (kind, pos, byte) ->
        let n = String.length s in
        if n = 0 then String.make 1 (Char.chr (byte land 0xff))
        else
          let pos = pos mod (n + 1) in
          let b = Bytes.of_string s in
          match kind mod 3 with
          | 0 ->
            (* flip *)
            let pos = pos mod n in
            Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + (byte land 0xfe))));
            Bytes.to_string b
          | 1 ->
            (* insert *)
            String.sub s 0 pos ^ String.make 1 (Char.chr (byte land 0xff)) ^ String.sub s pos (n - pos)
          | _ ->
            (* delete *)
            if pos >= n then String.sub s 0 (n - 1)
            else String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1))
      s ops
  in
  let arb_mutations = list_of_size Gen.(int_range 1 6) (triple small_nat small_nat small_nat) in
  let total_decode s =
    match canonical_decode s with
    | canonical -> (
      canonical && match Rpc.decode_parts s with Some _ | None -> true)
    | exception e -> Test.fail_reportf "decode raised %s on %S" (Printexc.to_string e) s
  in
  [
    Test.make ~name:"rpc fuzz: mutated batch frames never raise" ~count:1000
      (pair (triple small_nat small_string (list_of_size (Gen.int_bound 4) small_string)) arb_mutations)
      (fun ((id, service, parts), ops) ->
        total_decode (mutate ops (Rpc.encode_batch_request id service parts)));
    Test.make ~name:"rpc fuzz: mutated traced batch frames never raise" ~count:1000
      (pair (triple small_nat small_string (list_of_size (Gen.int_bound 4) small_string)) arb_mutations)
      (fun ((id, service, parts), ops) ->
        total_decode (mutate ops (Rpc.encode_traced_batch_request id service ~trace:"7f-2a" parts)));
    Test.make ~name:"rpc fuzz: mutated request/reply frames never raise" ~count:1000
      (pair (pair small_nat small_string) arb_mutations)
      (fun ((id, body), ops) ->
        total_decode (mutate ops (Rpc.encode_request id "svc" body))
        && total_decode (mutate ops (Rpc.encode_reply id body)));
    Test.make ~name:"rpc fuzz: mutated one-way frames never raise" ~count:1000
      (pair small_string arb_mutations)
      (fun (body, ops) ->
        total_decode (mutate ops (Rpc.encode_one_way "svc" body))
        && total_decode (mutate ops (Rpc.encode_traced_one_way "svc" ~trace:"7f-2a" body)));
    Test.make ~name:"rpc fuzz: arbitrary bytes never raise" ~count:1000
      (string_gen Gen.char) total_decode;
  ]

let frame_canonical_tests =
  let open QCheck in
  let header_bytes = Gen.(map (String.concat "") (list_size (int_bound 12) (oneofl [ "|"; "%"; "7C"; "25"; "0"; "1"; "x"; "+"; "_"; "-"; "B"; "T"; "A"; "Q"; "E"; "O"; ":" ]))) in
  [
    Test.make ~name:"rpc frame: a decoded frame re-encodes to its bytes (header-ish bytes)" ~count:2000
      (make ~print:Print.string header_bytes) canonical_decode;
    Test.make ~name:"rpc frame: a decoded frame re-encodes to its bytes (arbitrary bytes)" ~count:1000
      (string_gen Gen.char) canonical_decode;
  ]

let test_non_canonical_headers () =
  List.iter
    (fun s -> check bool_ (Printf.sprintf "%S rejected" s) true (Rpc.decode s = None))
    [
      "A|0x10||b"; "A|1_0||b"; "A|+3||b"; "A|0b11||b"; "A|010||b"; "A|-1||b"; "A|||b"; "A|1|svc|b";
      "E|1|x|no"; "B|1|s|01:a"; "B|1|s|+1:a"; "B|1|s|0x1:a";
      "BT|1|s|t|1_0:aaaaaaaaaa"; "X|1|s|b"; "QQ|1|s|b";
      (* a one-way frame takes no id: only 0 is accepted *)
      "O|1|s|b"; "O|00|s|b"; "O||s|b"; "OT|7|s|t|b"; "OQ|0|s|b";
    ];
  check bool_ "one-way id 0 accepted" true (Rpc.decode "O|0|s|b" = Some (Rpc.One_way ("s", "b")));
  check bool_ "traced one-way id 0 accepted" true
    (Rpc.decode "OT|0|s|t|b" = Some (Rpc.Traced_one_way { service = "s"; trace = "t"; body = "b" }));
  check bool_ "plain decimal accepted" true (Rpc.decode "A|16||b" = Some (Rpc.Reply (16, "b")));
  check bool_ "zero id accepted" true (Rpc.decode "A|0||b" = Some (Rpc.Reply (0, "b")))

(* A header field is the bytes between two bars, read verbatim: a '%' in
   a service name or trace context escapes nothing, so "%7C" names no
   '|' and a hostile one is just the name of some unknown service. *)
let test_percent_headers_verbatim () =
  let accepted s frame =
    check bool_ (Printf.sprintf "%S accepted verbatim" s) true (Rpc.decode s = Some frame)
  in
  accepted "Q|1|a%7Cb|x" (Rpc.Request (1, "a%7Cb", "x"));
  accepted "Q|1|a%b|x" (Rpc.Request (1, "a%b", "x"));
  accepted "Q|1|a%7c|x" (Rpc.Request (1, "a%7c", "x"));
  accepted "T|1|s|t%|x" (Rpc.Traced_request { id = 1; service = "s"; trace = "t%"; body = "x" });
  accepted "OT|0|s|t%|b" (Rpc.Traced_one_way { service = "s"; trace = "t%"; body = "b" })

(* Hand-picked malformed part encodings: every way a length prefix can
   lie about the bytes that follow. *)
let test_decode_parts_negative () =
  let rejects label s =
    check bool_ (Printf.sprintf "%s (%S) rejected" label s) true (Rpc.decode_parts s = None)
  in
  rejects "bare colon" ":";
  rejects "length overruns buffer" "5:abc";
  rejects "negative length" "-1:x";
  rejects "length not a number" "abc:x";
  rejects "missing colon" "5abc";
  rejects "trailing garbage after last part" "1:a,";
  rejects "second part truncated" "1:a,9:bc";
  rejects "overflowing length prefix" "99999999999999999999:x";
  (* Exactness at the boundary: a prefix consuming the rest is fine,
     one byte more is not. *)
  check bool_ "exact length accepted" true (Rpc.decode_parts "3:abc" = Some [ "abc" ]);
  check bool_ "one past the end rejected" true (Rpc.decode_parts "4:abc" = None);
  check bool_ "empty part round-trips" true (Rpc.decode_parts (Rpc.encode_parts [ "" ]) = Some [ "" ]);
  check bool_ "empty list round-trips" true
    (Rpc.decode_parts (Rpc.encode_parts []) = Some []);
  check bool_ "batch of empty parts round-trips" true
    (Rpc.decode (Rpc.encode_batch_request 7 "s" [ ""; "" ])
    = Some (Rpc.Batch_request (7, "s", [ ""; "" ])))

(* --- rpc resilience -------------------------------------------------------- *)

(* A point-to-point echo call whose caller owns the re-send: each
   attempt goes through the breaker, and each failure takes
   [Rpc.retry_after]. *)
let retrying_echo rpc ?(service = "echo") ?timeout retry k =
  let rec attempt failures =
    call_string rpc ~src:"client" ~dst:"server" ~service ?timeout ~breaker:true "hi" (function
      | Error err
        when Rpc.retry_after rpc ~src:"client" ~dst:"server" retry ~failures err (fun () ->
                 attempt (failures + 1)) ->
        ()
      | r -> k r)
  in
  attempt 1

let test_rpc_retry_recovers () =
  (* Server down for the first attempts, back before they run out. *)
  let net, rpc = make_rpc () in
  serve_string rpc ~node:"server" ~service:"echo" (fun ~caller:_ body reply -> reply body);
  Net.crash net "server";
  Engine.schedule (Net.engine net) ~delay:1.5 (fun () -> Net.recover net "server");
  let retry = { Rpc.attempts = 5; base_delay = 0.5; multiplier = 2.0; max_delay = 4.0; jitter = 0.0 } in
  let result = ref None in
  retrying_echo rpc ~timeout:0.4 retry (fun r -> result := Some r);
  Net.run net;
  check bool_ "eventually ok" true (!result = Some (Ok "hi"));
  let retries = (Rpc.resilience_stats rpc).Rpc.retries in
  check bool_ "took at least one retry" true (retries >= 1);
  (* Every attempt sends one request frame, lost or not. *)
  let attempts = (List.assoc "echo" (Net.stats_by_category net)).Net.count in
  check int_ "bus counted the retries" (attempts - 1) retries

let test_rpc_retry_exhausted () =
  let net, rpc = make_rpc () in
  serve_string rpc ~node:"server" ~service:"echo" (fun ~caller:_ body reply -> reply body);
  Net.crash net "server";
  let retry = { Rpc.no_retry with attempts = 3; base_delay = 0.1 } in
  let result = ref None in
  retrying_echo rpc ~timeout:0.2 retry (fun r -> result := Some r);
  Net.run net;
  check bool_ "all attempts failed" true (!result = Some (Error Rpc.Timeout));
  check int_ "two retries counted" 2 (Rpc.resilience_stats rpc).Rpc.retries

let test_rpc_no_such_service_not_retried () =
  let net, rpc = make_rpc () in
  serve_string rpc ~node:"server" ~service:"other" (fun ~caller:_ _ reply -> reply "x");
  let result = ref None in
  retrying_echo rpc ~service:"missing" { Rpc.no_retry with attempts = 4 } (fun r ->
      result := Some r);
  Net.run net;
  check bool_ "fails fast" true (!result = Some (Error (Rpc.No_such_service "missing")));
  check int_ "no retries burned" 0 (Rpc.resilience_stats rpc).Rpc.retries

let test_rpc_backoff_is_deterministic () =
  (* Same seed => identical jittered backoff delays. *)
  let delays_for seed =
    let net = Net.create ~seed () in
    Net.add_node net "client";
    Net.add_node net "server";
    let rpc = Rpc.create net in
    (* The server swallows every request, so each attempt is delivered
       (and traced) but times out. *)
    serve_string rpc ~node:"server" ~service:"echo" (fun ~caller:_ _ _ -> ());
    Net.set_tracing net true;
    let timeout = 0.1 in
    let retry =
      { Rpc.attempts = 4; base_delay = 0.2; multiplier = 2.0; max_delay = 10.0; jitter = 0.5 }
    in
    retrying_echo rpc ~timeout retry ignore;
    Net.run net;
    (* Attempts travel over the same link, so the gap between two
       consecutive deliveries is the timeout plus the backoff. *)
    let rec backoffs = function
      | a :: (b :: _ as rest) -> (b -. a -. timeout) :: backoffs rest
      | [ _ ] | [] -> []
    in
    backoffs (List.map (fun e -> e.Net.t_time) (Net.trace net))
  in
  let a = delays_for 42L and b = delays_for 42L and c = delays_for 43L in
  check int_ "three backoffs" 3 (List.length a);
  check bool_ "same seed, same jitter" true (a = b);
  check bool_ "different seed, different jitter" true (a <> c)

let test_rpc_breaker_lifecycle () =
  let net, rpc = make_rpc () in
  Rpc.set_breaker rpc (Some { Rpc.failure_threshold = 2; cooldown = 5.0 });
  serve_string rpc ~node:"server" ~service:"echo" (fun ~caller:_ body reply -> reply body);
  Net.crash net "server";
  let results = ref [] in
  let call_at at =
    Engine.schedule_at (Net.engine net) ~at (fun () ->
        call_string rpc ~src:"client" ~dst:"server" ~service:"echo" ~timeout:1.0 ~breaker:true "x"
          (fun r -> results := (Net.now net, r) :: !results))
  in
  call_at 0.1;
  (* trips at failure 2 *)
  call_at 2.0;
  (* rejected while open (opened ~3.0, cooldown till ~8.0) *)
  call_at 4.0;
  (* half-open probe after cooldown; server still down -> reopens *)
  call_at 9.0;
  (* recover, then a successful probe closes it *)
  Engine.schedule_at (Net.engine net) ~at:15.0 (fun () -> Net.recover net "server");
  call_at 16.0;
  Net.run net;
  let outcomes = List.rev_map snd !results in
  check
    (Alcotest.list bool_)
    "timeout, timeout(trip), rejected, probe-timeout, ok"
    [ true; true; true; true; false ]
    (List.map (function Error _ -> true | Ok _ -> false) outcomes);
  check bool_ "breaker rejection seen" true
    (List.exists (fun r -> r = Error (Rpc.Circuit_open "server")) outcomes);
  check bool_ "closed after success" true (Rpc.breaker_state rpc "server" = Rpc.Closed);
  let s = Rpc.resilience_stats rpc in
  check bool_ "trips counted" true (s.Rpc.breaker_trips >= 2);
  check int_ "rejections counted" 1 s.Rpc.breaker_rejections

(* A bus breaks circuits from the start: five consecutive timeouts open
   the target's breaker without any [set_breaker] call, and the sixth
   call is shed.  [set_breaker None] turns that off. *)
let test_rpc_breaker_default () =
  let sixth_after_five_timeouts ~disable =
    let net, rpc = make_rpc () in
    if disable then Rpc.set_breaker rpc None;
    serve_string rpc ~node:"server" ~service:"echo" (fun ~caller:_ body reply -> reply body);
    Net.crash net "server";
    let results = ref [] in
    for i = 0 to 5 do
      Engine.schedule_at (Net.engine net) ~at:(2.0 *. float_of_int i) (fun () ->
          call_string rpc ~src:"client" ~dst:"server" ~service:"echo" ~timeout:1.0 ~breaker:true "x"
            (fun r -> results := r :: !results))
    done;
    Net.run net;
    (rpc, List.hd !results)
  in
  let rpc, sixth = sixth_after_five_timeouts ~disable:false in
  check bool_ "default breaker sheds the sixth call" true
    (sixth = Error (Rpc.Circuit_open "server"));
  check bool_ "open after five timeouts" true (Rpc.breaker_state rpc "server" = Rpc.Open);
  check int_ "one trip" 1 (Rpc.resilience_stats rpc).Rpc.breaker_trips;
  check bool_ "sheds within the cooldown" true (Rpc.breaker_sheds rpc "server");
  check bool_ "the query made no transition" true (Rpc.breaker_state rpc "server" = Rpc.Open);
  let rpc, sixth = sixth_after_five_timeouts ~disable:true in
  check bool_ "disabled: the sixth call times out" true (sixth = Error Rpc.Timeout);
  check bool_ "disabled: reported closed" true (Rpc.breaker_state rpc "server" = Rpc.Closed);
  check int_ "disabled: no trip" 0 (Rpc.resilience_stats rpc).Rpc.breaker_trips;
  check bool_ "disabled: sheds nothing" false (Rpc.breaker_sheds rpc "server")

(* A peer that answers every batch with one part, whatever it was asked:
   a raw node, below the RPC layer, that echoes the request's id. *)
let one_part_server net node =
  Net.set_handler net node (fun msg ->
      match Rpc.decode msg.Net.payload with
      | Some (Rpc.Batch_request (id, _, _)) ->
        Net.send net ~src:node ~dst:msg.Net.src ~category:"reply"
          (Rpc.encode_reply id (Rpc.encode_parts [ "only" ]))
      | Some _ | None -> ())

(* A batch reply with the wrong number of parts fails the call with
   [Timeout], and the breaker hears the failure the caller gets: two such
   calls trip it, and a half-open probe answered that way re-opens it.
   (A tier that re-sends such a frame counts each attempt: test_tier.) *)
let test_rpc_breaker_counts_wrong_arity () =
  let batch_of_two rpc ~at results net =
    Engine.schedule_at (Net.engine net) ~at (fun () ->
        Rpc.call_batch_frame rpc ~src:"client" ~dst:"server" ~service:"q" ~breaker:true
          [ (fun buf -> Buffer.add_string buf "a"); (fun buf -> Buffer.add_string buf "b") ]
          (fun r -> results := r :: !results))
  in
  let net, rpc = make_rpc () in
  Rpc.set_breaker rpc (Some { Rpc.failure_threshold = 2; cooldown = 5.0 });
  one_part_server net "server";
  let results = ref [] in
  batch_of_two rpc ~at:0.1 results net;
  batch_of_two rpc ~at:0.5 results net;
  Net.run net;
  check bool_ "both calls time out" true (!results = [ Error Rpc.Timeout; Error Rpc.Timeout ]);
  check bool_ "two wrong-arity replies trip the breaker" true
    (Rpc.breaker_state rpc "server" = Rpc.Open);
  check int_ "one trip" 1 (Rpc.resilience_stats rpc).Rpc.breaker_trips;
  batch_of_two rpc ~at:6.0 results net;
  Net.run net;
  check bool_ "the half-open probe timed out" true (List.hd !results = Error Rpc.Timeout);
  check bool_ "the probe re-opened the breaker" true (Rpc.breaker_state rpc "server" = Rpc.Open);
  check int_ "a second trip" 2 (Rpc.resilience_stats rpc).Rpc.breaker_trips

(* --- failure-detection primitives ------------------------------------------- *)

(* Twenty calls alternating between a crashed server and a live but slow
   peer; expiring the server fails exactly its ten, in issue (= id)
   order, with [Timeout], and leaves the peer's calls to be answered. *)
let test_rpc_expire_one_target () =
  let net, rpc = make_rpc () in
  Net.add_node net "peer";
  List.iter
    (fun node ->
      serve_string rpc ~node ~service:"echo" (fun ~caller:_ body reply ->
          Engine.schedule (Net.engine net) ~delay:2.0 (fun () -> reply body)))
    [ "server"; "peer" ];
  Net.crash net "server";
  let results = ref [] in
  for i = 0 to 19 do
    let dst = if i mod 2 = 0 then "server" else "peer" in
    call_string rpc ~src:"client" ~dst ~service:"echo" ~timeout:10.0 (string_of_int i) (fun r ->
        results := (i, Net.now net, r) :: !results)
  done;
  Engine.schedule_at (Net.engine net) ~at:0.5 (fun () -> Rpc.expire rpc "server");
  Net.run net;
  let results = List.rev !results in
  let expired, answered = List.partition (fun (i, _, _) -> i mod 2 = 0) results in
  check (Alcotest.list int_) "the server's calls fail in id order"
    (List.init 10 (fun i -> 2 * i))
    (List.map (fun (i, _, _) -> i) expired);
  List.iter
    (fun (i, at, r) ->
      check bool_ (Printf.sprintf "call %d timed out" i) true (r = Error Rpc.Timeout);
      check float_ (Printf.sprintf "call %d failed at the expiry" i) 0.5 at)
    expired;
  check int_ "every peer call answered" 10
    (List.length (List.filter (fun (i, _, r) -> r = Ok (string_of_int i)) answered));
  check int_ "no pending calls leak" 0 (Rpc.calls_in_flight rpc)

let test_rpc_reply_after_expire_dropped () =
  let net, rpc = make_rpc () in
  serve_string rpc ~node:"server" ~service:"slow" (fun ~caller:_ body reply ->
      Engine.schedule (Net.engine net) ~delay:1.0 (fun () -> reply body));
  let fires = ref [] in
  call_string rpc ~src:"client" ~dst:"server" ~service:"slow" ~timeout:5.0 "hi" (fun r ->
      fires := r :: !fires);
  Engine.schedule_at (Net.engine net) ~at:0.5 (fun () -> Rpc.expire rpc "server");
  Net.run net;
  check bool_ "one continuation, with Timeout" true (!fires = [ Error Rpc.Timeout ]);
  check bool_ "the late reply still counts as hearing from the server" true
    (Rpc.heard_from rpc "server" > 1.0)

(* The expiry of [n] breaker-guarded calls at once: each is one breaker
   failure, so the default rule (five in a row) decides the trip. *)
let breaker_after_expiring n =
  let net, rpc = make_rpc () in
  serve_string rpc ~node:"server" ~service:"echo" (fun ~caller:_ body reply -> reply body);
  Net.crash net "server";
  for _ = 1 to n do
    call_string rpc ~src:"client" ~dst:"server" ~service:"echo" ~timeout:10.0
      ~breaker:true "x" ignore
  done;
  Engine.schedule_at (Net.engine net) ~at:0.5 (fun () -> Rpc.expire rpc "server");
  Net.run ~until:1.0 net;
  Rpc.breaker_state rpc "server"

let test_rpc_expire_trips_by_rule () =
  check bool_ "five expired calls trip the breaker" true (breaker_after_expiring 5 = Rpc.Open);
  check bool_ "four do not" true (breaker_after_expiring 4 = Rpc.Closed)

let test_rpc_heard_from () =
  let net, rpc = make_rpc () in
  serve_string rpc ~node:"server" ~service:"echo" (fun ~caller:_ body reply -> reply body);
  serve_string rpc ~node:"client" ~service:"ping" (fun ~caller:_ _ reply -> reply "pong");
  check bool_ "nothing heard yet" true (Rpc.heard_from rpc "server" = neg_infinity);
  let replied = ref [] in
  let call_at at ~src ~dst ~service =
    Engine.schedule_at (Net.engine net) ~at (fun () ->
        call_string rpc ~src ~dst ~service "x" (fun _ -> replied := Net.now net :: !replied))
  in
  (* The server's request reaches the client: evidence about the client
     (its reply), none about the server. *)
  call_at 1.0 ~src:"server" ~dst:"client" ~service:"ping";
  Net.run net;
  check bool_ "a request from the server is not evidence" true
    (Rpc.heard_from rpc "server" = neg_infinity);
  check float_ "the client's reply is" (List.hd !replied) (Rpc.heard_from rpc "client");
  call_at 3.0 ~src:"client" ~dst:"server" ~service:"echo";
  Net.run net;
  check float_ "a reply frame advances it" (List.hd !replied) (Rpc.heard_from rpc "server");
  call_at 5.0 ~src:"client" ~dst:"server" ~service:"missing";
  Net.run net;
  check float_ "so does an error frame" (List.hd !replied) (Rpc.heard_from rpc "server");
  check bool_ "at the error's arrival" true (Rpc.heard_from rpc "server" > 5.0)

(* --- sequence rendering ---------------------------------------------------- *)

let test_sequence_render () =
  let net = make_pair () in
  Net.set_handler net "b" ignore;
  Net.set_handler net "a" ignore;
  Net.set_tracing net true;
  Net.send net ~src:"a" ~dst:"b" ~category:"ping" "x";
  Net.run net;
  Net.send net ~src:"b" ~dst:"a" ~category:"pong" "y";
  Net.run net;
  let out = Sequence.render (Net.trace net) in
  let lines = String.split_on_char '\n' out in
  check int_ "header + 2 messages + trailing" 4 (List.length lines);
  let contains s sub =
    let ns = String.length s and nn = String.length sub in
    let rec go i = i + nn <= ns && (String.sub s i nn = sub || go (i + 1)) in
    nn = 0 || go 0
  in
  check bool_ "participants in header" true
    (contains (List.nth lines 0) "a" && contains (List.nth lines 0) "b");
  check bool_ "forward arrow" true (contains (List.nth lines 1) ">");
  check bool_ "backward arrow" true (contains (List.nth lines 2) "<");
  check bool_ "categories shown" true (contains out "ping" && contains out "pong")

let test_sequence_participants () =
  let net = make_pair () in
  Net.add_node net "c";
  List.iter (fun n -> Net.set_handler net n ignore) [ "a"; "b"; "c" ];
  Net.set_tracing net true;
  Net.send net ~src:"c" ~dst:"a" ~category:"t" "x";
  Net.run net;
  Net.send net ~src:"a" ~dst:"b" ~category:"t" "x";
  Net.run net;
  check (Alcotest.list string_) "first-appearance order" [ "c"; "a"; "b" ]
    (Sequence.participants_of (Net.trace net));
  check string_ "empty trace" "(no messages)\n" (Sequence.render [])

(* --- allocation: one bare round trip ------------------------------------- *)

(* Minor words of one bare <Ping/> request and its <Pong/> reply through
   Service.call, Rpc and Net and back, drained by Net.run, after
   warm-up: the fixed cost every exchange pays before its payload
   (OCaml 5.1, dune's dev profile).  The substrate allocated 202 words
   for it when each message carried a closure and a boxed send time,
   each call a hashed pending entry and a timeout closure, and each
   received frame an optional header record and an optional envelope
   pair; the bound, 140, fails that. *)
let bare_round_trip_words () =
  let module Service = Dacs_ws.Service in
  let module Cursor = Dacs_xml.Xml.Cursor in
  let net = Net.create () in
  let services = Service.create (Rpc.create net) in
  Net.add_node net "client";
  Net.add_node net "server";
  let ping =
    Service.request_reply "ping" ~request:(fun c -> Ok (Cursor.leaf0 "Ping" c)) ~reply:(fun c -> Ok (Cursor.leaf0 "Pong" c))
  in
  Service.serve services ~node:"server" ping (fun ~caller:_ ~headers:_ () reply ->
      reply (fun buf -> Buffer.add_string buf "<Pong/>"));
  let answered = ref 0 in
  let on_reply = function Ok (Ok ()) -> incr answered | Ok (Error _) | Error _ -> () in
  let write_ping buf = Buffer.add_string buf "<Ping/>" in
  let round () =
    Service.call services ~src:"client" ~dst:"server" ping write_ping on_reply;
    Net.run net
  in
  for _ = 1 to 10 do
    round ()
  done;
  let rounds = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int rounds in
  check int_ "every round trip answered" (rounds + 10) !answered;
  words

let bare_round_trip_bound = 140.0

(* Minor words of one bare <Ping/> sent one way through
   Service.cast to a Service.serve_cast handler, Rpc and Net,
   drained by Net.run, after warm-up: one frame, no reply, no pending
   slot and no timer.  It measured 53 words (OCaml 5.1, dune's dev
   profile); the bound is that plus 10 %. *)
let bare_one_way_words () =
  let module Service = Dacs_ws.Service in
  let module Cursor = Dacs_xml.Xml.Cursor in
  let net = Net.create () in
  let services = Service.create (Rpc.create net) in
  Net.add_node net "client";
  Net.add_node net "server";
  let ping = Service.one_way "ping" (fun c -> Ok (Cursor.leaf0 "Ping" c)) in
  let served = ref 0 in
  Service.serve_cast services ~node:"server" ping (fun ~caller:_ () -> incr served);
  let write_ping buf = Buffer.add_string buf "<Ping/>" in
  let round () =
    Service.cast services ~src:"client" ~dst:"server" ping write_ping;
    Net.run net
  in
  for _ = 1 to 10 do
    round ()
  done;
  let rounds = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int rounds in
  check int_ "every one-way frame served" (rounds + 10) !served;
  words

let bare_one_way_bound = 58.0

let test_bare_one_way_allocation () =
  let words = bare_one_way_words () in
  Printf.printf "bare <Ping/> one-way send: %.1f minor words (bound %.1f)\n" words bare_one_way_bound;
  check bool_
    (Printf.sprintf "%.1f words <= %.1f" words bare_one_way_bound)
    true (words <= bare_one_way_bound)

let test_bare_round_trip_allocation () =
  let words = bare_round_trip_words () in
  Printf.printf "bare <Ping/> round trip: %.1f minor words (bound %.1f)\n" words bare_round_trip_bound;
  check bool_ (Printf.sprintf "%.1f words <= %.1f" words bare_round_trip_bound) true (words <= bare_round_trip_bound)

let () =
  Alcotest.run "dacs_net"
    [
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_engine_order;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "single step" `Quick test_engine_step;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
          Alcotest.test_case "heap stress order" `Quick test_engine_many_events_order;
        ] );
      ( "net",
        [
          Alcotest.test_case "delivery with latency" `Quick test_net_delivery_latency;
          Alcotest.test_case "default/override latency" `Quick test_net_default_latency;
          Alcotest.test_case "bandwidth model" `Quick test_net_bandwidth_model;
          Alcotest.test_case "crash drops" `Quick test_net_crash_drops;
          Alcotest.test_case "crashed sender silent" `Quick test_net_crashed_sender_silent;
          Alcotest.test_case "crash while in flight" `Quick test_net_crash_in_flight;
          Alcotest.test_case "partition and heal" `Quick test_net_partition_and_heal;
          Alcotest.test_case "drop rate" `Quick test_net_drop_rate;
          Alcotest.test_case "stats by category" `Quick test_net_stats;
          Alcotest.test_case "trace" `Quick test_net_trace;
          Alcotest.test_case "unknown node" `Quick test_net_unknown_node;
          Alcotest.test_case "selective unpartition" `Quick test_net_unpartition_selective;
          Alcotest.test_case "latency override save/restore" `Quick
            test_net_latency_override_roundtrip;
        ] );
      ( "sequence",
        [
          Alcotest.test_case "render" `Quick test_sequence_render;
          Alcotest.test_case "participants" `Quick test_sequence_participants;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "roundtrip" `Quick test_rpc_roundtrip;
          Alcotest.test_case "separator-safe payloads" `Quick test_rpc_payload_with_separators;
          Alcotest.test_case "timeout on crash" `Quick test_rpc_timeout_on_crash;
          Alcotest.test_case "no such service" `Quick test_rpc_no_such_service;
          Alcotest.test_case "late reply ignored" `Quick test_rpc_late_reply_ignored;
          Alcotest.test_case "a reply only from the node called" `Quick test_rpc_reply_only_from_callee;
          Alcotest.test_case "a relayed request id completes no other node's call" `Quick test_rpc_relayed_id;
          Alcotest.test_case "nested call" `Quick test_rpc_nested_call;
          Alcotest.test_case "concurrent calls" `Quick test_rpc_concurrent_calls;
          Alcotest.test_case "a long-pending call outlives later ids" `Quick test_rpc_long_pending_call;
          Alcotest.test_case "a service name with the separator is refused" `Quick
            test_rpc_service_name_with_separator;
        ] );
      ( "rpc-one-way",
        [
          Alcotest.test_case "a one-way frame runs the handler and leaves nothing pending" `Quick
            test_cast_runs_handler;
          Alcotest.test_case "a one-way frame to an unknown service is not answered" `Quick
            test_cast_unknown_service;
          Alcotest.test_case "a traced one-way serve span is its client span's child" `Quick
            test_cast_traced_span_tree;
          Alcotest.test_case "a cast before a reply stays off the critical path" `Quick
            test_cast_off_critical_path;
          Alcotest.test_case "a call to a one-way service fails at once with no-such-service" `Quick
            test_call_to_one_way_service;
          Alcotest.test_case "a batch to a one-way service fails with no-such-service" `Quick
            test_batch_to_one_way_service;
          Alcotest.test_case "a one-way frame to a request/reply service runs nothing" `Quick
            test_cast_to_request_reply_service;
          Alcotest.test_case "a one-way body the reader rejects is dropped" `Quick
            test_cast_rejected_body_dropped;
        ] );
      ( "rpc-frames",
        List.map QCheck_alcotest.to_alcotest (frame_roundtrip_tests @ frame_fuzz_tests @ frame_canonical_tests)
        @ [
            Alcotest.test_case "malformed part encodings rejected" `Quick test_decode_parts_negative;
            Alcotest.test_case "non-canonical headers rejected" `Quick test_non_canonical_headers;
            Alcotest.test_case "a '%' in a header is taken verbatim" `Quick test_percent_headers_verbatim;
          ]
      );
      ( "rpc-resilience",
        [
          Alcotest.test_case "retry recovers after restart" `Quick test_rpc_retry_recovers;
          Alcotest.test_case "retry exhausted" `Quick test_rpc_retry_exhausted;
          Alcotest.test_case "no-such-service fails fast" `Quick
            test_rpc_no_such_service_not_retried;
          Alcotest.test_case "deterministic jittered backoff" `Quick
            test_rpc_backoff_is_deterministic;
          Alcotest.test_case "breaker open/half-open/close" `Quick test_rpc_breaker_lifecycle;
          Alcotest.test_case "breaker on by default, set_breaker None disables" `Quick
            test_rpc_breaker_default;
          Alcotest.test_case "a wrong-arity batch reply is a breaker failure" `Quick
            test_rpc_breaker_counts_wrong_arity;
        ] );
      ( "rpc-detection",
        [
          Alcotest.test_case "expire fails one target's calls in id order" `Quick
            test_rpc_expire_one_target;
          Alcotest.test_case "a reply after expire is dropped" `Quick
            test_rpc_reply_after_expire_dropped;
          Alcotest.test_case "five expired calls trip the breaker, four do not" `Quick
            test_rpc_expire_trips_by_rule;
          Alcotest.test_case "heard_from advances on replies and errors only" `Quick
            test_rpc_heard_from;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "a bare round trip" `Quick test_bare_round_trip_allocation;
          Alcotest.test_case "a bare one-way send" `Quick test_bare_one_way_allocation;
        ] );
    ]
