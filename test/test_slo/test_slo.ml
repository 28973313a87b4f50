(* SLO monitor suite: rolling-window accounting on a controllable clock
   (availability and latency objectives, window aging, burn rates), and
   the workload engine's integration — the report's SLO status reflects
   what the run actually served, deterministically per seed. *)

module Slo = Dacs_telemetry.Slo
module W = Dacs_workload.Workload

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let float_ = Alcotest.float 1e-9

(* A monitor on a hand-cranked clock, held to Slo.objective: 99.9%
   served, 99% within 250 ms, over 60 s. *)
let monitor () =
  let now = ref 0.0 in
  let t = Slo.create ~now:(fun () -> !now) () in
  (t, now)

let test_empty_window () =
  let t, _ = monitor () in
  let s = Slo.status t in
  check int_ "no decisions" 0 s.Slo.total;
  check float_ "vacuous availability" 1.0 s.Slo.availability;
  check float_ "vacuous latency compliance" 1.0 s.Slo.latency_compliance;
  check float_ "no burn" 0.0 s.Slo.availability_burn;
  check bool_ "objectives met" true (s.Slo.availability_met && s.Slo.latency_met)

let test_accounting () =
  let t, now = monitor () in
  now := 1.0;
  Slo.record t ~ok:true ~latency:0.05;
  Slo.record t ~ok:true ~latency:0.3;
  Slo.record t ~ok:false ~latency:0.05;
  let s = Slo.status t in
  check int_ "three decisions" 3 s.Slo.total;
  check int_ "two served" 2 s.Slo.ok;
  check int_ "two fast" 2 s.Slo.fast;
  check float_ "availability 2/3" (2.0 /. 3.0) s.Slo.availability;
  check float_ "compliance 2/3" (2.0 /. 3.0) s.Slo.latency_compliance;
  check bool_ "availability violated" false s.Slo.availability_met

let test_window_aging () =
  let t, now = monitor () in
  now := 1.0;
  Slo.record t ~ok:false ~latency:10.0;
  let s = Slo.status t in
  check int_ "failure visible inside the window" 1 s.Slo.total;
  check bool_ "objective violated while visible" false s.Slo.availability_met;
  (* Advance past the rolling window: the old slice ages out and the
     monitor recovers on its own. *)
  now := 1.0 +. 61.0;
  let s = Slo.status t in
  check int_ "aged out" 0 s.Slo.total;
  check bool_ "objective recovers" true s.Slo.availability_met;
  (* New traffic after the gap starts a fresh account. *)
  Slo.record t ~ok:true ~latency:0.01;
  let s = Slo.status t in
  check int_ "fresh slice" 1 s.Slo.total;
  check float_ "clean availability" 1.0 s.Slo.availability

let test_burn_rates () =
  (* 0.1% error budget: a 0.2% error rate burns at 2x. *)
  let t, now = monitor () in
  now := 1.0;
  for _ = 1 to 998 do
    Slo.record t ~ok:true ~latency:0.01
  done;
  Slo.record t ~ok:false ~latency:0.01;
  Slo.record t ~ok:false ~latency:0.01;
  let s = Slo.status t in
  check float_ "availability 99.8%" 0.998 s.Slo.availability;
  check float_ "burn 2x" 2.0 s.Slo.availability_burn;
  (* Errors at exactly the budget rate burn at 1x — sustainable. *)
  let t2, now2 = monitor () in
  now2 := 1.0;
  for _ = 1 to 999 do
    Slo.record t2 ~ok:true ~latency:0.01
  done;
  Slo.record t2 ~ok:false ~latency:0.01;
  let s2 = Slo.status t2 in
  check float_ "burn exactly 1x at the budget rate" 1.0 s2.Slo.availability_burn;
  check bool_ "still met at the boundary" true s2.Slo.availability_met

(* --- workload integration ----------------------------------------------- *)

let test_workload_within_capacity () =
  let r = W.run W.default in
  let s = r.W.slo in
  check int_ "every completion accounted" r.W.completed s.Slo.total;
  check bool_ "availability met within capacity" true s.Slo.availability_met;
  check bool_ "latency met within capacity" true s.Slo.latency_met;
  (* served = granted + denied: Indeterminate answers (shed or error)
     burn the budget. *)
  check int_ "served = non-Indeterminate answers" (r.W.granted + r.W.denied) s.Slo.ok

let test_workload_overload_violates () =
  let r =
    W.run { W.default with W.arrivals = W.Open_loop { rate = 2000.0 }; duration = 2.0 }
  in
  let s = r.W.slo in
  check bool_ "sheds under overload" true (r.W.shed > 0);
  check bool_ "availability violated" false s.Slo.availability_met;
  check bool_ "budget burning above 1x" true (s.Slo.availability_burn > 1.0);
  (* The shed breakdown accounts for every shed answer by reason. *)
  check int_ "shed reasons sum to the aggregate" r.W.shed
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.W.shed_reasons)

let test_workload_deterministic () =
  let render () = W.render (W.run { W.default with W.seed = 97 }) in
  check Alcotest.string "same seed renders byte-identical (SLO lines included)" (render ())
    (render ())

let () =
  Alcotest.run "dacs_slo"
    [
      ( "monitor",
        [
          Alcotest.test_case "empty window is vacuously met" `Quick test_empty_window;
          Alcotest.test_case "availability and latency accounting" `Quick test_accounting;
          Alcotest.test_case "rolling window ages traffic out" `Quick test_window_aging;
          Alcotest.test_case "error-budget burn rates" `Quick test_burn_rates;
        ] );
      ( "workload",
        [
          Alcotest.test_case "objectives met within capacity" `Quick
            test_workload_within_capacity;
          Alcotest.test_case "overload violates availability" `Quick
            test_workload_overload_violates;
          Alcotest.test_case "report deterministic per seed" `Quick test_workload_deterministic;
        ] );
    ]
