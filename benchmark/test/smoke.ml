(* Every workload at 1/100 scale, traced, twice with one seed: checks pass,
   the results carry every metric BENCHMARK.json names (with its unit),
   and the seed-determined output is byte-identical across the runs. *)

open Dacsbench_lib

let spec = Json.parse (Json.read_file "../../BENCHMARK.json")

let declared section =
  List.filter_map
    (fun m ->
      match (Json.member "name" m, Json.member "unit" m) with
      | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
      | _ -> None)
    (Json.to_list (Option.value (Json.member section spec) ~default:Json.Null))

let opts = { Harness.seed = 11; reps = 1; trace = true; scale = 0.01; out_dir = "out" }

let names metrics = List.map (fun ((m : Spec.metric), _) -> (m.m_name, m.m_unit)) metrics

let workload_test (w : Spec.workload) =
  Alcotest.test_case w.name `Quick (fun () ->
      let a = Harness.run_workload opts w in
      let b = Harness.run_workload opts w in
      Alcotest.(check (list string)) "no failed check" [] a.problems;
      Alcotest.(check int) "no wrong decision" 0 a.wrong;
      Alcotest.(check bool) "requests offered" true (a.attempted > 0);
      Alcotest.(check (list (pair string string))) "end-to-end metrics" (declared "end_to_end") (names a.e2e);
      Alcotest.(check (list (pair string string))) "per-layer metrics" (declared "per_layer") (names a.layers);
      Alcotest.(check string) "deterministic output" a.deterministic b.deterministic;
      let line = Json.parse (Json.to_string (Harness.result_line a)) in
      Alcotest.(check bool) "result line reports correct" true (Json.member "correct" line = Some (Json.Bool true));
      Alcotest.(check bool) "result line carries per-layer metrics" true
        (match Json.member "metrics" line with
        | Some (Json.Obj l) -> List.map fst l = List.map fst (declared "per_layer")
        | _ -> false))

let workloads_declared () =
  let listed =
    List.filter_map
      (fun w -> Option.bind (Json.member "name" w) Json.to_str)
      (Json.to_list (Option.value (Json.member "workloads" spec) ~default:Json.Null))
  in
  Alcotest.(check (list string)) "workloads" (List.map (fun (w : Spec.workload) -> w.name) Spec.workloads) listed

(* [compare] fails on a pair B lacks and on a workload whose B run failed
   a check, not only on a regression. *)
let compare_verdicts () =
  let report ~correct ~wrong values =
    Json.Obj
      [ ("correct", Json.Bool correct); ("wrong_decisions", Json.Num wrong);
        ( "metrics",
          Json.Obj
            [ ("decisions_per_s", Json.Obj [ ("reps", Json.Arr (List.map (fun v -> Json.Num v) values)) ]) ] ) ]
  in
  let file workloads = Json.Obj [ ("workloads", Json.Obj workloads) ] in
  let bounds = [ ("decisions_per_s", Spec.Higher, 0.1); ("setup_s", Spec.Lower, 0.1) ] in
  let good = report ~correct:true ~wrong:0.0 [ 100.0; 101.0; 99.0 ] in
  let verdicts b =
    List.map
      (fun (r : Harness.compared) -> (r.c_workload, Harness.verdict_name r.verdict))
      (Harness.compare_rows ~bounds (file [ ("x", good); ("y", good) ]) (file b))
  in
  Alcotest.(check (list (pair string string))) "same runs" [ ("x", "ok"); ("y", "ok") ]
    (verdicts [ ("x", good); ("y", good) ]);
  Alcotest.(check (list (pair string string))) "slower" [ ("x", "REGRESSED"); ("y", "ok") ]
    (verdicts [ ("x", report ~correct:true ~wrong:0.0 [ 80.0; 81.0; 79.0 ]); ("y", good) ]);
  Alcotest.(check (list (pair string string))) "workload missing from B" [ ("x", "ok"); ("y", "MISSING") ]
    (verdicts [ ("x", good) ]);
  Alcotest.(check (list (pair string string))) "B failed its checks" [ ("x", "INCORRECT"); ("y", "INCORRECT") ]
    (verdicts [ ("x", report ~correct:false ~wrong:0.0 [ 100.0 ]); ("y", report ~correct:true ~wrong:2.0 [ 100.0 ]) ])

let () =
  Alcotest.run "dacsbench"
    [
      ("spec", [ Alcotest.test_case "workloads match BENCHMARK.json" `Quick workloads_declared ]);
      ("compare", [ Alcotest.test_case "missing and incorrect runs fail" `Quick compare_verdicts ]);
      ("smoke", List.map workload_test Spec.workloads);
    ]
