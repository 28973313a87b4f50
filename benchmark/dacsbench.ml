(* dacsbench — end-to-end and per-layer benchmark of the DACS decision path.

     dacsbench run [--workload W] [--seed S] [--reps N] [--trace [0|1]]
                   [--json FILE] [--out DIR] [--seconds T]
     dacsbench compare A.json B.json [--spec BENCHMARK.json]

   [run] without --workload runs every workload, each in its own child
   process.  The last line of standard output is one JSON object with the
   run's correctness, request counts and metrics.  Exit status: 0 when
   every check passed, 1 when one failed, 2 on a usage error.

   [--trace 0|1] and [--seconds T] are the form in which BENCHMARK.json
   runners pass their options.  The timed phase is always N repetitions of
   a fixed size, so T is accepted and changes nothing. *)

open Dacsbench_lib

let usage () =
  prerr_endline
    "usage: dacsbench run [--workload W] [--seed S] [--reps N] [--trace [0|1]] [--json FILE] [--out DIR] [--seconds T]\n\
    \       dacsbench compare A.json B.json [--spec BENCHMARK.json]";
  exit 2

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("dacsbench: " ^ m); exit 2) fmt

let int_arg name v = match int_of_string_opt v with Some n -> n | None -> fail "%s expects an integer" name

type run_args = {
  workload : string option;
  opts : Harness.options;
  json : string option;
}

let parse_run args =
  let rec go acc = function
    | [] -> acc
    | "--workload" :: w :: rest -> go { acc with workload = Some w } rest
    | "--seed" :: s :: rest -> go { acc with opts = { acc.opts with seed = int_arg "--seed" s } } rest
    | "--seconds" :: s :: rest ->
      if float_of_string_opt s = None then fail "--seconds expects a number";
      go acc rest
    | "--reps" :: s :: rest ->
      let n = int_arg "--reps" s in
      if n < 1 then fail "--reps must be at least 1";
      go { acc with opts = { acc.opts with reps = n } } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { acc with opts = { acc.opts with trace = v = "1" } } rest
    | "--trace" :: rest -> go { acc with opts = { acc.opts with trace = true } } rest
    | "--json" :: f :: rest -> go { acc with json = Some f } rest
    | "--out" :: d :: rest -> go { acc with opts = { acc.opts with out_dir = d } } rest
    | arg :: _ -> fail "unexpected argument %s" arg
  in
  go
    {
      workload = None;
      opts =
        { Harness.seed = 1; reps = Harness.default_reps; trace = false; scale = 1.0; out_dir = "benchmark/out" };
      json = None;
    }
    args

let write_file path text =
  Harness.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let report_file ~seed results =
  Json.to_string
    (Json.Obj
       [ ("seed", Json.Num (float_of_int seed));
         ("workloads", Json.Obj results) ])
  ^ "\n"

let run_one a (w : Spec.workload) =
  let r = Harness.run_workload a.opts w in
  Harness.print_report r;
  Option.iter (fun f -> write_file f (report_file ~seed:a.opts.seed [ (w.name, Harness.report_json r) ])) a.json;
  print_endline (Json.to_string (Harness.result_line r));
  exit (if Harness.correct r then 0 else 1)

(* Every workload in a child process of its own, so the heap high-water
   mark and the process-wide intern table start fresh for each. *)
let run_all a =
  let child (w : Spec.workload) =
    let part = Filename.concat a.opts.out_dir (Printf.sprintf "%s-%d.json" w.name a.opts.seed) in
    (* A report left by an earlier run must not stand in for this one. *)
    if Sys.file_exists part then Sys.remove part;
    let args =
      [ "run"; "--workload"; w.name; "--seed"; string_of_int a.opts.seed; "--reps"; string_of_int a.opts.reps;
        "--json"; part; "--out"; a.opts.out_dir ]
      @ if a.opts.trace then [ "--trace" ] else []
    in
    let pid =
      Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args)) Unix.stdin
        Unix.stdout Unix.stderr
    in
    let _, status = Unix.waitpid [] pid in
    let ok = status = Unix.WEXITED 0 in
    let report =
      if Sys.file_exists part then
        Option.bind (Json.member "workloads" (Json.parse (Json.read_file part))) (Json.member w.name)
      else None
    in
    (w.name, ok, report)
  in
  let outcomes = List.map child Spec.workloads in
  let reports = List.filter_map (fun (name, _, r) -> Option.map (fun r -> (name, r)) r) outcomes in
  Option.iter (fun f -> write_file f (report_file ~seed:a.opts.seed reports)) a.json;
  let all_ok = List.for_all (fun (_, ok, _) -> ok) outcomes in
  let count key =
    List.fold_left
      (fun acc (_, r) -> acc +. Option.value (Option.bind (Json.member key r) Json.to_float) ~default:0.0)
      0.0 reports
  in
  let metrics =
    List.concat_map
      (fun (name, r) ->
        let section = if a.opts.trace then "layers" else "metrics" in
        match Json.member section r with
        | Some (Json.Obj ms) ->
          List.map
            (fun (m, v) ->
              ( name ^ "/" ^ m,
                Json.Obj
                  [ ("value", Option.value (Json.member "value" v) ~default:Json.Null);
                    ("unit", Option.value (Json.member "unit" v) ~default:Json.Null) ] ))
            ms
        | _ -> [])
      reports
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool all_ok); ("attempted", Json.Num (count "attempted"));
            ("failed", Json.Num (count "failed")); ("metrics", Json.Obj metrics) ]));
  exit (if all_ok then 0 else 1)

let compare_cmd args =
  let rec go files spec = function
    | [] -> (List.rev files, spec)
    | "--spec" :: f :: rest -> go files f rest
    | f :: rest -> go (f :: files) spec rest
  in
  match go [] "BENCHMARK.json" args with
  | [ fa; fb ], spec ->
    let load f = try Json.parse (Json.read_file f) with Sys_error e | Json.Error e -> fail "%s: %s" f e in
    let bounds = Harness.bounds_of (load spec) in
    let rows = Harness.compare_rows ~bounds (load fa) (load fb) in
    Printf.printf "%-18s %-26s %14s %14s %9s %9s %7s  %s\n" "workload" "metric" "A median" "B median" "change"
      "spread" "bound" "verdict";
    List.iter
      (fun (r : Harness.compared) ->
        Printf.printf "%-18s %-26s %14.6g %14.6g %+8.2f%% %8.2f%% %6.1f%%  %s\n" r.c_workload r.c_metric r.median_a
          r.median_b (100.0 *. r.change) (100.0 *. r.c_spread) (100.0 *. r.bound) (Harness.verdict_name r.verdict))
      rows;
    if rows = [] then fail "%s holds no end-to-end metric" fa;
    exit (if List.exists (fun (r : Harness.compared) -> Harness.failing r.verdict) rows then 1 else 0)
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> (
    let a = parse_run rest in
    match a.workload with
    | None -> run_all a
    | Some name -> (
      match Spec.find name with
      | Some w -> run_one a w
      | None ->
        fail "unknown workload %s (known: %s)" name
          (String.concat ", " (List.map (fun (w : Spec.workload) -> w.name) Spec.workloads))))
  | "compare" :: rest -> compare_cmd rest
  | _ -> usage ()
