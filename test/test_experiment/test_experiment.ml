(* Gate-harness suite: a failing or never-evaluated gate makes the exit
   status non-zero, ledger gates read (experiment, key) from the right
   snapshot of the baseline entry, a perturbed or unparseable baseline
   fails, a run that selects every experiment with a ledger gate appends
   one entry and a partial one none, experiments do not share process
   state, and every gated dacs subcommand's golden prints exactly the
   gates its registry entry declares. *)

module E = Dacs_experiment.Experiment
module Gate = E.Gate

let status = Alcotest.(check int)

let history lines =
  let dir = Filename.temp_dir "dacs-experiment" "" in
  (* Removed by the test process only: a child running [E.main] exits
     through the same handlers. *)
  let owner = Unix.getpid () in
  at_exit (fun () ->
      if Unix.getpid () = owner then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end);
  let oc = open_out (Filename.concat dir "ledger.jsonl") in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  dir

(* The ledger's lines, newest first. *)
let ledger_lines dir =
  let ic = open_in (Filename.concat dir "ledger.jsonl") in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc in
  let lines = go [] in
  close_in ic;
  lines

external set_argv : string array -> unit = "caml_sys_modify_argv"

(* [E.main] in a child process, with the ledger directory in the
   environment and [names] as its command line: the status it exits
   with. *)
let run dir experiments names =
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.putenv "DACS_HISTORY" dir;
    Unix.putenv "DACS_PR" "test";
    set_argv (Array.of_list (Sys.executable_name :: names));
    E.main experiments;
    Unix._exit 2
  | pid -> (
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _ -> Alcotest.fail "E.main did not exit")

(* An experiment with one lower-is-better ledger gate on [key]. *)
let gated_on ?(key = "k") name value =
  E.v name
    ~gates:[ Gate.no_worse "k-regression" ~key ~better:`Lower ]
    (fun x -> E.metric x key value)

let test_failing_gate () =
  let two b =
    E.v "t" ~gates:[ Gate.exact "a"; Gate.exact "b" ] (fun x ->
        E.check x "a" true "";
        E.check x "b" b "")
  in
  status "one of two checks failed" 1 (E.run_one (two false));
  status "every check passed" 0 (E.run_one (two true));
  status "in process, a declared gate without a verdict fails" 1
    (E.run_one (E.v "t" ~gates:[ Gate.exact "a"; Gate.exact "b" ] (fun x -> E.check x "a" true "")));
  let ratio_of num =
    E.v "r" ~gates:[ Gate.ratio "r" ~at_least:2.0 ] (fun x -> E.ratio x "r" num 2.0)
  in
  let dir = history [] in
  status "ratio below its floor" 1 (run dir [ ratio_of 3.0 ] []);
  status "ratio at its floor" 0 (run dir [ ratio_of 4.0 ] []);
  status "a failing experiment fails the run" 1
    (run dir
       [ E.v "ok" ~gates:[ Gate.exact "g" ] (fun x -> E.check x "g" true "");
         E.v "bad" ~gates:[ Gate.exact "g" ] (fun x -> E.check x "g" false "") ]
       [])

(* A passing ratio line names its floor, not what it measured, so two
   passing runs of a wall-clock ratio print the same bytes; a failing
   line also names the measured ratio. *)
let test_ratio_line () =
  let line num =
    let path = Filename.temp_file "dacs-ratio" ".log" in
    let oc = open_out path in
    ignore
      (E.run_one
         (E.v "r" ~log:oc ~gates:[ Gate.ratio "r" ~at_least:2.0 ] (fun x -> E.ratio x "r" num 1.0)));
    close_out oc;
    let l = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    l
  in
  Alcotest.(check string) "passing lines agree" (line 5.0) (line 7.5);
  Alcotest.(check string) "a passing line names its floor" "R CHECK r: PASS (>= 2x)\n" (line 5.0);
  Alcotest.(check string) "a failing line names the ratio" "R CHECK r: FAIL (1.50x < 2x)\n" (line 1.5)

let test_unevaluated_gate () =
  let dir = history [ {|{"pr":"base","snapshots":{"e":{"k":1.0}}}|} ] in
  let forgetful gate = E.v "e" ~gates:[ Gate.exact "a"; gate ] (fun x -> E.check x "a" true "") in
  status "declared exact gate never evaluated" 1 (run dir [ forgetful (Gate.exact "forgotten") ] []);
  status "declared ratio gate never evaluated" 1
    (run dir [ forgetful (Gate.ratio "forgotten" ~at_least:1.0) ] []);
  status "ledger gate whose metric was never recorded" 1
    (run dir [ forgetful (Gate.no_worse "k-regression" ~key:"k" ~better:`Lower) ] []);
  status "unknown experiment name" 1 (run dir [ E.v "e" ignore ] [ "nosuch" ]);
  status "an undeclared gate fails the run" 1
    (run dir [ E.v "e" (fun x -> E.check x "undeclared" true "") ] [])

let test_ledger_reads_experiment_key () =
  (* "other" carries the same key first, with a value "mine" would fail
     against; only (mine, k) may be compared. *)
  (* Each run appends an entry, so each starts from its own ledger. *)
  let baseline () = history [ {|{"pr":"base","snapshots":{"other":{"k":1.0},"mine":{"k":100.0}}}|} ] in
  status "compared against (mine, k) = 100" 0 (run (baseline ()) [ gated_on "mine" 50.0 ] []);
  status "and fails beyond its tolerance" 1 (run (baseline ()) [ gated_on "mine" 200.0 ] []);
  let dir = history [ {|{"pr":"base","snapshots":{"e99":{"p99_s":0.02}}}|} ] in
  status "within tolerance of its snapshot" 0 (run dir [ gated_on ~key:"p99_s" "e99" 0.021 ] []);
  (* An object beside "snapshots" is no baseline, whatever its name. *)
  let dir = history [ {|{"pr":"base","e99":{"p99_s":0.000001},"snapshots":{}}|} ] in
  status "a top-level object is not read" 0 (run dir [ gated_on ~key:"p99_s" "e99" 0.02 ] []);
  status "no baseline value: SKIP, not FAIL" 0 (run dir [ gated_on "fresh" 1e9 ] [])

let test_perturbed_baseline () =
  let dir = history [ {|{"pr":"perturbed","snapshots":{"e99":{"p99_s":0.000001}}}|} ] in
  status "absurdly fast previous entry" 1 (run dir [ gated_on ~key:"p99_s" "e99" 0.02 ] []);
  let dir =
    history
      [ {|{"pr":"good","snapshots":{"e99":{"p99_s":0.02}}}|}; {|{"pr":"torn","snapshots":{"e99":{"p99_s":|} ]
  in
  status "unparseable last entry" 1 (run dir [ gated_on ~key:"p99_s" "e99" 0.02 ] []);
  let dir = history [ {|{"pr":"odd","snapshots":{"e":{"k":"fast"}}}|} ] in
  status "non-numeric baseline value" 1 (run dir [ gated_on "e" 1.0 ] [])

(* A baseline number that is not a JSON decimal makes the entry
   unparseable, so its ledger gates FAIL instead of comparing against an
   [inf] that every value passes. *)
let test_non_json_numbers () =
  List.iter
    (fun lit ->
      let dir = history [ Printf.sprintf {|{"pr":"x","snapshots":{"e99":{"p99_s":%s}}}|} lit ] in
      status (lit ^ " in the baseline") 1 (run dir [ gated_on ~key:"p99_s" "e99" 1e9 ] []))
    [ "inf"; "nan"; "-infinity"; "0x10"; "1_0"; "01"; "1."; ".5"; "+1"; "1e" ];
  List.iter
    (fun lit ->
      let dir = history [ Printf.sprintf {|{"pr":"x","snapshots":{"e99":{"p99_s":%s}}}|} lit ] in
      status (lit ^ " is a JSON number") 0 (run dir [ gated_on ~key:"p99_s" "e99" 0.0 ] []))
    [ "1"; "0.5e1"; "2.50"; "1E+2"; "0"; "-0" ]

let test_metric_refuses_non_finite () =
  List.iter
    (fun v ->
      status (Printf.sprintf "metric %g" v) 1
        (run (history []) [ E.v "e" (fun x -> E.metric x "k" v) ] []))
    [ Float.infinity; Float.neg_infinity; Float.nan ]

(* The harness appends one entry after a run that selected every
   experiment with a ledger gate ("b" and "c"): it embeds the snapshot of
   each gated experiment of the run and none of an ungated one.  A
   partial selection appends nothing, and the next run's ledger gates
   read the appended entry. *)
let test_run_appends_entry () =
  let dir = history [ {|{"pr":"base","snapshots":{"b":{"k":1.0}}}|} ] in
  let experiments b =
    [
      E.v "a" ~gates:[ Gate.exact "ran" ] (fun x ->
          E.check x "ran" true "";
          E.metric x "m" 1.0);
      gated_on "b" b;
      gated_on "c" 7.0;
      E.v "plain" ignore;
    ]
  in
  status "a partial selection passes" 0 (run dir (experiments 1.0) [ "a"; "b"; "plain" ]);
  Alcotest.(check int) "and appends nothing" 1 (List.length (ledger_lines dir));
  status "b judged against the entry that preceded the run" 1 (run dir (experiments 5.0) []);
  Alcotest.(check (list string))
    "the full selection appended one entry"
    [
      {|{"pr":"test","snapshots":{"a":{   "m": 1.0000,   "gate_failures": 0 },"b":{   "k": 5.0000,   "gate_failures": 1 },"c":{   "k": 7.0000,   "gate_failures": 0 }}}|};
      {|{"pr":"base","snapshots":{"b":{"k":1.0}}}|};
    ]
    (ledger_lines dir);
  status "b within tolerance of the appended 5.0" 0 (run dir (experiments 5.4) [ "b" ]);
  status "c beyond tolerance of the appended 7.0" 1
    (run dir [ gated_on "b" 5.0; gated_on "c" 8.0 ] [ "c" ]);
  Alcotest.(check int) "neither partial run appended" 2 (List.length (ledger_lines dir))

let test_isolation () =
  let runs = ref 0 in
  let counting =
    E.v "p" ~gates:[ Gate.exact "first-in-its-process" ] (fun x ->
        incr runs;
        E.check x "first-in-its-process" (!runs = 1) (string_of_int !runs))
  in
  status "each experiment starts from the parent's state" 0
    (run (history []) [ counting ] [ "p"; "p"; "p" ]);
  Alcotest.(check int) "the parent never ran a body" 0 !runs

(* Every gated dacs subcommand's text golden carries exactly one CHECK
   line per gate its registry entry declares, in declaration order, so a
   gate cannot leave a scenario through a promoted golden. *)
let test_registry_goldens () =
  let module Registry = Dacs_registry.Registry in
  List.iter
    (fun cmd ->
      let name = Cmdliner.Cmd.name cmd in
      let e = List.find (fun e -> E.name e = name) Registry.all in
      let prefix = String.uppercase_ascii name ^ " CHECK " in
      let checked =
        In_channel.with_open_bin (Printf.sprintf "../test_cli/%s.expected" name) In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter_map (fun line ->
               if String.starts_with ~prefix line then
                 let rest = String.sub line (String.length prefix) (String.length line - String.length prefix) in
                 Some (String.sub rest 0 (String.index rest ':'))
               else None)
      in
      Alcotest.(check (list string)) (name ^ " golden vs declared gates") (E.gate_names e) checked)
    Registry.commands

let () =
  Alcotest.run "experiment"
    [
      ( "gates",
        [
          Alcotest.test_case "failing gate fails the status" `Quick test_failing_gate;
          Alcotest.test_case "a passing ratio line names its floor" `Quick test_ratio_line;
          Alcotest.test_case "never-evaluated gate fails the status" `Quick test_unevaluated_gate;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "reads (experiment, key)" `Quick test_ledger_reads_experiment_key;
          Alcotest.test_case "perturbed baseline fails" `Quick test_perturbed_baseline;
          Alcotest.test_case "numbers must be JSON decimals" `Quick test_non_json_numbers;
          Alcotest.test_case "metric refuses non-finite values" `Quick test_metric_refuses_non_finite;
          Alcotest.test_case "a full selection appends one entry" `Quick test_run_appends_entry;
        ] );
      ("isolation", [ Alcotest.test_case "forked experiments" `Quick test_isolation ]);
      ( "registry",
        [ Alcotest.test_case "gated subcommand goldens print their gates" `Quick test_registry_goldens ] );
    ]
