(* Experiment harness: runs entries of the experiment registry
   (Dacs_registry.Registry: the paper reproductions E1-E15, the gated
   experiments E16-E23 and the gated dacs scenarios at their default
   flags) and a set of Bechamel micro-benchmarks.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe e2 e4      # selected experiments
     dune exec bench/main.exe micro      # micro-benchmarks only

   Each experiment runs in its own forked child (Dacs_experiment); the
   gated ones (E16-E23 and the dacs scenarios) declare their gates in the
   registry, and the exit status is non-zero when any gate fails or never
   produces a verdict.

   The paper (DSN'08 requirements/architecture paper) has no numeric
   tables; each experiment operationalises one of its figures or section
   3 claims.  EXPERIMENTS.md records claim vs measurement. *)

open Dacs_registry.Common
open Dacs_core

(* ==================================================================== *)
(* Micro-benchmarks (Bechamel)                                          *)
(* ==================================================================== *)

let micro () =
  header "MICRO  CPU micro-benchmarks (Bechamel, monotonic clock)"
    "absolute costs of the primitives: hashing, signatures, XML, evaluation";
  let open Bechamel in
  let kilobyte = String.make 1024 'x' in
  (* One block hashes to two compressions (the second is padding); a
     chain digest tagged under a prepared mesh key is what [Offline]
     pays per log event. *)
  let block = String.make 64 'x' in
  let mesh_key = Dacs_crypto.Hmac.key (String.make 32 'k') in
  let chain_digest = Dacs_crypto.Sha256.digest "link" in
  let keys = Rsa.generate (Rng.create 5L) ~bits:512 in
  let signature = Rsa.sign keys.Rsa.private_ "msg" in
  let policy100 = sized_policy 100 in
  let policy_xml = Dacs_policy.Xacml_xml.child_to_string (Policy.Inline_policy policy100) in
  let ctx = request_for 99 in
  (* The serving policy of the workload engine (64 resources, 129 rules)
     and a nurse's read: dispatch selects three candidates and the
     second decides. *)
  let serving = Dacs_policy.Compiled.compile (Policy.Inline_policy (W.churned_policy ~resources:64 ~gen:0)) in
  let nurse_read =
    Context.make
      ~subject:[ ("subject-id", Value.String "user7"); ("role", Value.String "nurse") ]
      ~resource:[ ("resource-id", Value.String "res5") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  let query_envelope = Soap.envelope (Wire.authz_query ctx) in
  let query_xml = Xml.to_string query_envelope in
  let pa =
    Policy.make ~id:"pa" ~issuer:"a"
      (List.init 20 (fun i ->
           Rule.permit ~target:(Target.for_resource (string_of_int (i mod 5))) (Printf.sprintf "p%d" i)))
  in
  let pb =
    Policy.make ~id:"pb" ~issuer:"b"
      (List.init 20 (fun i ->
           Rule.deny ~target:(Target.for_resource (string_of_int (i mod 5))) (Printf.sprintf "d%d" i)))
  in
  let tests =
    [
      Test.make ~name:"sha256 (64 B)" (Staged.stage (fun () -> Dacs_crypto.Sha256.digest block));
      Test.make ~name:"sha256 (1 KiB)" (Staged.stage (fun () -> Dacs_crypto.Sha256.digest kilobyte));
      Test.make ~name:"hmac-sha256 prepared key (32 B)"
        (Staged.stage (fun () -> Dacs_crypto.Hmac.tag mesh_key chain_digest));
      Test.make ~name:"hmac-sha256 (1 KiB)"
        (Staged.stage (fun () -> Dacs_crypto.Hmac.sha256 ~key:"k" kilobyte));
      Test.make ~name:"rsa-512 sign" (Staged.stage (fun () -> Rsa.sign keys.Rsa.private_ "msg"));
      Test.make ~name:"rsa-512 verify"
        (Staged.stage (fun () -> Rsa.verify keys.Rsa.public "msg" ~signature));
      Test.make ~name:"xml parse (100-rule policy)" (Staged.stage (fun () -> Xml.of_string policy_xml));
      Test.make ~name:"xml parse (authz-query envelope)" (Staged.stage (fun () -> Xml.of_string query_xml));
      Test.make ~name:"xml print (authz-query envelope)" (Staged.stage (fun () -> Xml.to_string query_envelope));
      Test.make ~name:"policy eval (100 rules)" (Staged.stage (fun () -> Policy.evaluate ctx policy100));
      Test.make ~name:"compiled evaluate (129 rules)"
        (Staged.stage (fun () -> Dacs_policy.Compiled.evaluate nurse_read serving));
      Test.make ~name:"conflict scan (20x20 rules)" (Staged.stage (fun () -> Conflict.find_between pa pb));
    ]
  in
  let test = Test.make_grouped ~name:"dacs" tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances test in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let results = Analyze.merge ols instances results in
  Printf.printf "%-36s %16s\n" "benchmark" "ns/run";
  match Hashtbl.find_opt results (Measure.label Toolkit.Instance.monotonic_clock) with
  | None -> print_endline "no results"
  | Some by_name ->
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) by_name []
    |> List.sort compare
    |> List.iter (fun (name, ols) ->
           match Analyze.OLS.estimates ols with
           | Some (est :: _) -> Printf.printf "%-36s %16.1f\n" name est
           | _ -> Printf.printf "%-36s %16s\n" name "n/a")


let () = Experiment.main (Dacs_registry.Registry.all @ [ Experiment.v "micro" (fun _ -> micro ()) ])
