(* dacsbench's deterministic face — messages, bytes, virtual-clock
   latency quantiles, the answers digest and the counters of every
   workload — depends on the seed alone, so it is pinned across changes:
   a change that only makes the stack cheaper leaves every line of
   deterministic.golden as it is. *)

open Dacsbench_lib

let opts = { Harness.seed = 11; reps = 1; trace = false; scale = 0.01; out_dir = "out" }
let golden_file = "deterministic.golden"
let header (w : Spec.workload) = "== " ^ w.name

(* The golden's sections: each workload's header line, then its face's
   lines up to the next header. *)
let sections golden =
  let close name lines acc =
    match name with None -> acc | Some n -> (n, String.concat "\n" (List.rev lines)) :: acc
  in
  let rec go name lines acc = function
    | [] -> List.rev (close name lines acc)
    | l :: rest when String.starts_with ~prefix:"== " l -> go (Some l) [] (close name lines acc) rest
    | l :: rest -> go name (l :: lines) acc rest
  in
  go None [] [] (String.split_on_char '\n' (String.trim golden))

let golden = sections (In_channel.with_open_bin golden_file In_channel.input_all)

let measured = Hashtbl.create 4

let face (w : Spec.workload) =
  match Hashtbl.find_opt measured w.name with
  | Some f -> f
  | None ->
    let f = (Harness.run_workload opts w).deterministic in
    Hashtbl.replace measured w.name f;
    f

let write_actual () =
  Out_channel.with_open_bin "deterministic.actual" (fun oc ->
      List.iter (fun w -> output_string oc (header w ^ "\n" ^ face w ^ "\n")) Spec.workloads)

let workload_test (w : Spec.workload) =
  Alcotest.test_case w.name `Quick (fun () ->
      let f = face w in
      let pinned = List.assoc_opt (header w) golden in
      if pinned <> Some f then write_actual ();
      Alcotest.(check (option string)) "deterministic face" pinned (Some f))

let () = Alcotest.run "dacsbench" [ ("golden", List.map workload_test Spec.workloads) ]
