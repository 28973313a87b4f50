(* Repetitions, correctness checks, the traced pass and the reports. *)

type options = {
  seed : int;
  reps : int;  (** timed repetitions *)
  trace : bool;
  scale : float;
  out_dir : string;
}

type result = {
  workload : string;
  seed : int;
  reps : int;
  e2e : (Spec.metric * float list) list;  (** per-repetition values *)
  layers : (Spec.metric * float) list;  (** traced pass only *)
  table : Replay.row list;
  residual : float;
  attempted : int;
  failed : int;
  wrong : int;
  stale : int;  (** L1 answers the put-after-purge race left behind *)
  overtaken : int;  (** coalesced answers from a descent a publish overtook *)
  problems : string list;
  deterministic : string;
}

type summary = {
  rate : float;  (** decisions per wall second of the timed phase *)
  words : float;  (** minor words per decision *)
  wall_s : float;
  offered : int;
  failed : int;
}

let default_reps = 3
let setups_per_rep = 3

(* A metric's reported value: the median over repetitions. *)
let value values = Stats.median values

let ms x = x *. 1000.0

(* The deterministic end-to-end values of one repetition: virtual-clock
   latencies and message accounting depend on the seed alone. *)
let virtual_metrics (r : Live.rep) =
  let l = r.latencies in
  let offered = float_of_int (max 1 r.offered) in
  let mean = if l = [||] then 0.0 else Array.fold_left ( +. ) 0.0 l /. float_of_int (Array.length l) in
  [
    ("latency_mean_ms", ms mean);
    ("latency_p99_ms", ms (Stats.percentile l 0.99));
    ("latency_p999_ms", ms (Stats.percentile l 0.999));
    ("within_slo_share", float_of_int r.within_slo /. offered);
    ("answered_share", float_of_int (r.offered - r.failed) /. offered);
    ("msgs_per_decision", float_of_int r.msgs /. offered);
    ("bytes_per_decision", float_of_int r.bytes /. offered);
  ]

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Spans of the traced pass, one JSON object a line: the live repetition,
   every sampled request, publishes, the heal, and each replayed layer. *)
let write_trace path (c : Live.capture) (replayed : Replay.span list) =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      let line fields = output_string oc (Json.to_string (Json.Obj fields) ^ "\n") in
      let ns x = Json.Num (Int64.to_float x) in
      List.iter
        (fun (s : Live.span) ->
          line
            ([ ("id", Json.Num (float_of_int s.id)); ("name", Json.Str s.name);
               ("parent", Json.Num (float_of_int s.parent)); ("start_ns", ns s.start_ns);
               ("end_ns", ns s.end_ns) ]
            @ if s.req >= 0 then [ ("request", Json.Num (float_of_int s.req)) ] else []))
        (List.rev c.spans);
      List.iteri
        (fun k (s : Replay.span) ->
          line
            [ ("id", Json.Num (float_of_int (c.next_id + k))); ("name", Json.Str s.name);
              ("parent", Json.Num 0.0); ("start_ns", ns s.start_ns); ("end_ns", ns s.end_ns);
              ("calls", Json.Num (float_of_int s.calls)) ])
        (List.rev replayed))

let layer_metrics (r : Live.rep) rows residual ~overhead ~stale =
  let cnt = Live.counter r in
  let per x = Stats.ratio x r.offered in
  let values =
    List.concat_map
      (fun (row : Replay.row) ->
        [ (row.layer ^ ".ns_per_call", row.ns_per_call); (row.layer ^ ".words_per_call", row.words_per_call);
          (row.layer ^ ".share", row.share) ])
      rows
    @ [
        ("residual.share", residual);
        ("pep.l1_hit_ratio", Stats.ratio (cnt "l1_hits") (cnt "l1_hits" + cnt "l1_misses"));
        ("l2.hit_ratio", Stats.ratio (cnt "l2_hits_total") (cnt "l2_lookups_total"));
        ("pep.coalesced_share", per (cnt "coalesced_total"));
        ("pep.stale_share", Stats.ratio stale (Array.length r.order));
        ("pep.shed_share", per (cnt "pep_shed_total"));
        ("tier.exhausted_share", per (cnt "pdp_tier_exhausted_total"));
        ("pdp.overload_share", per (cnt "pdp_overload_total"));
        ("offline.serve_share", per (cnt "pep_offline_serves_total"));
        ("tier.batch_mean", Stats.ratio (cnt "pdp_tier_dispatch_total") (cnt "pdp_tier_batches_total"));
        ("pdp.queries_per_decision", per (cnt "pdp_queries_total"));
        ("live.latency_p99_ms", ms (Stats.percentile r.live_latencies 0.99));
        ("churn.purged_per_publish", Stats.ratio r.purged r.publishes);
        ("net.bytes_per_msg", Stats.ratio r.bytes r.msgs);
        ("tracing.overhead_s", overhead);
      ]
  in
  List.map (fun (m : Spec.metric) -> (m, List.assoc m.m_name values)) Spec.per_layer

let run_workload (opts : options) (w : Spec.workload) =
  let w = if opts.scale = 1.0 then w else Spec.scaled opts.scale w in
  let summary (r : Live.rep) =
    {
      rate = float_of_int r.offered /. r.wall_s;
      words = r.minor_words /. float_of_int (max 1 r.offered);
      wall_s = r.wall_s;
      offered = r.offered;
      failed = r.failed;
    }
  in
  (* The first repetition also carries the reference check, the heap
     high-water mark and the seed-determined output every later
     repetition must reproduce.  Each repetition is set up afresh from the
     seed; only its summary outlives it. *)
  (* Set-up takes tens of milliseconds, so one sample is noisy, and a
     short burst of host load skews samples taken back to back: it is
     timed [setups_per_rep] times on its own after every repetition, each
     from a collected heap so earlier garbage is not charged to it. *)
  let setups = ref [] in
  let time_set_ups () =
    for _ = 1 to setups_per_rep do
      Gc.full_major ();
      let t0 = Live.now_ns () in
      ignore (Sys.opaque_identity (Live.set_up w ~seed:opts.seed));
      setups := Live.seconds_since t0 :: !setups
    done
  in
  let first = Live.run w ~seed:opts.seed ~traced:false in
  let baseline = Live.deterministic first in
  let problems = ref [] in
  let check label (r : Live.rep) =
    List.iter (fun p -> problems := Printf.sprintf "%s: %s" label p :: !problems) r.problems;
    if Live.deterministic r <> baseline then
      problems := Printf.sprintf "determinism: %s differs from repetition 1" label :: !problems
  in
  check "repetition 1" first;
  let checked = Live.check_answers w first in
  let heap_words = first.heap_words and virtuals = virtual_metrics first in
  let first = summary first in
  time_set_ups ();
  let reps =
    first
    :: List.init (opts.reps - 1) (fun k ->
           let r = Live.run w ~seed:opts.seed ~traced:false in
           check (Printf.sprintf "repetition %d" (k + 2)) r;
           let r = summary r in
           time_set_ups ();
           r)
  in
  let col f = List.map f reps in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 reps in
  let e2e =
    List.map
      (fun (m : Spec.metric) ->
        let values =
          match m.m_name with
          | "setup_s" -> List.rev !setups
          | "decisions_per_s" -> col (fun s -> s.rate)
          | "minor_words_per_decision" -> col (fun s -> s.words)
          | "heap_peak_mb" -> [ mb heap_words ]
          (* Seed-determined, so equal in every repetition (checked). *)
          | name -> col (fun _ -> List.assoc name virtuals)
        in
        (m, values))
      Spec.end_to_end
  in
  let walls = col (fun s -> s.wall_s) in
  let layers, table, residual =
    if not opts.trace then ([], [], 0.0)
    else begin
      let r = Live.run w ~seed:opts.seed ~traced:true in
      check "traced repetition" r;
      let overhead = r.wall_s -. Stats.median walls in
      let c = Option.get r.capture in
      let spans = ref [] in
      (* The traced repetition's own cost per decision: its counters give
         the calls, and it ran just before the replay. *)
      let e2e_ns = r.wall_s *. 1e9 /. float_of_int (max 1 r.offered) in
      let rows = Replay.rows w r c ~e2e_ns spans in
      let residual = Replay.residual rows in
      write_trace
        (Filename.concat opts.out_dir (Printf.sprintf "%s-%d.trace.jsonl" w.name opts.seed))
        c !spans;
      (layer_metrics r rows residual ~overhead ~stale:checked.stale, rows, residual)
    end
  in
  {
    workload = w.name;
    seed = opts.seed;
    reps = List.length reps;
    e2e;
    layers;
    table;
    residual;
    attempted = sum (fun s -> s.offered);
    failed = sum (fun s -> s.failed);
    wrong = checked.wrong;
    stale = checked.stale;
    overtaken = checked.overtaken;
    problems = List.rev !problems;
    deterministic = baseline;
  }

let correct r = r.problems = [] && r.wrong = 0

(* --- reports -------------------------------------------------------------- *)

let print_report r =
  Printf.printf "== %s  seed %d  %d repetitions  %d requests\n" r.workload r.seed r.reps r.attempted;
  List.iter
    (fun ((m : Spec.metric), values) ->
      Printf.printf "  %-26s %14.6g %-6s (spread %.2f%% over %d)\n" m.m_name (value values) m.m_unit
        (100.0 *. Stats.spread values) (List.length values))
    r.e2e;
  Printf.printf "  %-26s %14d count\n" "wrong_decisions" r.wrong;
  Printf.printf "  %-26s %14d count  (not gated: the L1 put-after-purge race)\n" "stale_l1_answers" r.stale;
  Printf.printf "  %-26s %14d count  (not gated: coalesced across a publish)\n" "overtaken_answers" r.overtaken;
  if r.table <> [] then begin
    Printf.printf "  %-18s %12s %12s %14s %9s\n" "layer" "ns/call" "words/call" "calls/decision" "share";
    List.iter
      (fun (row : Replay.row) ->
        Printf.printf "  %-18s %12.1f %12.1f %14.4f %8.2f%%%s\n" row.layer row.ns_per_call row.words_per_call
          row.calls_per_decision (100.0 *. row.share)
          (if List.mem row.layer Spec.sub_layers then "  (inside its parent)" else ""))
      r.table;
    Printf.printf "  %-18s %12s %12s %14s %8.2f%%%s\n" "residual" "" "" "" (100.0 *. r.residual)
      (if r.residual < -0.05 then "  FLAGGED: layer costs exceed the end-to-end cost" else "");
    List.iter
      (fun ((m : Spec.metric), v) ->
        if not (String.ends_with ~suffix:".ns_per_call" m.m_name || String.ends_with ~suffix:".words_per_call" m.m_name
                || String.ends_with ~suffix:".share" m.m_name)
        then Printf.printf "  %-26s %14.6g %s\n" m.m_name v m.m_unit)
      r.layers
  end;
  List.iter (fun p -> Printf.printf "  CHECK FAILED: %s\n" p) r.problems;
  if r.wrong > 0 then Printf.printf "  CHECK FAILED: %d wrong decisions\n" r.wrong;
  Printf.printf "  checks: %s\n%!" (if correct r then "PASS" else "FAIL")

let metric_json unit_ v = Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ]

(* The result line, last on standard output: end-to-end metrics
   untraced, per-layer metrics when traced. *)
let result_line r =
  let metrics =
    if r.layers <> [] then List.map (fun ((m : Spec.metric), v) -> (m.m_name, metric_json m.m_unit v)) r.layers
    else List.map (fun ((m : Spec.metric), values) -> (m.m_name, metric_json m.m_unit (value values))) r.e2e
  in
  Json.Obj
    [ ("correct", Json.Bool (correct r)); ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed)); ("metrics", Json.Obj metrics) ]

(* The [--json] report: per-repetition values, so [compare] can judge
   run-to-run spread. *)
let report_json r =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int r.seed));
      ("reps", Json.Num (float_of_int r.reps));
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("wrong_decisions", Json.Num (float_of_int r.wrong));
      ("stale_l1_answers", Json.Num (float_of_int r.stale));
      ("overtaken_answers", Json.Num (float_of_int r.overtaken));
      ("problems", Json.Arr (List.map (fun p -> Json.Str p) r.problems));
      ( "metrics",
        Json.Obj
          (List.map
             (fun ((m : Spec.metric), values) ->
               ( m.m_name,
                 Json.Obj
                   [ ("value", Json.Num (value values)); ("unit", Json.Str m.m_unit);
                     ("reps", Json.Arr (List.map (fun v -> Json.Num v) values)) ] ))
             r.e2e) );
      ("layers", Json.Obj (List.map (fun ((m : Spec.metric), v) -> (m.m_name, metric_json m.m_unit v)) r.layers));
      ("deterministic", Json.Str r.deterministic);
    ]

(* --- compare ----------------------------------------------------------------- *)

type verdict = Ok_ | Better | Regressed | Unresolved | Missing | Incorrect

type compared = {
  c_workload : string;
  c_metric : string;
  median_a : float;
  median_b : float;
  change : float;  (** (B - A) / |A| *)
  c_spread : float;  (** the larger of the two sides' run-to-run spreads *)
  bound : float;
  verdict : verdict;
}

let verdict_name = function
  | Ok_ -> "ok"
  | Better -> "better"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"
  | Missing -> "MISSING"
  | Incorrect -> "INCORRECT"

(* A verdict [compare] fails on. *)
let failing = function Regressed | Missing | Incorrect -> true | Ok_ | Better | Unresolved -> false

(* One row per (workload, end-to-end metric) of A: B against A under the
   metric's bound.  When either side's run-to-run spread exceeds the
   bound the row is unresolved, unless every B run beats every A run.  A
   pair B lacks is missing, and every row of a workload whose B run
   failed a check is incorrect. *)
let compare_rows ~bounds a b =
  let workloads j = match Json.member "workloads" j with Some (Json.Obj l) -> l | _ -> [] in
  let reps name j =
    match Option.bind (Json.member "metrics" j) (Json.member name) with
    | Some m -> List.filter_map Json.to_float (Json.to_list (Option.value (Json.member "reps" m) ~default:Json.Null))
    | None -> []
  in
  let correct j =
    Json.member "correct" j = Some (Json.Bool true) && Json.member "wrong_decisions" j = Some (Json.Num 0.0)
  in
  List.concat_map
    (fun (wname, wa) ->
      let wb = List.assoc_opt wname (workloads b) in
      List.filter_map
        (fun (name, better, bound) ->
          let ra = reps name wa and rb = Option.fold ~none:[] ~some:(reps name) wb in
          if ra = [] then None
          else begin
            let ma = Stats.median ra and mb = if rb = [] then nan else Stats.median rb in
            let change = if ma = 0.0 then (if mb = 0.0 then 0.0 else infinity) else (mb -. ma) /. Float.abs ma in
            let worse = if better = Spec.Lower then change else -.change in
            let spread = Float.max (Stats.spread ra) (Stats.spread rb) in
            let beats x y = if better = Spec.Lower then x < y else x > y in
            let all_better = List.for_all (fun x -> List.for_all (fun y -> beats x y) ra) rb in
            let v =
              if rb = [] then Missing
              else if not (Option.fold ~none:false ~some:correct wb) then Incorrect
              else if spread > bound then if all_better then Better else Unresolved
              else if worse > bound then Regressed
              else if worse < -.bound then Better
              else Ok_
            in
            Some
              { c_workload = wname; c_metric = name; median_a = ma; median_b = mb; change;
                c_spread = spread; bound; verdict = v }
          end)
        bounds)
    (workloads a)

let bounds_of spec =
  List.filter_map
    (fun m ->
      match (Json.member "name" m, Json.member "better" m, Json.member "bound" m) with
      | Some (Json.Str name), Some (Json.Str better), Some (Json.Num bound) ->
        Some (name, (if better = "higher" then Spec.Higher else Spec.Lower), bound)
      | _ -> None)
    (Json.to_list (Option.value (Json.member "end_to_end" spec) ~default:Json.Null))
