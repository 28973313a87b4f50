type kind = Exact | Ratio of float | Ledger of string * [ `Lower | `Higher ]
type gate = { name : string; kind : kind }

module Gate = struct
  let exact name = { name; kind = Exact }
  let ratio name ~at_least = { name; kind = Ratio at_least }
  let no_worse name ~key ~better = { name; kind = Ledger (key, better) }
end

let tolerance = 1.10

(* --- the ledger's last entry ------------------------------------------- *)

(* The JSON subset ledger lines are written in: objects, strings, numbers. *)
type json = Num of float | Str of string | Obj of (string * json) list

exception Malformed

let parse_json s =
  let n = String.length s and pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise Malformed in
  let rec skip () = if !pos < n && String.contains " \t\r\n" s.[!pos] then (incr pos; skip ()) in
  let eat c = skip (); if peek () <> c then raise Malformed; incr pos in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' -> incr pos; skip (); if peek () = '}' then (incr pos; Obj []) else members []
    | '"' -> Str (str ())
    | _ ->
      (* A strict JSON number: an optional minus, 0 or digits without a
         leading 0, an optional fraction and an optional exponent; inf,
         nan, hex and underscores are refused. *)
      let start = !pos in
      let accept chars = if !pos < n && String.contains chars s.[!pos] then (incr pos; true) else false in
      let digits () =
        let from = !pos in
        while accept "0123456789" do () done;
        if !pos = from then raise Malformed
      in
      ignore (accept "-");
      if not (accept "0") then digits ();
      if accept "." then digits ();
      if accept "eE" then (ignore (accept "+-"); digits ());
      Num (float_of_string (String.sub s start (!pos - start)))
  and members acc =
    let k = str () in
    eat ':';
    let acc = (k, value ()) :: acc in
    skip ();
    match peek () with
    | ',' -> incr pos; members acc
    | '}' -> incr pos; Obj (List.rev acc)
    | _ -> raise Malformed
  in
  match value () with
  | v -> skip (); if !pos = n then Some v else None
  | exception Malformed -> None

type baseline = No_entry | Unparseable | Entry of string * (string * json) list

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let read_baseline ledger =
  let lines =
    if Sys.file_exists ledger then
      List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read_file ledger))
    else []
  in
  match List.rev lines with
  | [] -> No_entry
  | last :: _ -> (
    match parse_json last with
    | Some (Obj fields) ->
      Entry ((match List.assoc_opt "pr" fields with Some (Str p) -> p | _ -> "?"), fields)
    | _ -> Unparseable)

(* (experiment, key) in an entry: the experiment's own snapshot, never
   whichever snapshot happens to mention [key] first. *)
let lookup fields ~experiment ~key =
  let section =
    match List.assoc_opt "snapshots" fields with
    | Some (Obj snaps) -> (
      match List.assoc_opt experiment snaps with Some (Obj o) -> Some o | _ -> None)
    | _ -> None
  in
  match Option.bind section (List.assoc_opt key) with
  | None -> `Missing
  | Some (Num f) -> `Value f
  | Some _ -> `Malformed

(* --- collector ----------------------------------------------------------- *)

type history = { dir : string; pr : string; baseline : baseline }

type t = {
  name : string;
  log : out_channel;
  gates : gate list;
  history : history option;
  mutable verdicts : (string * (string * bool * string)) list;  (** gate, (label, ok, detail) *)
  mutable metrics : (string * float * string) list;  (** key, value, JSON literal; newest first *)
}

let record t name label ok detail =
  if List.mem_assoc name t.verdicts then invalid_arg ("Experiment: gate evaluated twice: " ^ name);
  t.verdicts <- (name, (label, ok, detail)) :: t.verdicts

let verdict t name ok detail = record t name (if ok then "PASS" else "FAIL") ok detail

let declared t name =
  match List.find_opt (fun (g : gate) -> g.name = name) t.gates with
  | Some g -> g.kind
  | None -> invalid_arg ("Experiment: undeclared gate: " ^ name)

let check t name ok detail =
  match declared t name with
  | Exact -> verdict t name ok detail
  | _ -> invalid_arg ("Experiment: not an exact gate: " ^ name)

let ratio t name ?detail num den =
  match declared t name with
  | Ratio at_least ->
    let r = num /. den in
    let ok = r >= at_least in
    (* A passing line names only its floor, so it reads the same on
       every run of a wall-clock ratio; the snapshot keeps the value. *)
    verdict t name ok
      (Printf.sprintf "%s%gx%s"
         (if ok then ">= " else Printf.sprintf "%.2fx < " r)
         at_least
         (match detail with Some d -> ", " ^ d | None -> ""))
  | _ -> invalid_arg ("Experiment: not a ratio gate: " ^ name)

let metric t ?(digits = 4) key v =
  if not (Float.is_finite v) then invalid_arg (Printf.sprintf "Experiment.metric: %s is %g" key v);
  t.metrics <- (key, v, Printf.sprintf "%.*f" digits v) :: t.metrics
let count t key n = t.metrics <- (key, float_of_int n, string_of_int n) :: t.metrics

let judge_ledger t name key better =
  match List.find_opt (fun (k, _, _) -> k = key) t.metrics with
  | None -> verdict t name false (Printf.sprintf "metric %S never recorded" key)
  | Some (_, v, _) -> (
    let skip why = record t name "SKIP" true why in
    match t.history with
    | None -> skip "no ledger"
    | Some h -> (
      let fail_parse () =
        verdict t name false
          (Printf.sprintf "could not parse the last entry of %s"
             (Filename.concat h.dir "ledger.jsonl"))
      in
      match h.baseline with
      | No_entry -> skip "no ledger entry, nothing to compare"
      | Unparseable -> fail_parse ()
      | Entry (pr, fields) -> (
        match lookup fields ~experiment:t.name ~key with
        | `Missing -> skip (Printf.sprintf "entry %S has no %s %s, nothing to compare" pr t.name key)
        | `Malformed -> fail_parse ()
        | `Value prev ->
          let ok =
            match better with
            | `Lower -> v <= (prev *. tolerance) +. 1e-9
            | `Higher -> v >= (prev /. tolerance) -. 1e-9
          in
          verdict t name ok
            (Printf.sprintf "%s %g vs %g in entry %S, tolerance %.0f%%" key v prev pr
               ((tolerance -. 1.0) *. 100.0)))))

(* Closes the run: ledger gates are judged, open gates fail, and one line
   per gate is printed in declaration order.  Returns the number of
   failed gates. *)
let close t =
  List.iter
    (fun (g : gate) ->
      match g.kind with
      | Ledger (key, better) -> judge_ledger t g.name key better
      | Exact | Ratio _ ->
        if not (List.mem_assoc g.name t.verdicts) then
          verdict t g.name false "declared but never evaluated")
    t.gates;
  List.iter
    (fun (g : gate) ->
      let label, _, detail = List.assoc g.name t.verdicts in
      Printf.fprintf t.log "%s CHECK %s: %s (%s)\n" (String.uppercase_ascii t.name) g.name label
        detail)
    t.gates;
  List.length (List.filter (fun (_, (_, ok, _)) -> not ok) t.verdicts)

(* --- snapshots and the ledger ------------------------------------------- *)

let rec ensure_dir d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let snapshot_path h name = Filename.concat h.dir (Printf.sprintf "BENCH_%s.json" name)

let json_string = Dacs_telemetry.Metrics.json_string

let write_snapshot h t failed =
  ensure_dir h.dir;
  let fields =
    List.rev_map (fun (k, _, lit) -> (k, lit)) t.metrics @ [ ("gate_failures", string_of_int failed) ]
  in
  let oc = open_out (snapshot_path h t.name) in
  Printf.fprintf oc "{\n%s\n}\n"
    (String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  %s: %s" (json_string k) v) fields));
  close_out oc

(* One ledger line embedding the snapshots of [names], which this run
   wrote. *)
let append_entry h names =
  let minify s = String.map (fun c -> if c = '\n' then ' ' else c) (String.trim s) in
  let snapshots =
    List.map
      (fun name -> Printf.sprintf "%s:%s" (json_string name) (minify (read_file (snapshot_path h name))))
      names
  in
  let ledger = Filename.concat h.dir "ledger.jsonl" in
  ensure_dir h.dir;
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 ledger in
  Printf.fprintf oc "{\"pr\":%s,\"snapshots\":{%s}}\n" (json_string h.pr)
    (String.concat "," snapshots);
  close_out oc;
  Printf.printf "\nledger: appended entry for %S to %s (%d embedded snapshots)\n" h.pr ledger
    (List.length snapshots)

(* --- registry and isolated runs ----------------------------------------- *)

type experiment = { e_name : string; e_gates : gate list; e_log : out_channel; body : t -> unit }

let v ?(gates = []) ?(log = stdout) name body = { e_name = name; e_gates = gates; e_log = log; body }
let name e = e.e_name
let gate_names e = List.map (fun (g : gate) -> g.name) e.e_gates

let collector ?history e =
  { name = e.e_name; log = e.e_log; gates = e.e_gates; history; verdicts = []; metrics = [] }

let run_one e =
  let t = collector e in
  e.body t;
  if close t = 0 then 0 else 1

(* The child never returns: [_exit] skips the parent's at_exit handlers. *)
let in_child h e =
  let t = collector ~history:h e in
  let status =
    match e.body t with
    | () ->
      let failed = close t in
      if e.e_gates <> [] then write_snapshot h t failed;
      if failed = 0 then 0 else 1
    | exception exn ->
      Printf.eprintf "%s raised %s\n" e.e_name (Printexc.to_string exn);
      2
  in
  flush_all ();
  Unix._exit status

let isolated h e =
  flush_all ();
  match Unix.fork () with
  | 0 -> in_child h e
  | pid -> ( match snd (Unix.waitpid [] pid) with Unix.WEXITED n -> n | _ -> 2)

let reads_ledger e = List.exists (fun g -> match g.kind with Ledger _ -> true | _ -> false) e.e_gates

(* A run that selected every experiment with a ledger gate, and in which
   none failed, appends one line, so the next run finds a baseline for
   each of them; the line embeds the snapshot of every gated experiment
   it ran.  A failed run appends nothing: a regression must not become
   the baseline the next run is judged against. *)
let run ~history ~pr experiments names =
  let h = { dir = history; pr; baseline = read_baseline (Filename.concat history "ledger.jsonl") } in
  let known n = List.find_opt (fun e -> e.e_name = n) experiments in
  let unknown = List.filter (fun n -> known n = None) names in
  List.iter
    (fun n ->
      Printf.eprintf "unknown experiment %S (available: %s)\n" n
        (String.concat ", " (List.map (fun e -> e.e_name) experiments)))
    unknown;
  let selected = if names = [] then experiments else List.filter_map known names in
  let statuses = List.map (fun e -> (e, isolated h e)) selected in
  let failed = List.filter_map (fun (e, s) -> if s <> 0 then Some e.e_name else None) statuses in
  if failed <> [] then
    Printf.printf "\n%d experiment(s) failed: %s\n" (List.length failed) (String.concat ", " failed);
  let ledgered = List.filter reads_ledger experiments in
  if failed = [] && ledgered <> [] && List.for_all (fun e -> List.memq e selected) ledgered then
    append_entry h
      (List.filter_map
         (fun e -> if e.e_gates <> [] && List.memq e selected then Some e.e_name else None)
         experiments);
  if failed = [] && unknown = [] then 0 else 1

let main experiments =
  let env var default = match Sys.getenv_opt var with Some s when s <> "" -> s | _ -> default in
  exit
    (run ~history:(env "DACS_HISTORY" "bench/history") ~pr:(env "DACS_PR" "local") experiments
       (List.tl (Array.to_list Sys.argv)))
