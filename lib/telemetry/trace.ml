type context = { trace_id : int64; span_id : int64 }

type status = Span_ok | Span_error of string

type span = {
  noop : bool;
  s_trace : int64;
  s_id : int64;
  s_parent : int64 option;
  s_name : string;
  s_start : float;
  s_seq : int;
  mutable s_one_way : bool;  (* a one-way send's span: it bounds nobody's answer *)
  mutable s_end : float option;
  mutable s_status : status;
  mutable s_attrs : (string * string) list;  (* reversed *)
  mutable s_events : (float * string) list;  (* reversed *)
}

type t = {
  now : unit -> float;
  next_id : unit -> int64;
  mutable enabled : bool;
  mutable cur : context option;
  mutable recorded : span list;  (* reversed *)
  mutable seq : int;
  by_id : (int64, span) Hashtbl.t;
  mutable globals : (float * string) list;  (* reversed *)
}

let create ~now ~next_id () =
  {
    now;
    next_id;
    enabled = false;
    cur = None;
    recorded = [];
    seq = 0;
    by_id = Hashtbl.create 64;
    globals = [];
  }

let set_enabled t on = t.enabled <- on
let enabled t = t.enabled

let current t = t.cur
let set_current t ctx = t.cur <- ctx

let exemplar_tag t =
  match t.cur with
  | Some ctx -> Printf.sprintf "%Lx" ctx.trace_id
  | None -> ""

let inert =
  {
    noop = true;
    s_trace = 0L;
    s_id = 0L;
    s_parent = None;
    s_name = "";
    s_start = 0.0;
    s_seq = 0;
    s_one_way = false;
    s_end = None;
    s_status = Span_ok;
    s_attrs = [];
    s_events = [];
  }

let start_span t ?parent name =
  if not t.enabled then inert
  else begin
    let parent = match parent with Some _ as p -> p | None -> t.cur in
    let trace_id, parent_id =
      match parent with
      | Some ctx -> (ctx.trace_id, Some ctx.span_id)
      | None -> (t.next_id (), None)
    in
    let s =
      {
        noop = false;
        s_trace = trace_id;
        s_id = t.next_id ();
        s_parent = parent_id;
        s_name = name;
        s_start = t.now ();
        s_seq = t.seq;
        s_one_way = false;
        s_end = None;
        s_status = Span_ok;
        s_attrs = [];
        s_events = [];
      }
    in
    t.seq <- t.seq + 1;
    t.recorded <- s :: t.recorded;
    Hashtbl.replace t.by_id s.s_id s;
    s
  end

let context s = { trace_id = s.s_trace; span_id = s.s_id }

let annotate s key value = if not s.noop then s.s_attrs <- (key, value) :: s.s_attrs

let set_status s status = if not s.noop then s.s_status <- status

let add_event t s name = if not s.noop then s.s_events <- (t.now (), name) :: s.s_events

let mark_one_way s = if not s.noop then s.s_one_way <- true

let finish t s = if not s.noop && s.s_end = None then s.s_end <- Some (t.now ())

let record t name =
  if t.enabled then begin
    match t.cur with
    | Some ctx -> (
      match Hashtbl.find_opt t.by_id ctx.span_id with
      | Some s -> add_event t s name
      | None -> t.globals <- (t.now (), name) :: t.globals)
    | None -> t.globals <- (t.now (), name) :: t.globals
  end

(* --- inspection --------------------------------------------------------- *)

type span_view = {
  v_trace_id : int64;
  v_span_id : int64;
  v_parent : int64 option;
  v_name : string;
  v_start : float;
  v_end : float option;
  v_status : status;
  v_attrs : (string * string) list;
  v_events : (float * string) list;
}

let in_order t =
  List.sort
    (fun a b -> compare (a.s_start, a.s_seq) (b.s_start, b.s_seq))
    (List.rev t.recorded)

let view s =
  {
    v_trace_id = s.s_trace;
    v_span_id = s.s_id;
    v_parent = s.s_parent;
    v_name = s.s_name;
    v_start = s.s_start;
    v_end = s.s_end;
    v_status = s.s_status;
    v_attrs = List.rev s.s_attrs;
    v_events = List.rev s.s_events;
  }

let span_count t = List.length t.recorded

let trace_ids t =
  List.fold_left
    (fun acc s -> if List.mem s.s_trace acc then acc else acc @ [ s.s_trace ])
    [] (in_order t)

let global_events t = List.rev t.globals

(* The critical path of the first trace: from the root span, repeatedly
   descend into the child that finished last — the chain of spans that
   actually bounded the end-to-end latency, so never a one-way send's.
   Unfinished spans count as ending at their start. *)
let critical_path t =
  let all = in_order t in
  match all with
  | [] -> []
  | { s_trace = tid; _ } :: _ ->
    let spans = List.filter (fun s -> s.s_trace = tid) all in
    let ids = List.map (fun s -> s.s_id) spans in
    let ends s = Option.value s.s_end ~default:s.s_start in
    let root =
      List.find_opt
        (fun s -> match s.s_parent with None -> true | Some p -> not (List.mem p ids))
        spans
    in
    let rec walk acc s =
      let kids = List.filter (fun c -> c.s_parent = Some s.s_id && not c.s_one_way) spans in
      match kids with
      | [] -> List.rev (s :: acc)
      | _ ->
        let last =
          List.fold_left
            (fun best c -> if (ends c, c.s_seq) > (ends best, best.s_seq) then c else best)
            (List.hd kids) (List.tl kids)
        in
        walk (s :: acc) last
    in
    (match root with None -> [] | Some r -> List.map view (walk [] r))

(* --- propagation -------------------------------------------------------- *)

let context_to_string ctx = Printf.sprintf "%Lx-%Lx" ctx.trace_id ctx.span_id

let context_of_string s =
  match String.index_opt s '-' with
  | None -> None
  | Some i -> (
    let parse part =
      try Some (Int64.of_string ("0x" ^ part)) with Invalid_argument _ | Failure _ -> None
    in
    let a = String.sub s 0 i and b = String.sub s (i + 1) (String.length s - i - 1) in
    if a = "" || b = "" then None
    else
      match (parse a, parse b) with
      | Some trace_id, Some span_id -> Some { trace_id; span_id }
      | _ -> None)

(* --- rendering ----------------------------------------------------------- *)

let ms v = Printf.sprintf "%.1fms" (v *. 1000.0)

let render_tree t =
  let all = in_order t in
  let buf = Buffer.create 1024 in
  let traces =
    List.fold_left
      (fun acc s -> if List.mem s.s_trace acc then acc else acc @ [ s.s_trace ])
      [] all
  in
  List.iter
    (fun tid ->
      let spans = List.filter (fun s -> s.s_trace = tid) all in
      let ids = List.map (fun s -> s.s_id) spans in
      let t0 = match spans with [] -> 0.0 | s :: _ -> s.s_start in
      let t_end =
        List.fold_left
          (fun acc s -> Float.max acc (Option.value s.s_end ~default:s.s_start))
          t0 spans
      in
      Buffer.add_string buf
        (Printf.sprintf "trace %Lx  (%d spans, %s)\n" tid (List.length spans) (ms (t_end -. t0)));
      let children parent =
        List.filter (fun s -> s.s_parent = Some parent) spans
      in
      let roots =
        List.filter
          (fun s -> match s.s_parent with None -> true | Some p -> not (List.mem p ids))
          spans
      in
      let span_line s =
        let dur =
          match s.s_end with
          | Some e -> ms (e -. s.s_start)
          | None -> "unfinished"
        in
        let attrs =
          match List.rev s.s_attrs with
          | [] -> ""
          | kvs -> "  " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
        in
        let status = match s.s_status with Span_ok -> "" | Span_error e -> "  ERROR(" ^ e ^ ")" in
        Printf.sprintf "%s  [+%s %s]%s%s" s.s_name (ms (s.s_start -. t0)) dur attrs status
      in
      let rec emit prefix is_last s =
        let branch = if is_last then "`- " else "|- " in
        Buffer.add_string buf (prefix ^ branch ^ span_line s ^ "\n");
        let child_prefix = prefix ^ if is_last then "   " else "|  " in
        let kids = children s.s_id in
        let events = List.rev s.s_events in
        List.iter
          (fun (at, name) ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s* %s @+%s\n" child_prefix
                 (if kids = [] then "" else "|  ")
                 name (ms (at -. t0))))
          events;
        let n = List.length kids in
        List.iteri (fun i kid -> emit child_prefix (i = n - 1) kid) kids
      in
      let n = List.length roots in
      List.iteri (fun i r -> emit "" (i = n - 1) r) roots)
    traces;
  (match global_events t with
  | [] -> ()
  | events ->
    Buffer.add_string buf "events:\n";
    List.iter
      (fun (at, name) -> Buffer.add_string buf (Printf.sprintf "  @%.3fs %s\n" at name))
      events);
  Buffer.contents buf
