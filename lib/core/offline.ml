module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Compiled = Dacs_policy.Compiled
module Value = Dacs_policy.Value
module Chain = Dacs_crypto.Chain
module Hmac = Dacs_crypto.Hmac
module Sha256 = Dacs_crypto.Sha256
module Metrics = Dacs_telemetry.Metrics
module Service = Dacs_ws.Service

type kind = Wire.log_kind =
  | Grant of { subject : string; attr : string; value : string }
  | Revoke of { subject : string; attr : string }
  | Publish of { policy : string }
  | Decide of { key : string; ctx : string; decision : string }

type event = Wire.log_event = {
  author : string;
  seq : int;
  at : float;
  epoch : int;
  frontier : (string * int) list;
  kind : kind;
  digest : string;
  tag : string;
}

type sync_error =
  | Gap of { author : string; expected : int; got : int }
  | Chain_mismatch of { author : string; seq : int }
  | Bad_signature of { author : string; seq : int }

let sync_error_to_string = function
  | Gap { author; expected; got } ->
    Printf.sprintf "gap in %s's log: expected seq %d, got %d (truncated or spliced segment)"
      author expected got
  | Chain_mismatch { author; seq } ->
    Printf.sprintf "chain mismatch at %s #%d (mutated or reordered segment)" author seq
  | Bad_signature { author; seq } ->
    Printf.sprintf "bad signature at %s #%d (forged digest or wrong mesh key)" author seq

let sync_error_reason = function
  | Gap _ -> "gap"
  | Chain_mismatch _ -> "chain-mismatch"
  | Bad_signature _ -> "bad-signature"

type conflict = {
  c_subject : string;
  c_attr : string;
  c_grant_author : string;
  c_revoke_author : string;
  c_at : float;
}

type stats = {
  events_logged : int;
  events_known : int;
  replays : int;
  replayed_events : int;
  rechecked : int;
  invalidations : int;
  conflicts : int;
  sync_rejections : int;
  offline_decides : int;
}

(* Derived (replayed) view of the merged log. *)
type state = {
  s_grants : (string * string * string) list;  (* surviving, sorted *)
  s_policy : (string * Compiled.t) option;  (* the adopted Publish's bytes, compiled *)
  s_conflicts : conflict list;
}

(* Every event is counted once, in the registry's
   [offline_*_total{domain=author}] series — the caller's registry, or a
   private one when none is given; [stats] reads them back. *)
type counters = {
  c_events : Metrics.counter;
  c_replays : Metrics.counter;
  c_invalidations : Metrics.counter;
  c_conflicts : Metrics.counter;
  c_decides : Metrics.counter;
}

(* One author's chain as known here: [evs.(i)] is its event [seq = i + 1],
   for [i < len]. *)
type log = {
  mutable evs : event array;
  mutable len : int;
  mutable stepped_back : bool;  (* some event's [at] is below its predecessor's *)
  fired : (int, unit) Hashtbl.t;  (* seqs of the Decides already invalidated *)
}

type t = {
  key : Hmac.key;  (* the mesh key, its pads absorbed once *)
  t_author : string;
  now : unit -> float;
  metrics : Metrics.t;
  counters : counters;
  logs : (string, log) Hashtbl.t;  (* per author, own chain included *)
  own : log;  (* [t_author]'s entry of [logs] *)
  mutable t_frontier : (string * int) list;  (* highest seq per author, sorted *)
  scratch : Buffer.t;  (* canonical bytes of the event being chained *)
  mutable offline : bool;
  mutable t_epoch : int;
  mutable state : state;  (* derived by the last replay *)
  mutable dirty : bool;  (* the log grew since: replay on demand *)
  known_conflicts : (string * int * string * int, unit) Hashtbl.t;
  mutable n_replayed : int;  (* no registry twin *)
  mutable n_rechecked : int;  (* nor this one *)
}

let new_log () = { evs = [||]; len = 0; stepped_back = false; fired = Hashtbl.create 1 }

let create ?metrics ?(now = fun () -> 0.0) ~key ~author () =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let own name help = Metrics.counter metrics ~help ~labels:[ ("domain", author) ] name in
  let own_log = new_log () in
  let logs = Hashtbl.create 7 in
  Hashtbl.replace logs author own_log;
  {
    key = Hmac.key key;
    t_author = author;
    now;
    metrics;
    counters =
      {
        c_events = own "offline_events_total" "events appended to the local offline log";
        c_replays = own "offline_replays_total" "full deterministic replays of the merged log";
        c_invalidations =
          own "offline_retroactive_invalidations_total"
            "offline decisions contradicted by post-heal replay";
        c_conflicts = own "offline_conflicts_total" "concurrent grant/revoke races (deny won)";
        c_decides = own "offline_decides_total" "decisions served from the local log";
      };
    logs;
    own = own_log;
    t_frontier = [];
    scratch = Buffer.create 1024;
    offline = false;
    t_epoch = 0;
    state = { s_grants = []; s_policy = None; s_conflicts = [] };
    dirty = true;
    known_conflicts = Hashtbl.create 16;
    n_replayed = 0;
    n_rechecked = 0;
  }

let rejections_metric = "offline_sync_rejections_total"

(* One series per refusal reason, registered on first use. *)
let count_rejection t reason =
  Metrics.inc
    (Metrics.counter t.metrics ~help:"log-sync segments refused at verification"
       ~labels:[ ("domain", t.t_author); ("reason", reason) ]
       rejections_metric)

let epoch t = t.t_epoch

let set_offline t offline =
  if offline && not t.offline then t.t_epoch <- t.t_epoch + 1;
  t.offline <- offline

let last_digest log = if log.len = 0 then Chain.genesis else log.evs.(log.len - 1).digest
let head t = last_digest t.own
let head_short t = Chain.short (head t)

let frontier t = t.t_frontier

(* The sorted frontier with [author]'s entry set to [seq]. *)
let rec advance author seq = function
  | [] -> [ (author, seq) ]
  | ((a, _) as entry) :: rest ->
    let c = String.compare a author in
    if c = 0 then (author, seq) :: rest
    else if c > 0 then (author, seq) :: entry :: rest
    else entry :: advance author seq rest

(* [author]'s seq in [frontier] ([List.assoc], first entry wins), 0 when
   absent. *)
let rec seq_in frontier author =
  match frontier with
  | [] -> 0
  | (a, n) :: rest -> if String.equal a author then n else seq_in rest author

let total_order a b =
  match Float.compare a.at b.at with
  | 0 -> ( match String.compare a.author b.author with 0 -> Int.compare a.seq b.seq | c -> c)
  | c -> c

let push log ev =
  if log.len = Array.length log.evs then begin
    let evs = Array.make (max 8 (2 * log.len)) ev in
    Array.blit log.evs 0 evs 0 log.len;
    log.evs <- evs
  end;
  if log.len > 0 && Float.compare ev.at log.evs.(log.len - 1).at < 0 then log.stepped_back <- true;
  log.evs.(log.len) <- ev;
  log.len <- log.len + 1

(* One author's events in total order: its chain itself while the
   author's clock never stepped back — seq order is then total order —
   and a sorted copy otherwise. *)
type run = { r_log : log; r_evs : event array; mutable r_pos : int; r_end : int }

let run_of log =
  let evs =
    if log.stepped_back then begin
      let evs = Array.sub log.evs 0 log.len in
      Array.stable_sort total_order evs;
      evs
    end
    else log.evs
  in
  { r_log = log; r_evs = evs; r_pos = 0; r_end = log.len }

let runs t = Hashtbl.fold (fun _ log acc -> run_of log :: acc) t.logs [] |> Array.of_list

(* Calls [f] on every event of [runs] in total order: a merge of the
   per-author runs, each already in that order. *)
let rec merge runs f =
  let best = ref (-1) in
  for i = 0 to Array.length runs - 1 do
    let r = runs.(i) in
    if
      r.r_pos < r.r_end
      && (!best < 0
         ||
         let b = runs.(!best) in
         total_order r.r_evs.(r.r_pos) b.r_evs.(b.r_pos) < 0)
    then best := i
  done;
  if !best >= 0 then begin
    let r = runs.(!best) in
    let ev = r.r_evs.(r.r_pos) in
    r.r_pos <- r.r_pos + 1;
    f r.r_log ev;
    merge runs f
  end

let events t =
  let acc = ref [] in
  merge (runs t) (fun _ ev -> acc := ev :: !acc);
  List.rev !acc


(* --- signing ------------------------------------------------------------- *)

(* The chain link over [ev]'s canonical bytes — [Wire.write_log_link]'s,
   written into the replica's scratch buffer and hashed there. *)
let link t ~prev ev =
  Buffer.clear t.scratch;
  Wire.write_log_link t.scratch ev;
  Chain.extend ~prev t.scratch

let append_own t kind =
  let seq = t.own.len + 1 in
  let frontier = advance t.t_author seq t.t_frontier in
  let unsigned =
    {
      author = t.t_author;
      seq;
      at = t.now ();
      epoch = t.t_epoch;
      frontier;
      kind;
      digest = "";
      tag = "";
    }
  in
  let digest = link t ~prev:(head t) unsigned in
  let tag = Hmac.tag t.key digest in
  push t.own { unsigned with digest; tag };
  t.t_frontier <- frontier;
  Metrics.inc t.counters.c_events;
  t.dirty <- true

(* --- deny-wins replay --------------------------------------------------- *)

(* [List.assoc_opt] without the option. *)
let rec covers frontier author seq =
  match frontier with
  | [] -> false
  | (a, n) :: rest -> if String.equal a author then n >= seq else covers rest author seq

(* Whether two Grant/Revoke events name the same (subject, attr). *)
let same_key a b =
  match (a, b) with
  | ( (Grant { subject; attr; _ } | Revoke { subject; attr }),
      (Grant { subject = s; attr = a; _ } | Revoke { subject = s; attr = a }) ) ->
    String.equal subject s && String.equal attr a
  | _ -> false

(* Deny-wins over one event set's grants and revocations, both in total
   order: a grant survives iff it causally follows every revocation of
   its key — deny wins over anything concurrent or earlier — and among
   the survivors of one key the latest supplies the value.  Returns the
   surviving [(subject, attr, value)], sorted, and the defeated grants. *)
let deny_wins grants revokes =
  let survives g =
    List.for_all (fun r -> (not (same_key g.kind r.kind)) || covers g.frontier r.author r.seq) revokes
  in
  let surviving, defeated = List.partition survives grants in
  let values = Hashtbl.create 16 in
  List.iter
    (fun g ->
      match g.kind with
      | Grant { subject; attr; value } -> Hashtbl.replace values (subject, attr) value
      | _ -> ())
    surviving;
  (Hashtbl.fold (fun (s, a) v acc -> (s, a, v) :: acc) values [] |> List.sort compare, defeated)

(* Fill only the empty subject bags: local grants are fallback knowledge,
   never an override of attributes the request already carried. *)
let enrich_ctx grants ctx =
  match Context.subject_id ctx with
  | None -> ctx
  | Some subject ->
    List.fold_left
      (fun ctx (s, a, v) ->
        if s = subject && Context.bag ctx Context.Subject a = [] then
          Context.add ctx Context.Subject a (Value.String v)
        else ctx)
      ctx grants

let decision_name (result : Decision.result) = Decision.decision_to_string result.decision

(* The request as logged: [ctx] holds the served context in its compact
   form, which reads back to exactly that context. *)
let evaluate_logged state ctx_str =
  match Context.read_compact ctx_str with
  | Error _ -> None
  | Ok ctx -> (
    match state.s_policy with
    | None -> None
    | Some (_, compiled) -> Some (Compiled.evaluate (enrich_ctx state.s_grants ctx) compiled))

(* The latest publication in total order that parses, compiled against
   the previous replay's policy; bytes already adopted are reused as they
   are. *)
let adopt t publishes =
  let rec latest = function
    | [] -> None
    | policy :: earlier -> (
      match t.state.s_policy with
      | Some (bytes, _) as same when String.equal bytes policy -> same
      | previous -> (
        match Dacs_policy.Xacml_xml.child_of_string policy with
        | Error _ -> latest earlier
        | Ok child ->
          Some
            ( policy,
              match previous with
              | Some (_, compiled) -> Compiled.recompile compiled child
              | None -> Compiled.compile child )))
  in
  latest
    (List.fold_left
       (fun acc ev -> match ev.kind with Publish { policy } -> policy :: acc | _ -> acc)
       [] publishes)

(* The index of the first of the ascending [seqs.(lo) .. seqs.(hi - 1)]
   above [n], or [hi]: from [lo = 0], how many are at most [n]. *)
let rec count_le seqs n lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if seqs.(mid) <= n then count_le seqs n (mid + 1) hi else count_le seqs n lo mid

(* Whether every entry of [frontier] is covered by [known]. *)
let rec knows known = function
  | [] -> true
  | (author, seq) :: rest -> covers known author seq && knows known rest

(* The cuts of one replay.  [authors] are the authors of some
   Grant/Revoke/Publish event, sorted, and [seqs.(i)] the ascending seqs
   of [authors.(i)]'s; a Decide's cut is how many of each author's its
   frontier covers, written into [cut] to be looked up in [memo]. *)
type cuts = {
  authors : string array;
  seqs : int array array;
  cut : int array;
  memo : (int array, bool) Hashtbl.t;
}

(* [changes] holds [(author, ascending seqs)] for every author with a
   change.  The cut covering every change is the converged state
   itself. *)
let cuts_of changes =
  let changes = List.sort (fun (a, _) (b, _) -> String.compare a b) changes in
  let seqs = Array.of_list (List.map snd changes) in
  let memo = Hashtbl.create 8 in
  Hashtbl.replace memo (Array.map Array.length seqs) true;
  { authors = Array.of_list (List.map fst changes); seqs; cut = Array.make (Array.length seqs) 0; memo }

(* Whether the Grant/Revoke/Publish events [frontier] covers derive the
   converged grants and adopted policy bytes. *)
let agrees state ~grants ~revokes ~publishes frontier =
  let covered ev = covers frontier ev.author ev.seq in
  let grants, _ = deny_wins (List.filter covered grants) (List.filter covered revokes) in
  let policy =
    List.fold_left
      (fun acc ev -> match ev.kind with Publish { policy } when covered ev -> Some policy | _ -> acc)
      None publishes
  in
  grants = state.s_grants && Option.equal String.equal policy (Option.map fst state.s_policy)

(* Whether a Decide's answer still stands without re-evaluating it.  Its
   author evaluated the served context against the state derived from
   the Grant/Revoke/Publish events its frontier covers.  When we know all
   of those events and they derive the converged grants and adopted
   policy bytes, re-evaluating the logged context under the converged
   state is that same evaluation, so it returns the logged answer.  The
   verdict depends only on which state-changing events the frontier
   covers — per author, a prefix of its changes — so it is memoised per
   such cut; a cut already judged costs a lookup and allocates
   nothing. *)
let unchanged_since t state cuts ~grants ~revokes ~publishes ev =
  knows t.t_frontier ev.frontier
  &&
  let cut = cuts.cut in
  for i = 0 to Array.length cut - 1 do
    let seqs = cuts.seqs.(i) in
    cut.(i) <- count_le seqs (seq_in ev.frontier cuts.authors.(i)) 0 (Array.length seqs)
  done;
  match Hashtbl.find cuts.memo cut with
  | verdict -> verdict
  | exception Not_found ->
    let verdict = agrees state ~grants ~revokes ~publishes ev.frontier in
    Hashtbl.replace cuts.memo (Array.copy cut) verdict;
    verdict

let replay t =
  (* The state-changing events, walked per author in seq order; a Decide
     is only visited by the ordered walk below. *)
  let visited = ref 0 and all_changes = ref [] and by_author = ref [] in
  Hashtbl.iter
    (fun author log ->
      visited := !visited + log.len;
      let seqs = ref [] in
      for i = log.len - 1 downto 0 do
        let ev = log.evs.(i) in
        match ev.kind with
        | Decide _ -> ()
        | Grant _ | Revoke _ | Publish _ ->
          all_changes := ev :: !all_changes;
          seqs := ev.seq :: !seqs
      done;
      match !seqs with [] -> () | seqs -> by_author := (author, Array.of_list seqs) :: !by_author)
    t.logs;
  t.n_replayed <- t.n_replayed + !visited;
  Metrics.inc t.counters.c_replays;
  let changes = List.sort total_order !all_changes in
  let of_kind p = List.filter (fun ev -> p ev.kind) changes in
  let grants = of_kind (function Grant _ -> true | _ -> false)
  and revokes = of_kind (function Revoke _ -> true | _ -> false)
  and publishes = of_kind (function Publish _ -> true | _ -> false) in
  let s_grants, defeated = deny_wins grants revokes in
  let s_policy = adopt t publishes in
  (* A defeated grant is a conflict only when the race was concurrent:
     neither side causally knew the other.  A revoke that already saw the
     grant is a plain revocation. *)
  let s_conflicts =
    List.concat_map
      (fun g ->
        match g.kind with
        | Grant { subject; attr; _ } ->
          List.filter_map
            (fun r ->
              if
                same_key g.kind r.kind
                && (not (covers g.frontier r.author r.seq))
                && not (covers r.frontier g.author g.seq)
              then
                Some
                  ( (g.author, g.seq, r.author, r.seq),
                    {
                      c_subject = subject;
                      c_attr = attr;
                      c_grant_author = g.author;
                      c_revoke_author = r.author;
                      c_at = g.at;
                    } )
              else None)
            revokes
        | _ -> [])
      defeated
  in
  List.iter
    (fun (id, _) ->
      if not (Hashtbl.mem t.known_conflicts id) then begin
        Hashtbl.replace t.known_conflicts id ();
        Metrics.inc t.counters.c_conflicts
      end)
    s_conflicts;
  let state =
    { s_grants; s_policy; s_conflicts = List.map snd s_conflicts |> List.sort_uniq compare }
  in
  (* Retroactive invalidation: any logged offline decision the converged
     state now contradicts is counted, once.  Only a Decide a merge could
     flip is re-evaluated. *)
  let cuts = cuts_of !by_author in
  merge (runs t) (fun log ev ->
      match ev.kind with
      | Decide { ctx; decision; _ } ->
        if
          (not (Hashtbl.mem log.fired ev.seq))
          && not (unchanged_since t state cuts ~grants ~revokes ~publishes ev)
        then begin
          t.n_rechecked <- t.n_rechecked + 1;
          let converged = evaluate_logged state ctx in
          let contradicted =
            match converged with
            | None -> false
            | Some result -> decision_name result <> decision
          in
          if contradicted then begin
            Hashtbl.replace log.fired ev.seq ();
            Metrics.inc t.counters.c_invalidations
          end
        end
      | Grant _ | Revoke _ | Publish _ -> ());
  t.state <- state;
  t.dirty <- false;
  state

let force t = if t.dirty then replay t else t.state

(* --- log writers -------------------------------------------------------- *)

let grant t ~subject ~attr ~value = append_own t (Grant { subject; attr; value })
let revoke t ~subject ~attr = append_own t (Revoke { subject; attr })

let publish t child =
  append_own t (Publish { policy = Dacs_policy.Xacml_xml.child_to_string child })

(* --- offline decisions -------------------------------------------------- *)

let decide t ctx =
  let state = force t in
  match state.s_policy with
  | None -> None
  | Some (_, compiled) -> (
    let result = Compiled.evaluate (enrich_ctx state.s_grants ctx) compiled in
    match result.Decision.decision with
    | Decision.Indeterminate _ ->
      (* No local basis: never logged, so an Indeterminate can never be
         cached, replayed, or mistaken for a grant. *)
      None
    | _ ->
      let key = Decision_cache.request_key ctx in
      Buffer.clear t.scratch;
      Context.write_compact t.scratch ctx;
      let ctx_str = Buffer.contents t.scratch in
      append_own t (Decide { key; ctx = ctx_str; decision = decision_name result });
      (* The Decide append itself never changes the derived state. *)
      t.dirty <- false;
      Metrics.inc t.counters.c_decides;
      Some (result, head_short t))

(* --- derived views ------------------------------------------------------ *)

let surviving_grants t = (force t).s_grants
let conflicts t = (force t).s_conflicts

let state_digest t =
  let state = force t in
  let b = Buffer.create 256 in
  Buffer.add_string b "grants\n";
  List.iter
    (fun (s, a, v) -> Buffer.add_string b (Printf.sprintf "%s|%s|%s\n" s a v))
    state.s_grants;
  Buffer.add_string b "policy\n";
  Buffer.add_string b
    (match state.s_policy with
    | Some (_, compiled) -> Dacs_policy.Xacml_xml.child_to_string (Compiled.source compiled)
    | None -> "-");
  Buffer.add_string b "\nconflicts\n";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "%s|%s|%s|%s|%.17g\n" c.c_subject c.c_attr c.c_grant_author
           c.c_revoke_author c.c_at))
    state.s_conflicts;
  Sha256.hex_digest (Buffer.contents b)

let stats t =
  let events_known = Hashtbl.fold (fun _ log acc -> acc + log.len) t.logs 0 in
  let v = Metrics.counter_value in
  let c = t.counters in
  {
    events_logged = v c.c_events;
    events_known;
    replays = v c.c_replays;
    replayed_events = t.n_replayed;
    rechecked = t.n_rechecked;
    invalidations = v c.c_invalidations;
    conflicts = v c.c_conflicts;
    sync_rejections =
      Metrics.sum_counter_by t.metrics rejections_metric ~label:"domain"
      |> List.assoc_opt t.t_author |> Option.value ~default:0;
    offline_decides = v c.c_decides;
  }

(* --- sync --------------------------------------------------------------- *)

(* Each author's suffix in seq order, authors in name order. *)
let missing_for t ~frontier:peer =
  let authors = Hashtbl.fold (fun author _ acc -> author :: acc) t.logs [] in
  List.fold_left
    (fun acc author ->
      let log = Hashtbl.find t.logs author in
      let acc = ref acc in
      for i = log.len - 1 downto max 0 (seq_in peer author) do
        acc := log.evs.(i) :: !acc
      done;
      !acc)
    []
    (List.sort (fun a b -> String.compare b a) authors)

(* One author's part of a segment under verification: its chain here
   ([known] events, or a detached empty one for a new author), the seq
   its next fresh event must carry and the digest that event must
   extend. *)
type check = { c_author : string; c_log : log; known : int; mutable next : int; mutable prev : string }

let rec find_check author = function
  | [] -> raise Not_found
  | c :: rest -> if String.equal c.c_author author then c else find_check author rest

(* Every fresh event — above its author's known seq — in the segment's
   order, which per author must be seq order, from our locally known
   head: recompute the chain and check every signature before admitting
   anything. *)
let verify_segment t incoming =
  let checks = ref [] in
  let check_of author =
    match find_check author !checks with
    | c -> c
    | exception Not_found ->
      let log = match Hashtbl.find_opt t.logs author with Some l -> l | None -> new_log () in
      let c = { c_author = author; c_log = log; known = log.len; next = log.len + 1; prev = last_digest log } in
      checks := c :: !checks;
      c
  in
  let exception Reject of sync_error in
  try
    List.iter
      (fun ev ->
        let c = check_of ev.author in
        if ev.seq > c.known then begin
          if ev.seq <> c.next then
            raise (Reject (Gap { author = ev.author; expected = c.next; got = ev.seq }));
          let digest = link t ~prev:c.prev ev in
          if not (String.equal digest ev.digest) then
            raise (Reject (Chain_mismatch { author = ev.author; seq = ev.seq }));
          if not (Hmac.check t.key digest ~tag:ev.tag) then
            raise (Reject (Bad_signature { author = ev.author; seq = ev.seq }));
          c.next <- ev.seq + 1;
          c.prev <- digest
        end)
      incoming;
    Ok !checks
  with Reject e -> Error e

let admit t incoming =
  match verify_segment t incoming with
  | Error e ->
    count_rejection t (sync_error_reason e);
    Error e
  | Ok checks ->
    (* Each fresh event is its author's next, in the segment's order. *)
    List.iter
      (fun ev ->
        let c = find_check ev.author checks in
        if ev.seq = c.c_log.len + 1 then push c.c_log ev)
      incoming;
    let admitted =
      List.fold_left
        (fun n c ->
          let fresh = c.c_log.len - c.known in
          if fresh > 0 then begin
            Hashtbl.replace t.logs c.c_author c.c_log;
            t.t_frontier <- advance c.c_author c.c_log.len t.t_frontier
          end;
          n + fresh)
        0 checks
    in
    if admitted > 0 then ignore (replay t);
    Ok admitted

let sync_pair a b =
  match admit b (missing_for a ~frontier:(frontier b)) with
  | Error _ as e -> e
  | Ok n -> (
    match admit a (missing_for b ~frontier:(frontier a)) with
    | Error _ as e -> e
    | Ok m -> Ok (n + m))

(* --- RPC sync ----------------------------------------------------------- *)

let serve t services ~node =
  Service.serve services ~node Wire.Services.log_sync
    (fun ~caller:_ ~headers:_ peer_frontier reply ->
      let suffix = missing_for t ~frontier:peer_frontier in
      reply (fun buf -> Wire.write_log_sync_response buf suffix))

let sync_rpc t services ~src ~dst k =
  Service.call services ~src ~dst Wire.Services.log_sync
    (fun buf -> Wire.write_log_sync_request buf ~frontier:(frontier t))
    (function
      | Error e -> k (Error (Service.error_to_string e))
      | Ok (Error reason) -> k (Error reason)
      | Ok (Ok events) -> (
        match admit t events with
        | Ok n -> k (Ok n)
        | Error e -> k (Error (sync_error_to_string e))))
