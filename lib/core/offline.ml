module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Compiled = Dacs_policy.Compiled
module Value = Dacs_policy.Value
module Chain = Dacs_crypto.Chain
module Hmac = Dacs_crypto.Hmac
module Sha256 = Dacs_crypto.Sha256
module Metrics = Dacs_telemetry.Metrics
module Net = Dacs_net.Net
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

type t = {
  key : Hmac.key;  (* the mesh key, its pads absorbed once *)
  t_author : string;
  now : unit -> float;
  audit : Audit.t option;
  metrics : Metrics.t;
  counters : counters;
  logs : (string, event list ref) Hashtbl.t;  (* per author, newest first *)
  heads : (string, string) Hashtbl.t;  (* per author chain head *)
  mutable t_frontier : (string * int) list;  (* highest seq per author, sorted *)
  scratch : Buffer.t;  (* canonical bytes of the event being chained *)
  mutable offline : bool;
  mutable t_epoch : int;
  mutable state : state;  (* derived by the last replay *)
  mutable dirty : bool;  (* the log grew since: replay on demand *)
  mutable hooks : (string -> unit) list;
  fired : (string * int, unit) Hashtbl.t;  (* Decide events already invalidated *)
  known_conflicts : (string * int * string * int, unit) Hashtbl.t;
  mutable n_replayed : int;  (* no registry twin *)
  mutable n_rechecked : int;  (* nor this one *)
}

let create ?metrics ?audit ?(now = fun () -> 0.0) ~key ~author () =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let own name help = Metrics.counter metrics ~help ~labels:[ ("domain", author) ] name in
  {
    key = Hmac.key key;
    t_author = author;
    now;
    audit;
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
    logs = Hashtbl.create 7;
    heads = Hashtbl.create 7;
    t_frontier = [];
    scratch = Buffer.create 1024;
    offline = false;
    t_epoch = 0;
    state = { s_grants = []; s_policy = None; s_conflicts = [] };
    dirty = true;
    hooks = [];
    fired = Hashtbl.create 64;
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

let author t = t.t_author
let epoch t = t.t_epoch
let is_offline t = t.offline

let set_offline t offline =
  if offline && not t.offline then t.t_epoch <- t.t_epoch + 1;
  t.offline <- offline

let head_of t author =
  match Hashtbl.find_opt t.heads author with Some h -> h | None -> Chain.genesis

let head t = head_of t t.t_author
let head_short t = Chain.short (head t)

let log_of t author =
  match Hashtbl.find_opt t.logs author with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.replace t.logs author l;
    l

let max_seq t author = match !(log_of t author) with [] -> 0 | ev :: _ -> ev.seq

let frontier t = t.t_frontier

(* The sorted frontier with [author]'s entry set to [seq]. *)
let rec advance author seq = function
  | [] -> [ (author, seq) ]
  | ((a, _) as entry) :: rest ->
    let c = String.compare a author in
    if c = 0 then (author, seq) :: rest
    else if c > 0 then (author, seq) :: entry :: rest
    else entry :: advance author seq rest

let total_order a b =
  match compare a.at b.at with
  | 0 -> ( match String.compare a.author b.author with 0 -> compare a.seq b.seq | c -> c)
  | c -> c

let events t =
  Hashtbl.fold (fun _ l acc -> List.rev_append !l acc) t.logs [] |> List.sort total_order

let on_invalidate t hook = t.hooks <- hook :: t.hooks

(* --- signing ------------------------------------------------------------- *)

(* [Wire.write_log_event]'s unsigned bytes, written into the replica's
   scratch buffer. *)
let canonical_bytes t ev =
  Buffer.clear t.scratch;
  Wire.write_log_event t.scratch ~signed:false ev;
  Buffer.contents t.scratch

let append_own t kind =
  let seq = max_seq t t.t_author + 1 in
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
  let digest = Chain.extend ~prev:(head t) (canonical_bytes t unsigned) in
  let tag = Hmac.tag t.key digest in
  let ev = { unsigned with digest; tag } in
  let l = log_of t t.t_author in
  l := ev :: !l;
  Hashtbl.replace t.heads t.t_author digest;
  t.t_frontier <- frontier;
  Metrics.inc t.counters.c_events;
  t.dirty <- true;
  ev

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

(* The request as logged, not as it was served: [ctx] holds the
   rendered context, so replay judges exactly those bytes. *)
let evaluate_logged state ctx_str =
  match Context.of_string ctx_str with
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

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec from i = i + m <= n && (matches i 0 || from (i + 1)) in
  from 0

(* [Value.to_string] renders Double and Time values with [%g], so a
   logged context carrying one may not be the context that was served.
   Judged from the bytes alone, conservatively: every such value is
   written with a quoted "double" or "time" type name. *)
let may_be_lossy ctx = contains ctx "\"double\"" || contains ctx "\"time\""

(* How many of the ascending [seqs] are at most [n]. *)
let count_le seqs n =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if seqs.(mid) <= n then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length seqs)

(* Whether a Decide's answer still stands without re-evaluating it.  Its
   author evaluated the served context against the state derived from
   the Grant/Revoke/Publish events its frontier covers.  When we know all
   of those events and they derive the converged grants and adopted
   policy bytes, re-evaluating the logged context under the converged
   state is that same evaluation, so it returns the logged answer.  The
   verdict depends only on which state-changing events the frontier
   covers — per author, a prefix of its changes — so it is memoised per
   such cut, and the cut covering every change is the converged state
   itself. *)
let unchanged_since t state ~grants ~revokes ~publishes =
  let changes =
    lazy
      (let by_author = Hashtbl.create 7 in
       let add ev =
         let seqs = Option.value (Hashtbl.find_opt by_author ev.author) ~default:[] in
         Hashtbl.replace by_author ev.author (ev.seq :: seqs)
       in
       List.iter add grants;
       List.iter add revokes;
       List.iter add publishes;
       let changes = Hashtbl.create 7 and full = ref [] in
       Hashtbl.iter
         (fun author seqs ->
           let seqs = Array.of_list seqs in
           Array.sort compare seqs;
           Hashtbl.replace changes author seqs;
           full := (author, Array.length seqs) :: !full)
         by_author;
       let memo = Hashtbl.create 8 in
       Hashtbl.replace memo (List.sort compare !full) true;
       (changes, memo))
  in
  let agrees frontier =
    let covered ev = covers frontier ev.author ev.seq in
    let grants, _ = deny_wins (List.filter covered grants) (List.filter covered revokes) in
    let policy =
      List.fold_left
        (fun acc ev -> match ev.kind with Publish { policy } when covered ev -> Some policy | _ -> acc)
        None publishes
    in
    grants = state.s_grants && Option.equal String.equal policy (Option.map fst state.s_policy)
  in
  fun ev ->
    List.for_all (fun (author, seq) -> covers t.t_frontier author seq) ev.frontier
    &&
    let changes, memo = Lazy.force changes in
    let cut =
      List.filter_map
        (fun (author, seq) ->
          match Hashtbl.find_opt changes author with
          | Some seqs -> (
            match count_le seqs seq with 0 -> None | n -> Some (author, n))
          | None -> None)
        ev.frontier
    in
    match Hashtbl.find_opt memo cut with
    | Some verdict -> verdict
    | None ->
      let verdict = agrees ev.frontier in
      Hashtbl.replace memo cut verdict;
      verdict

let replay t =
  let all = events t in
  t.n_replayed <- t.n_replayed + List.length all;
  Metrics.inc t.counters.c_replays;
  let of_kind p = List.filter (fun ev -> p ev.kind) all in
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
    (fun (id, c) ->
      if not (Hashtbl.mem t.known_conflicts id) then begin
        Hashtbl.replace t.known_conflicts id ();
        Metrics.inc t.counters.c_conflicts;
        Option.iter
          (fun audit ->
            Audit.record audit
              {
                Audit.at = t.now ();
                domain = t.t_author;
                subject = c.c_subject;
                resource = c.c_attr;
                action = "offline-conflict";
                decision = Decision.Deny;
                provenance = None;
              })
          t.audit
      end)
    s_conflicts;
  let state =
    { s_grants; s_policy; s_conflicts = List.map snd s_conflicts |> List.sort_uniq compare }
  in
  (* Retroactive invalidation: any logged offline decision the converged
     state now contradicts gets its cache key purged, once.  Only a
     Decide a merge could flip is re-evaluated. *)
  let unchanged = unchanged_since t state ~grants ~revokes ~publishes in
  List.iter
    (fun ev ->
      match ev.kind with
      | Decide { key; ctx; decision } ->
        if
          (not (Hashtbl.mem t.fired (ev.author, ev.seq))) && (may_be_lossy ctx || not (unchanged ev))
        then begin
          t.n_rechecked <- t.n_rechecked + 1;
          let converged = evaluate_logged state ctx in
          let contradicted =
            match converged with
            | None -> false
            | Some result -> decision_name result <> decision
          in
          if contradicted then begin
            Hashtbl.replace t.fired (ev.author, ev.seq) ();
            Metrics.inc t.counters.c_invalidations;
            List.iter (fun hook -> hook key) t.hooks;
            Option.iter
              (fun audit ->
                Audit.record audit
                  {
                    Audit.at = t.now ();
                    domain = t.t_author;
                    subject = "";
                    resource = key;
                    action = "offline-invalidate";
                    decision =
                      (match converged with
                      | Some r -> r.Decision.decision
                      | None -> Decision.Indeterminate "unreplayable");
                    provenance = None;
                  })
              t.audit
          end
        end
      | _ -> ())
    all;
  t.state <- state;
  t.dirty <- false;
  state

let force t = if t.dirty then replay t else t.state

(* --- log writers -------------------------------------------------------- *)

let grant t ~subject ~attr ~value = ignore (append_own t (Grant { subject; attr; value }))
let revoke t ~subject ~attr = ignore (append_own t (Revoke { subject; attr }))

let publish t child =
  ignore (append_own t (Publish { policy = Dacs_policy.Xacml_xml.child_to_string child }))

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
      Context.write t.scratch ctx;
      let ctx_str = Buffer.contents t.scratch in
      ignore
        (append_own t (Decide { key; ctx = ctx_str; decision = decision_name result }));
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
  let events_known = Hashtbl.fold (fun _ l acc -> acc + List.length !l) t.logs 0 in
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

let missing_for t ~frontier:peer =
  let missing_author author l =
    let known = match List.assoc_opt author peer with Some n -> n | None -> 0 in
    List.filter (fun ev -> ev.seq > known) (List.rev !l)
  in
  Hashtbl.fold (fun author l acc -> missing_author author l @ acc) t.logs []
  |> List.sort total_order

let verify_segment t incoming =
  (* Per-author, in seq order, from our locally known head: recompute the
     chain and check every signature before admitting anything. *)
  let by_author = Hashtbl.create 7 in
  List.iter
    (fun ev ->
      let l = match Hashtbl.find_opt by_author ev.author with Some l -> l | None -> [] in
      Hashtbl.replace by_author ev.author (ev :: l))
    incoming;
  let exception Reject of sync_error in
  try
    let verified =
      Hashtbl.fold
        (fun author l acc ->
          let l = List.sort (fun a b -> compare a.seq b.seq) l in
          let known = max_seq t author in
          let fresh = List.filter (fun ev -> ev.seq > known) l in
          let _ =
            List.fold_left
              (fun (expected, prev) ev ->
                if ev.seq <> expected then
                  raise (Reject (Gap { author; expected; got = ev.seq }));
                let digest = Chain.extend ~prev (canonical_bytes t ev) in
                if not (String.equal digest ev.digest) then
                  raise (Reject (Chain_mismatch { author; seq = ev.seq }));
                if not (Hmac.check t.key digest ~tag:ev.tag) then
                  raise (Reject (Bad_signature { author; seq = ev.seq }));
                (expected + 1, digest))
              (known + 1, head_of t author)
              fresh
          in
          (author, fresh) :: acc)
        by_author []
    in
    Ok verified
  with Reject e -> Error e

let admit t incoming =
  match verify_segment t incoming with
  | Error e ->
    count_rejection t (sync_error_reason e);
    Error e
  | Ok verified ->
    let admitted =
      List.fold_left
        (fun n (author, fresh) ->
          match fresh with
          | [] -> n
          | _ ->
            let l = log_of t author in
            List.iter (fun ev -> l := ev :: !l) fresh;
            let last = List.hd !l in
            Hashtbl.replace t.heads author last.digest;
            t.t_frontier <- advance author last.seq t.t_frontier;
            n + List.length fresh)
        0 verified
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

let service_name = "log-sync"

let serve t services ~node =
  Service.serve_frame services ~node ~service:service_name ~read:Wire.read_log_sync_request
    (fun ~caller:_ ~headers:_ peer_frontier reply ->
      let suffix = missing_for t ~frontier:peer_frontier in
      reply (fun buf -> Wire.write_log_sync_response buf ~head:(head t) suffix))

let sync_rpc t services ~src ~dst k =
  Service.call_frame services ~src ~dst ~service:service_name ~read:Wire.read_log_sync_response
    (fun buf -> Wire.write_log_sync_request buf ~frontier:(frontier t))
    (function
      | Error e -> k (Error (Service.error_to_string e))
      | Ok (Error reason) -> k (Error reason)
      | Ok (Ok (_head, events)) -> (
        match admit t events with
        | Ok n -> k (Ok n)
        | Error e -> k (Error (sync_error_to_string e))))
