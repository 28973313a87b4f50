module Metrics = Dacs_telemetry.Metrics

type entry = { result : Dacs_policy.Decision.result; expires : float; stamp : int }

type stats = { hits : int; misses : int; expiries : int; evictions : int; stale_hits : int }

(* Every event is counted once, in the registry's
   [decision_cache_*_total{cache=owner}] series — the caller's registry,
   or a private one when none is given; [stats] reads them back. *)
type counters = {
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_expiries : Metrics.counter;
  c_evictions : Metrics.counter;
  c_stale_hits : Metrics.counter;
}

(* What a cache keeps once a bounded region has made it scan: the census
   that lets a later purge skip it, the scans made, and a reusable array
   for the keys a scan drops.  A cache no bounded region reaches pays
   nothing for it. *)
type scans = { census : Intern.census; mutable count : int; mutable doomed : string array }

type t = {
  ttl : float;
  max_entries : int;
  table : (string, entry) Hashtbl.t;
  (* Insertion order as (key, stamp) pairs; re-inserting a key leaves its
     older pairs behind as tombstones, skipped at eviction time. *)
  order : (string * int) Queue.t;
  counters : counters;
  mutable next_stamp : int;
  mutable purges : int;  (* full and region purges applied so far *)
  mutable scans : scans option;
}

let create ?metrics ?(owner = "default") ?(max_entries = 1024) ~ttl () =
  if ttl < 0.0 then invalid_arg "Decision_cache.create: negative ttl";
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let c ?help n = Metrics.counter metrics ?help ~labels:[ ("cache", owner) ] n in
  {
    ttl;
    max_entries;
    (* Pre-size from capacity so a cache filled to max_entries never
       rehashes; capped so absurd limits don't allocate absurd tables. *)
    table = Hashtbl.create (max 64 (min max_entries (1 lsl 18)));
    order = Queue.create ();
    counters =
      {
        c_hits = c "decision_cache_hits_total" ~help:"Fresh cache hits";
        c_misses = c "decision_cache_misses_total" ~help:"Cache misses";
        c_expiries = c "decision_cache_expiries_total" ~help:"Entries dropped past staleness";
        c_evictions = c "decision_cache_evictions_total" ~help:"Capacity evictions";
        c_stale_hits = c "decision_cache_stale_hits_total" ~help:"Lookups answered stale";
      };
    next_stamp = 0;
    purges = 0;
    scans = None;
  }

(* Every way a key leaves other than the full flush: expiry, eviction
   and a region drop. *)
let remove t key =
  Hashtbl.remove t.table key;
  match t.scans with Some s -> Intern.census_remove s.census key | None -> ()

type lookup =
  | Fresh of Dacs_policy.Decision.result
  | Stale of { result : Dacs_policy.Decision.result; age : float }
  | Absent

(* [Hashtbl.find], not [find_opt]: a hit allocates no option. *)
let lookup t ~now ~max_stale ~key =
  let c = t.counters in
  match Hashtbl.find t.table key with
  | exception Not_found ->
    Metrics.inc c.c_misses;
    Absent
  | e ->
    if now < e.expires then begin
      Metrics.inc c.c_hits;
      Fresh e.result
    end
    else begin
      let age = now -. e.expires in
      if age <= max_stale then begin
        (* Kept for possible degraded serving; still a miss for the
           caller's fresh-path accounting. *)
        Metrics.inc c.c_misses;
        Metrics.inc c.c_stale_hits;
        Stale { result = e.result; age }
      end
      else begin
        remove t key;
        Metrics.inc c.c_expiries;
        Metrics.inc c.c_misses;
        Absent
      end
    end

let get t ~now ~key =
  match lookup t ~now ~max_stale:0.0 ~key with
  | Fresh result -> Some result
  | Stale _ | Absent -> None

let evict_one t =
  (* Pop queue pairs until one still names the live insertion of its key:
     a (key, stamp) whose stamp is outdated means the key was re-inserted
     later and must not be evicted on the strength of its old position. *)
  let rec go () =
    match Queue.take_opt t.order with
    | None -> ()
    | Some (key, stamp) -> (
      match Hashtbl.find_opt t.table key with
      | Some e when e.stamp = stamp ->
        remove t key;
        Metrics.inc t.counters.c_evictions
      | Some _ | None -> go ())
  in
  go ()

let purges t = t.purges
let region_scans t = match t.scans with Some s -> s.count | None -> 0

let put ?since t ~now ~key result =
  (* The put/purge race: a fill whose descent started before a purge
     carries an answer the purge may have meant to drop; storing it would
     resurrect that entry for a whole TTL. *)
  let purged_since = match since with Some n -> n < t.purges | None -> false in
  match result.Dacs_policy.Decision.decision with
  | _ when purged_since -> ()
  | Dacs_policy.Decision.Indeterminate _ ->
    (* Never cache errors: an Indeterminate is a statement about the
       authorisation machinery at one instant, not about the policy, and
       caching one would keep failing requests after the fault clears. *)
    ()
  | Dacs_policy.Decision.Permit | Dacs_policy.Decision.Deny | Dacs_policy.Decision.Not_applicable ->
    (* Negative caching: Deny and NotApplicable are cached under the same
       TTL as Permit — a hot mistaken request is as worth absorbing as a
       hot granted one, and invalidation rounds purge all three alike. *)
    let fresh = not (Hashtbl.mem t.table key) in
    if fresh && Hashtbl.length t.table >= t.max_entries then evict_one t;
    let stamp = t.next_stamp in
    t.next_stamp <- t.next_stamp + 1;
    Hashtbl.replace t.table key { result; expires = now +. t.ttl; stamp };
    Queue.add (key, stamp) t.order;
    if fresh then match t.scans with Some s -> Intern.census_add s.census key | None -> ()

let push_doomed s i key =
  if i >= Array.length s.doomed then begin
    (* The largest array the minor heap takes: one growth covers a
       typical purge, and later purges reuse it. *)
    let bigger = Array.make (max 256 (2 * Array.length s.doomed)) "" in
    Array.blit s.doomed 0 bigger 0 i;
    s.doomed <- bigger
  end;
  s.doomed.(i) <- key

(* The region is compiled once per purge into an atom-level test
   (Intern.compile_region) that reads each packed key in place — no
   Context is built per key.  The census first asks whether any live key
   can be in the region; when none can, the purge visits no entry.
   Otherwise the doomed keys are collected into [s.doomed] and removed
   after the scan: a Hashtbl.filter_map_inplace would allocate a [Some]
   for every retained entry, and a list three words per dropped one. *)
let invalidate_region t region =
  match region with
  | Dacs_policy.Delta.Empty -> 0
  | Dacs_policy.Delta.Unbounded ->
    let n = Hashtbl.length t.table in
    Hashtbl.reset t.table;
    Queue.clear t.order;
    (match t.scans with Some s -> Intern.census_clear s.census | None -> ());
    t.purges <- t.purges + 1;
    n
  | Dacs_policy.Delta.Zones _ ->
    t.purges <- t.purges + 1;
    let region = Intern.compile_region region in
    let s =
      match t.scans with
      | Some s -> s
      | None ->
        let s = { census = Intern.census (); count = 0; doomed = [||] } in
        t.scans <- Some s;
        s
    in
    if Intern.census_misses s.census region ~live:(Hashtbl.length t.table) then 0
    else begin
      s.count <- s.count + 1;
      Intern.census_track s.census region;
      let n = ref 0 in
      Hashtbl.iter
        (fun key _ ->
          if Intern.census_in_region s.census region key then begin
            push_doomed s !n key;
            incr n
          end)
        t.table;
      for i = 0 to !n - 1 do
        remove t s.doomed.(i);
        s.doomed.(i) <- ""
      done;
      !n
    end

let size t = Hashtbl.length t.table

let fold_live t ~now f acc =
  Hashtbl.fold (fun key e acc -> if now < e.expires then f key acc else acc) t.table acc

let stats t =
  let v = Metrics.counter_value in
  let c = t.counters in
  {
    hits = v c.c_hits;
    misses = v c.c_misses;
    expiries = v c.c_expiries;
    evictions = v c.c_evictions;
    stale_hits = v c.c_stale_hits;
  }

let request_key ctx =
  (* Environment attributes (notably the current time) are excluded: a
     key that changes every request would never hit.  The price is that a
     cached decision ignores environment-sensitive conditions for one
     TTL — part of the staleness trade the experiments measure. *)
  Intern.request_key ctx
