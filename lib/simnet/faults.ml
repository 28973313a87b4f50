type window = { from_ : float; until_ : float }

type spec =
  | Latency_spike of { a : Net.node_id; b : Net.node_id; latency : float; window : window }
  | Drop_burst of { rate : float; window : window }
  | Crash_restart of { node : Net.node_id; at : float; restart : float option }
  | Flapping_partition of {
      group_a : Net.node_id list;
      group_b : Net.node_id list;
      period : float;
      window : window;
    }
  | Slow_node of { node : Net.node_id; extra : float; window : window }

let describe = function
  | Latency_spike { a; b; latency; window } ->
    Printf.sprintf "latency-spike %s<->%s to %.3fs during [%.2f,%.2f]" a b latency window.from_
      window.until_
  | Drop_burst { rate; window } ->
    Printf.sprintf "drop-burst p=%.2f during [%.2f,%.2f]" rate window.from_ window.until_
  | Crash_restart { node; at; restart } ->
    Printf.sprintf "crash %s at %.2f%s" node at
      (match restart with None -> " (no restart)" | Some r -> Printf.sprintf ", restart at %.2f" r)
  | Flapping_partition { group_a; group_b; period; window } ->
    Printf.sprintf "flapping-partition {%s}|{%s} period %.2fs during [%.2f,%.2f]"
      (String.concat "," group_a) (String.concat "," group_b) period window.from_ window.until_
  | Slow_node { node; extra; window } ->
    Printf.sprintf "slow-node %s +%.3fs during [%.2f,%.2f]" node extra window.from_ window.until_

let validate spec =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  let check_window w ctx =
    if w.until_ <= w.from_ || w.from_ < 0.0 then
      bad "Faults: %s window [%.2f,%.2f] is empty or negative" ctx w.from_ w.until_
  in
  match spec with
  | Latency_spike { latency; window; _ } ->
    check_window window "latency-spike";
    if latency < 0.0 then bad "Faults: negative spike latency"
  | Drop_burst { rate; window } ->
    check_window window "drop-burst";
    if rate < 0.0 || rate > 1.0 then bad "Faults: drop rate %.2f outside [0,1]" rate
  | Crash_restart { at; restart; _ } ->
    if at < 0.0 then bad "Faults: crash time is negative";
    (match restart with
    | Some r when r <= at -> bad "Faults: restart %.2f not after crash %.2f" r at
    | Some _ | None -> ())
  | Flapping_partition { period; window; _ } ->
    check_window window "flapping-partition";
    if period <= 0.0 then bad "Faults: flap period must be positive"
  | Slow_node { extra; window; _ } ->
    check_window window "slow-node";
    if extra < 0.0 then bad "Faults: negative slow-node delay"

(* Fire [f] at absolute time [at], immediately if [at] is already past —
   lets a schedule be applied to a network whose clock has advanced. *)
let at_time net ~at f =
  let engine = Net.engine net in
  if at <= Engine.now engine then f () else Engine.schedule_at engine ~at f

(* Overlapping windows of one fault class must compose, not fight: a naive
   save-at-open/restore-at-close leaves the *first* fault's value behind
   forever when windows interleave (open A, open B, close A, close B
   restores B's snapshot of A's fault).  So [apply] keeps one composition
   state per resource — link, global drop rate, node liveness — capturing
   the pre-fault baseline the first time a fault touches it and
   recomputing the effective value at every window edge.  With all
   windows closed, every resource is provably back at its baseline. *)

type link_comp = {
  lc_base : float option;  (* override in place before any fault *)
  lc_base_latency : float;  (* effective latency before any fault *)
  mutable lc_spikes : float list;
  mutable lc_extras : float list;
}

let remove_one x xs =
  let rec go = function [] -> [] | y :: rest -> if y = x then rest else y :: go rest in
  go xs

let apply net specs =
  List.iter validate specs;
  (* Per-link state: a spike pins the latency (highest active spike wins),
     slow-node extras add on top, and an untouched link shows its
     baseline. *)
  let links = Hashtbl.create 8 in
  let link a b =
    let key = if a <= b then (a, b) else (b, a) in
    match Hashtbl.find_opt links key with
    | Some c -> c
    | None ->
      let c =
        {
          lc_base = Net.latency_override net a b;
          lc_base_latency = Net.latency net a b;
          lc_spikes = [];
          lc_extras = [];
        }
      in
      Hashtbl.replace links key c;
      c
  in
  let recompute_link a b =
    let c = link a b in
    match (c.lc_spikes, c.lc_extras) with
    | [], [] -> (
      match c.lc_base with
      | Some l -> Net.set_latency net a b l
      | None -> Net.clear_latency net a b)
    | spikes, extras ->
      let pinned =
        match spikes with
        | [] -> c.lc_base_latency
        | s :: rest -> List.fold_left Float.max s rest
      in
      Net.set_latency net a b (pinned +. List.fold_left ( +. ) 0.0 extras)
  in
  (* Global drop rate: the harshest active burst wins. *)
  let base_drop = ref None in
  let bursts = ref [] in
  let recompute_drop () =
    match !bursts with
    | [] -> Net.set_drop_rate net (Option.value !base_drop ~default:0.0)
    | rs -> Net.set_drop_rate net (List.fold_left Float.max 0.0 rs)
  in
  (* Node liveness: recover only once every crash window has closed. *)
  let crash_depth = Hashtbl.create 4 in
  let apply_one spec =
    match spec with
    | Latency_spike { a; b; latency; window } ->
      at_time net ~at:window.from_ (fun () ->
          let c = link a b in
          c.lc_spikes <- latency :: c.lc_spikes;
          recompute_link a b);
      at_time net ~at:window.until_ (fun () ->
          let c = link a b in
          c.lc_spikes <- remove_one latency c.lc_spikes;
          recompute_link a b)
    | Drop_burst { rate; window } ->
      at_time net ~at:window.from_ (fun () ->
          if !base_drop = None then base_drop := Some (Net.drop_rate net);
          bursts := rate :: !bursts;
          recompute_drop ());
      at_time net ~at:window.until_ (fun () ->
          bursts := remove_one rate !bursts;
          recompute_drop ())
    | Crash_restart { node; at; restart } ->
      at_time net ~at (fun () ->
          if Net.has_node net node then begin
            let depth = Option.value (Hashtbl.find_opt crash_depth node) ~default:0 in
            Hashtbl.replace crash_depth node (depth + 1);
            Net.crash net node
          end);
      Option.iter
        (fun r ->
          at_time net ~at:r (fun () ->
              if Net.has_node net node then begin
                let depth = Option.value (Hashtbl.find_opt crash_depth node) ~default:1 in
                Hashtbl.replace crash_depth node (depth - 1);
                if depth <= 1 then Net.recover net node
              end))
        restart
    | Flapping_partition { group_a; group_b; period; window } ->
      let rec flip cut at =
        if at < window.until_ then
          at_time net ~at (fun () ->
              if cut then Net.partition net group_a group_b
              else Net.unpartition net group_a group_b;
              flip (not cut) (at +. period))
      in
      flip true window.from_;
      at_time net ~at:window.until_ (fun () -> Net.unpartition net group_a group_b)
    | Slow_node { node; extra; window } ->
      (* Peers resolved at window open so late-added nodes are covered. *)
      at_time net ~at:window.from_ (fun () ->
          List.iter
            (fun p ->
              if p <> node then begin
                let c = link node p in
                c.lc_extras <- extra :: c.lc_extras;
                recompute_link node p
              end)
            (Net.nodes net));
      at_time net ~at:window.until_ (fun () ->
          List.iter
            (fun p ->
              if p <> node then begin
                let c = link node p in
                if List.mem extra c.lc_extras then begin
                  c.lc_extras <- remove_one extra c.lc_extras;
                  recompute_link node p
                end
              end)
            (Net.nodes net))
  in
  List.iter apply_one specs

let clears_by specs =
  List.fold_left
    (fun acc spec ->
      let upper =
        match spec with
        | Latency_spike { window; _ }
        | Drop_burst { window; _ }
        | Flapping_partition { window; _ }
        | Slow_node { window; _ } -> Some window.until_
        | Crash_restart { restart; _ } -> restart
      in
      match (acc, upper) with
      | None, _ | _, None -> None
      | Some a, Some u -> Some (Float.max a u))
    (Some 0.0) specs

let random_schedule ~rng ~nodes ~horizon =
  if nodes = [] then invalid_arg "Faults.random_schedule: no nodes";
  if horizon <= 0.0 then invalid_arg "Faults.random_schedule: horizon must be positive";
  let module Rng = Dacs_crypto.Rng in
  let pick () = Rng.pick rng nodes in
  let window () =
    let from_ = Rng.float rng (horizon *. 0.6) in
    let until_ = from_ +. 0.05 +. Rng.float rng (horizon *. 0.3) in
    { from_; until_ }
  in
  let n = 1 + Rng.int rng 5 in
  List.init n (fun _ ->
      match Rng.int rng 5 with
      | 0 -> Latency_spike { a = pick (); b = pick (); latency = Rng.float rng 3.0; window = window () }
      | 1 -> Drop_burst { rate = 0.2 +. Rng.float rng 0.7; window = window () }
      | 2 ->
        let at = Rng.float rng (horizon *. 0.6) in
        Crash_restart { node = pick (); at; restart = Some (at +. 0.05 +. Rng.float rng (horizon *. 0.3)) }
      | 3 ->
        Flapping_partition
          {
            group_a = [ pick () ];
            group_b = [ pick () ];
            period = 0.1 +. Rng.float rng 0.5;
            window = window ();
          }
      | _ -> Slow_node { node = pick (); extra = 0.2 +. Rng.float rng 2.0; window = window () })
