type stage =
  | L1
  | L2
  | Live
  | Stale
  | Offline
  | Fail_closed
  | Shed
  | Local
  | Capability

type t = {
  stage : stage;
  shard : string option;
  batch : int;
  coalesced : bool;
  failovers : int;
  retried : bool;
  breaker_tripped : bool;
  hedged : bool;
  l2_skipped : bool;
  stale_age : float;
  epoch : int;
  at : float;
  log_head : string option;
}

let make ?(epoch = 0) ~at stage =
  {
    stage;
    shard = None;
    batch = 0;
    coalesced = false;
    failovers = 0;
    retried = false;
    breaker_tripped = false;
    hedged = false;
    l2_skipped = false;
    stale_age = 0.0;
    epoch;
    at;
    log_head = None;
  }

let stage_count = 9

let stage_index = function
  | L1 -> 0
  | L2 -> 1
  | Live -> 2
  | Stale -> 3
  | Offline -> 4
  | Fail_closed -> 5
  | Shed -> 6
  | Local -> 7
  | Capability -> 8

let stage_name = function
  | L1 -> "l1"
  | L2 -> "l2"
  | Live -> "live"
  | Stale -> "stale"
  | Offline -> "offline"
  | Fail_closed -> "fail-closed"
  | Shed -> "shed"
  | Local -> "local"
  | Capability -> "capability"

let to_string p =
  let flags =
    List.filter_map
      (fun (on, name) -> if on then Some name else None)
      [
        (p.coalesced, "coalesced");
        (p.retried, "retried");
        (p.breaker_tripped, "breaker");
        (p.hedged, "hedged");
        (p.l2_skipped, "l2-skipped");
      ]
  in
  String.concat ""
    [
      "stage=" ^ stage_name p.stage;
      (match p.shard with None -> "" | Some s -> " shard=" ^ s);
      (if p.batch > 0 then Printf.sprintf " batch=%d" p.batch else "");
      (if p.failovers > 0 then Printf.sprintf " failovers=%d" p.failovers else "");
      (if p.stale_age > 0.0 then Printf.sprintf " stale_age=%.3fs" p.stale_age else "");
      (if p.epoch > 0 then Printf.sprintf " epoch=%d" p.epoch else "");
      (match p.log_head with None -> "" | Some h -> " log_head=" ^ h);
      (match flags with [] -> "" | fs -> " [" ^ String.concat "," fs ^ "]");
    ]

let to_json p =
  let json = Dacs_telemetry.Metrics.json_string in
  Printf.sprintf
    "{\"stage\":%s,\"shard\":%s,\"batch\":%d,\"coalesced\":%b,\"failovers\":%d,\"retried\":%b,\"breaker_tripped\":%b,\"hedged\":%b,\"l2_skipped\":%b,\"stale_age\":%g,\"epoch\":%d,\"at\":%g,\"log_head\":%s}"
    (json (stage_name p.stage))
    (match p.shard with None -> "null" | Some s -> json s)
    p.batch p.coalesced p.failovers p.retried p.breaker_tripped p.hedged p.l2_skipped p.stale_age p.epoch p.at
    (match p.log_head with None -> "null" | Some h -> json h)
