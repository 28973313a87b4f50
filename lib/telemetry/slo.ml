(* Rolling-window SLO accounting.  Decisions land in fixed-width time
   slices of the virtual clock; a status sums the slices inside the
   window, so old traffic ages out deterministically as time advances. *)

type objective = {
  availability_target : float;
  latency_threshold : float;
  latency_target : float;
  window : float;
}

let objective =
  { availability_target = 0.999; latency_threshold = 0.25; latency_target = 0.99; window = 60.0 }

let slices = 60

type slice = { mutable id : int; mutable total : int; mutable ok : int; mutable fast : int }

type t = { now : unit -> float; ring : slice array }

let create ~now () = { now; ring = Array.init slices (fun _ -> { id = -1; total = 0; ok = 0; fast = 0 }) }

(* seconds of virtual time per slice *)
let width = objective.window /. float_of_int slices

let slice_id at = int_of_float (Float.floor (at /. width))

let slice_at t at =
  let id = slice_id at in
  let s = t.ring.(id mod slices) in
  if s.id <> id then begin
    s.id <- id;
    s.total <- 0;
    s.ok <- 0;
    s.fast <- 0
  end;
  s

let record t ~ok ~latency =
  let s = slice_at t (t.now ()) in
  s.total <- s.total + 1;
  if ok then s.ok <- s.ok + 1;
  if latency <= objective.latency_threshold then s.fast <- s.fast + 1

type status = {
  at : float;
  total : int;
  ok : int;
  fast : int;
  availability : float;
  latency_compliance : float;
  availability_burn : float;
  latency_burn : float;
  availability_met : bool;
  latency_met : bool;
}

(* Burn rate: error rate as a multiple of the error budget.  1.0 means
   errors arrive exactly as fast as the objective tolerates; above 1.0
   the budget is being exhausted. *)
let burn ~rate ~target = (1.0 -. rate) /. (1.0 -. target)

let status t =
  let at = t.now () in
  let newest = slice_id at in
  let oldest = newest - slices + 1 in
  let total = ref 0 and ok = ref 0 and fast = ref 0 in
  Array.iter
    (fun s ->
      if s.id >= oldest && s.id <= newest then begin
        total := !total + s.total;
        ok := !ok + s.ok;
        fast := !fast + s.fast
      end)
    t.ring;
  let ratio num = if !total = 0 then 1.0 else float_of_int num /. float_of_int !total in
  let availability = ratio !ok in
  let latency_compliance = ratio !fast in
  {
    at;
    total = !total;
    ok = !ok;
    fast = !fast;
    availability;
    latency_compliance;
    availability_burn = burn ~rate:availability ~target:objective.availability_target;
    latency_burn = burn ~rate:latency_compliance ~target:objective.latency_target;
    availability_met = availability >= objective.availability_target;
    latency_met = latency_compliance >= objective.latency_target;
  }
