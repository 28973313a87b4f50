(* A binary min-heap of events ordered by (time, seq), kept as three
   parallel arrays: scheduling an event stores its time unboxed, its
   sequence number and its action in place, and running it reads them
   back, so neither allocates anything beyond the action itself. *)
type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable actions : (unit -> unit) array;
  mutable size : int;
  rng : Dacs_crypto.Rng.t;
}

let initial_capacity = 64

let create ?(seed = 1L) () =
  {
    clock = 0.0;
    next_seq = 0;
    times = Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    actions = Array.make initial_capacity ignore;
    size = 0;
    rng = Dacs_crypto.Rng.create seed;
  }

let now t = t.clock
let rng t = t.rng

(* Whether slot [i] runs before slot [j]. *)
let before t i j =
  let ti = Array.unsafe_get t.times i and tj = Array.unsafe_get t.times j in
  ti < tj || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let swap t i j =
  let tm = t.times.(i) and sq = t.seqs.(i) and ac = t.actions.(i) in
  t.times.(i) <- t.times.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.actions.(i) <- t.actions.(j);
  t.times.(j) <- tm;
  t.seqs.(j) <- sq;
  t.actions.(j) <- ac

let grow t =
  let n = Array.length t.times in
  let times = Array.make (2 * n) 0.0 and seqs = Array.make (2 * n) 0 in
  let actions = Array.make (2 * n) ignore in
  Array.blit t.times 0 times 0 n;
  Array.blit t.seqs 0 seqs 0 n;
  Array.blit t.actions 0 actions 0 n;
  t.times <- times;
  t.seqs <- seqs;
  t.actions <- actions

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && before t l i then l else i in
  let smallest = if r < t.size && before t r smallest then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

(* Files [action] under the time already written in slot [t.size] and
   the sequence number [seq], so no entry point passes the time on as a
   boxed float. *)
let push_seq t seq action =
  let i = t.size in
  t.seqs.(i) <- seq;
  t.actions.(i) <- action;
  t.size <- i + 1;
  sift_up t i

let push t action =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push_seq t seq action

(* Written as [not (x >= y)] so that a NaN is refused too. *)
let schedule_at t ~at action =
  if not (at >= t.clock) then invalid_arg "Engine.schedule_at: time is in the past or NaN";
  if t.size = Array.length t.times then grow t;
  t.times.(t.size) <- at;
  push t action

let schedule t ~delay action =
  if not (delay >= 0.0) then invalid_arg "Engine.schedule: negative or NaN delay";
  if t.size = Array.length t.times then grow t;
  t.times.(t.size) <- t.clock +. delay;
  push t action

(* Removes the earliest event, advances the clock to it and runs it.
   The clock is a boxed field: an event at the current instant (a
   same-instant flush, simultaneous deliveries) leaves it as it is
   rather than box the same time again. *)
let run_first t =
  let action = t.actions.(0) in
  let at = t.times.(0) in
  if at <> t.clock then t.clock <- at;
  let last = t.size - 1 in
  t.size <- last;
  t.times.(0) <- t.times.(last);
  t.seqs.(0) <- t.seqs.(last);
  t.actions.(0) <- t.actions.(last);
  t.actions.(last) <- ignore;
  sift_down t 0;
  action ()

let step t =
  if t.size = 0 then false
  else begin
    run_first t;
    true
  end

let run ?until t =
  match until with
  | None ->
    while t.size > 0 do
      run_first t
    done
  | Some limit ->
    let continue = ref true in
    while !continue do
      if t.size = 0 then continue := false
      else if t.times.(0) > limit then begin
        t.clock <- limit;
        continue := false
      end
      else run_first t
    done

let pending t = t.size

(* A ring of [(at, seq, id)] in firing order, of which only the head has
   an event in the heap, filed under the head's own [(at, seq)].  Every
   timer of one class has the same delay and the clock never goes back,
   so the ring is sorted by [(at, seq)] as it is filled: a timer whose
   sequence number is taken when it is added, and whose event is filed
   under that number when it reaches the head, fires in exactly the
   slot an event scheduled when it was added would have fired in. *)
module Deadlines = struct
  type engine = t

  type t = {
    engine : engine;
    delay : float;
    live : int -> bool;
    fire : int -> unit;
    mutable ats : float array;
    mutable seqs : int array;
    mutable ids : int array;
    mutable head : int;  (* the ring's first slot; the capacity is a power of two *)
    mutable count : int;
    mutable wake : unit -> unit;  (* the head's heap action, built once *)
  }

  let capacity = 16

  (* Reads the head's time out of the ring straight into the heap, so
     arming boxes nothing. *)
  let arm d =
    let e = d.engine in
    if e.size = Array.length e.times then grow e;
    e.times.(e.size) <- d.ats.(d.head);
    push_seq e d.seqs.(d.head) d.wake

  (* Pops the head, then drops the dead timers behind it — never the
     last one, whose event is what keeps the clock going to the
     latest deadline — and re-arms before firing, so a timer the
     firing adds is filed behind the new head. *)
  let wake d () =
    let mask = Array.length d.ids - 1 in
    let id = d.ids.(d.head) in
    d.head <- (d.head + 1) land mask;
    d.count <- d.count - 1;
    while d.count > 1 && not (d.live d.ids.(d.head)) do
      d.head <- (d.head + 1) land mask;
      d.count <- d.count - 1
    done;
    if d.count > 0 then arm d;
    d.fire id

  let create engine ~delay ~live ~fire =
    if not (delay >= 0.0) then invalid_arg "Engine.Deadlines.create: negative or NaN delay";
    let d =
      {
        engine;
        delay;
        live;
        fire;
        ats = Array.make capacity 0.0;
        seqs = Array.make capacity 0;
        ids = Array.make capacity 0;
        head = 0;
        count = 0;
        wake = ignore;
      }
    in
    d.wake <- wake d;
    d

  (* Unrolls the ring from its head into arrays twice its size. *)
  let grow_ring d =
    let n = Array.length d.ids in
    let ats = Array.make (2 * n) 0.0 and seqs = Array.make (2 * n) 0 and ids = Array.make (2 * n) 0 in
    for k = 0 to n - 1 do
      let i = (d.head + k) land (n - 1) in
      ats.(k) <- d.ats.(i);
      seqs.(k) <- d.seqs.(i);
      ids.(k) <- d.ids.(i)
    done;
    d.ats <- ats;
    d.seqs <- seqs;
    d.ids <- ids;
    d.head <- 0

  let add d id =
    if d.count = Array.length d.ids then grow_ring d;
    let e = d.engine in
    let i = (d.head + d.count) land (Array.length d.ids - 1) in
    d.ats.(i) <- e.clock +. d.delay;
    d.seqs.(i) <- e.next_seq;
    d.ids.(i) <- id;
    e.next_seq <- e.next_seq + 1;
    d.count <- d.count + 1;
    if d.count = 1 then arm d
end
