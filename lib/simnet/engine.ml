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

(* Files [action] under the time already written in slot [t.size], so
   neither entry point passes the time on as a boxed float. *)
let push t action =
  let i = t.size in
  t.seqs.(i) <- t.next_seq;
  t.actions.(i) <- action;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let schedule_at t ~at action =
  if at < t.clock then invalid_arg "Engine.schedule_at: time is in the past";
  if t.size = Array.length t.times then grow t;
  t.times.(t.size) <- at;
  push t action

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  if t.size = Array.length t.times then grow t;
  t.times.(t.size) <- t.clock +. delay;
  push t action

(* Removes the earliest event, advances the clock to it and runs it. *)
let run_first t =
  let action = t.actions.(0) in
  t.clock <- t.times.(0);
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
