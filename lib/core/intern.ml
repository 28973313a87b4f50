module Context = Dacs_policy.Context
module Value = Dacs_policy.Value

type sym = int

type t = {
  strings : (string, int) Hashtbl.t;
  mutable n_strings : int;
  (* One string-keyed table per category: an attribute position resolves
     in a single probe, and the hit path allocates nothing (lookups go
     through Hashtbl.find, not find_opt). *)
  pairs_by_category : (string, int) Hashtbl.t array;
  mutable n_pairs : int;
  (* structural value -> dense value sym *)
  values : (Value.t, int) Hashtbl.t;
  mutable n_values : int;
  (* (pair sym | value sym) -> dense atom sym *)
  atoms : (int, int) Hashtbl.t;
  mutable n_atoms : int;
  (* Reverse tables, one slot per dense sym, so region invalidation can
     read a packed cache key's atoms in place and a key can be decoded
     back into attribute bags: pair sym -> (category code, attribute id);
     value sym -> the typed value; atom sym -> the packed (pair | value)
     word. *)
  mutable pair_infos : (int * string) array;
  mutable value_of : Value.t array;
  mutable atom_packs : int array;
  (* reusable scratch for key building: atom syms of the request in hand,
     [keyed] of them *)
  mutable scratch : int array;
  mutable keyed : int;
  buf : Buffer.t;
}

let create ?(expected = 1024) () =
  let expected = max 16 (min expected (1 lsl 20)) in
  {
    strings = Hashtbl.create expected;
    n_strings = 0;
    pairs_by_category = Array.init 4 (fun _ -> Hashtbl.create (max 16 (expected / 16)));
    n_pairs = 0;
    values = Hashtbl.create expected;
    n_values = 0;
    atoms = Hashtbl.create expected;
    n_atoms = 0;
    pair_infos = Array.make 16 (0, "");
    value_of = Array.make 16 (Value.String "");
    atom_packs = Array.make 16 0;
    scratch = Array.make 16 0;
    keyed = 0;
    buf = Buffer.create 64;
  }

(* Append [x] at [sym] in a growable dense array. *)
let slot_set get set t sym x =
  let a = get t in
  if sym >= Array.length a then begin
    let bigger = Array.make (2 * Array.length a) a.(0) in
    Array.blit a 0 bigger 0 sym;
    set t bigger
  end;
  (get t).(sym) <- x

(* Sized for a million-user vocabulary's early doublings: large enough
   that the first ~64k symbols never rehash, small enough to allocate in
   every process (tests included) without ceremony. *)
let global = create ~expected:(1 lsl 16) ()

let string t s =
  match Hashtbl.find t.strings s with
  | sym -> sym
  | exception Not_found ->
    let sym = t.n_strings in
    Hashtbl.add t.strings s sym;
    t.n_strings <- sym + 1;
    sym

let value t v =
  match Hashtbl.find t.values v with
  | sym -> sym
  | exception Not_found ->
    let sym = t.n_values in
    Hashtbl.add t.values v sym;
    slot_set (fun t -> t.value_of) (fun t a -> t.value_of <- a) t sym v;
    t.n_values <- sym + 1;
    sym

let category_code = function
  | Context.Subject -> 0
  | Context.Resource -> 1
  | Context.Action -> 2
  | Context.Environment -> 3

let pair t category id =
  let table = t.pairs_by_category.(category_code category) in
  match Hashtbl.find table id with
  | sym -> sym
  | exception Not_found ->
    let sym = t.n_pairs in
    Hashtbl.add table id sym;
    slot_set
      (fun t -> t.pair_infos)
      (fun t a -> t.pair_infos <- a)
      t sym
      (category_code category, id);
    t.n_pairs <- sym + 1;
    sym

let find_pair t category id = Hashtbl.find_opt t.pairs_by_category.(category_code category) id

let pack2 a b = (a lsl 31) lor b

let atom t ~pair ~value =
  let key = pack2 pair value in
  match Hashtbl.find t.atoms key with
  | sym -> sym
  | exception Not_found ->
    let sym = t.n_atoms in
    Hashtbl.add t.atoms key sym;
    slot_set (fun t -> t.atom_packs) (fun t a -> t.atom_packs <- a) t sym key;
    t.n_atoms <- sym + 1;
    sym

(* Decimal writer without the intermediate string_of_int allocation. *)
let rec add_decimal buf x =
  if x >= 10 then add_decimal buf (x / 10);
  Buffer.add_char buf (Char.chr (Char.code '0' + (x mod 10)))

(* Appends the atom syms of one bag to the scratch of the key being
   built. *)
let rec add_atoms t p = function
  | [] -> ()
  | v :: rest ->
    let n = t.keyed in
    if n >= Array.length t.scratch then begin
      let bigger = Array.make (2 * Array.length t.scratch) 0 in
      Array.blit t.scratch 0 bigger 0 n;
      t.scratch <- bigger
    end;
    t.scratch.(n) <- atom t ~pair:p ~value:(value t v);
    t.keyed <- n + 1;
    add_atoms t p rest

let add_bag category id bag t =
  (match category with
  | Context.Environment -> ()
  | Context.Subject | Context.Resource | Context.Action -> add_atoms t (pair t category id) bag);
  t

(* The fold carries the table itself, so it captures nothing: a key
   allocates only its string. *)
let request_key ?(table = global) ctx =
  table.keyed <- 0;
  let t = Context.fold add_bag ctx table in
  let n = t.keyed in
  (* Insertion sort: the canonical form must not depend on bag order, and
     requests carry a handful of atoms, where this beats Array.sort. *)
  let a = t.scratch in
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  Buffer.clear t.buf;
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char t.buf '.';
    add_decimal t.buf a.(i)
  done;
  Buffer.contents t.buf

(* --- reverse lookups ----------------------------------------------------- *)

let category_of_code = function
  | 0 -> Context.Subject
  | 1 -> Context.Resource
  | 2 -> Context.Action
  | 3 -> Context.Environment
  | c -> invalid_arg (Printf.sprintf "Intern.category_of_code: %d" c)

let pair_info t sym =
  if sym < 0 || sym >= t.n_pairs then invalid_arg "Intern.pair_info: unknown sym"
  else
    let code, id = t.pair_infos.(sym) in
    (category_of_code code, id)

let value_of t sym =
  if sym < 0 || sym >= t.n_values then invalid_arg "Intern.value_of: unknown sym"
  else t.value_of.(sym)

let atom_info t sym =
  if sym < 0 || sym >= t.n_atoms then invalid_arg "Intern.atom_info: unknown sym"
  else
    let key = t.atom_packs.(sym) in
    (key lsr 31, key land ((1 lsl 31) - 1))

(* Parse dot-separated decimal segments; None on any segment that is not
   a short plain decimal naming a minted atom, so a digest or a corrupted
   key a peer put into a shared L2 is rejected rather than misread. *)
let decode_key ?(table = global) key =
  let t = table in
  let n = String.length key in
  let ctx = ref Context.empty in
  let rec atom_at start i acc =
    if i = n || key.[i] = '.' then
      if i = start || acc < 0 || acc >= t.n_atoms then None
      else begin
        let pair_sym, value_sym = atom_info t acc in
        let category, id = pair_info t pair_sym in
        ctx := Context.add !ctx category id (value_of t value_sym);
        if i = n then Some !ctx else atom_at (i + 1) (i + 1) 0
      end
    else
      match key.[i] with
      | '0' .. '9' when i - start < 10 ->
        atom_at start (i + 1) ((acc * 10) + (Char.code key.[i] - Char.code '0'))
      | _ -> None
  in
  if n = 0 then Some Context.empty else atom_at 0 0 0

(* --- region tests -------------------------------------------------------- *)

(* One Delta pin over syms: the guard pairs, the pinned pair and the value
   syms of its allowed strings. *)
type region_pin = { guards : int array; pinned : int; allowed : int array }

(* The packed (pair | value) words of the key in hand, grown only for a
   key longer than any before it. *)
type key_packs = { mutable words : int array }

type region = {
  table : t;
  (* A key is in the region when some zone has no excluding pin; an empty
     zone covers every key. *)
  zones : region_pin array array;
  key : key_packs;
}

let compile_region ?(table = global) (region : Dacs_policy.Delta.t) =
  let t = table in
  (* A pin whose pinned or guard pair was never interned reads an empty
     bag in every key, so it can never exclude: drop it.  A value that
     was never interned is in no key: drop it from the allowed set. *)
  let compile_pin (pin : Dacs_policy.Delta.pin) =
    let guards = List.map (fun (c, a) -> find_pair t c a) pin.pin_guards in
    match find_pair t pin.pin_category pin.pin_attribute with
    | Some pinned when List.for_all Option.is_some guards ->
      Some
        {
          guards = Array.of_list (List.filter_map Fun.id guards);
          pinned;
          allowed =
            Array.of_list
              (List.filter_map (fun v -> Hashtbl.find_opt t.values (Value.String v)) pin.pin_values);
        }
    | _ -> None
  in
  let zones =
    match region with
    | Dacs_policy.Delta.Empty -> [||]
    | Dacs_policy.Delta.Unbounded -> [| [||] |]
    | Dacs_policy.Delta.Zones zs ->
      Array.of_list (List.map (fun z -> Array.of_list (List.filter_map compile_pin z)) zs)
  in
  { table = t; zones; key = { words = Array.make 16 0 } }

(* The per-key test allocates nothing: every loop below is a top-level
   function over explicit arguments, so no closure is built per key. *)

let push_pack k i pack =
  if i >= Array.length k.words then begin
    let bigger = Array.make (2 * Array.length k.words) 0 in
    Array.blit k.words 0 bigger 0 i;
    k.words <- bigger
  end;
  k.words.(i) <- pack

(* Parse [key] under exactly decode_key's grammar, storing each atom's
   packed word in [k.words]; the atom count, or -1 where decode_key
   answers None. *)
let rec parse_atoms t k key n start i acc count =
  if i = n || key.[i] = '.' then
    if i = start || acc >= t.n_atoms then -1
    else begin
      push_pack k count t.atom_packs.(acc);
      if i = n then count + 1 else parse_atoms t k key n (i + 1) (i + 1) 0 (count + 1)
    end
  else
    match key.[i] with
    | '0' .. '9' when i - start < 10 ->
      parse_atoms t k key n start (i + 1) ((acc * 10) + (Char.code key.[i] - Char.code '0')) count
    | _ -> -1

let parse_key t k key =
  let n = String.length key in
  if n = 0 then 0 else parse_atoms t k key n 0 0 0 0

let value_mask = (1 lsl 31) - 1

let is_string t v = match t.value_of.(v) with Value.String _ -> true | _ -> false

let rec mem_sym x a i = i < Array.length a && (a.(i) = x || mem_sym x a (i + 1))

(* Target.guards_clean for one position: some atom sits at [pair] and
   every atom there carries a string. *)
let rec clean_at t packs n pair i seen =
  if i = n then seen
  else
    let pack = packs.(i) in
    if pack lsr 31 <> pair then clean_at t packs n pair (i + 1) seen
    else is_string t (pack land value_mask) && clean_at t packs n pair (i + 1) true

(* Target.clean plus disjointness: the pinned bag is non-empty,
   all-string, and holds none of the allowed values. *)
let rec disjoint_at t packs n pin i seen =
  if i = n then seen
  else
    let pack = packs.(i) in
    if pack lsr 31 <> pin.pinned then disjoint_at t packs n pin (i + 1) seen
    else
      let v = pack land value_mask in
      is_string t v && (not (mem_sym v pin.allowed 0)) && disjoint_at t packs n pin (i + 1) true

let rec guards_clean t packs n guards g =
  g = Array.length guards
  || (clean_at t packs n guards.(g) 0 false && guards_clean t packs n guards (g + 1))

let pin_excludes t packs n pin =
  guards_clean t packs n pin.guards 0 && disjoint_at t packs n pin 0 false

let rec zone_covers t packs n zone p =
  p = Array.length zone
  || ((not (pin_excludes t packs n zone.(p))) && zone_covers t packs n zone (p + 1))

let rec zones_cover t packs n zones z =
  z < Array.length zones
  && (zone_covers t packs n zones.(z) 0 || zones_cover t packs n zones (z + 1))

(* The one membership test, on a key already parsed into [packs]. *)
let covers_parsed r packs count = count < 0 || zones_cover r.table packs count r.zones 0

(* --- region census ------------------------------------------------------- *)

(* Packed (pair | value) words, hashed by folding the pair onto the value
   bits; no polymorphic compare or C hash per probe. *)
module Packs = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x lxor (x lsr 31)
end)

(* What the census counts, over the live keys it has read: per tracked
   pair, the keys whose bag there is non-empty and all-string; per
   (pair | value) word of a tracked pair, the atoms that carry it.  A
   tracked pair's [clean] slot is its count; an untracked one's is -1.
   Keys are read against [global], the table cache keys are built in. *)
type census = {
  ckey : key_packs;
  mutable clean : int array;
  mutable tracked : int;
  carried : int ref Packs.t;
  (* Live keys the census could not parse when it met them (an atom id
     not yet minted).  They were counted nowhere, so their removal
     decrements nothing, and while one is live the census proves
     nothing. *)
  unread : (string, unit) Hashtbl.t;
  (* The pairs the scan in progress started tracking. *)
  mutable fresh : int array;
}

let census () =
  {
    ckey = { words = Array.make 16 0 };
    clean = [||];
    tracked = 0;
    carried = Packs.create 16;
    unread = Hashtbl.create 1;
    fresh = [||];
  }

let is_tracked c pair = pair < Array.length c.clean && c.clean.(pair) >= 0

(* Whether no atom before [i] sits at [pair]: each key counts once per
   pair in [clean], however many values its bag there holds. *)
let rec first_at packs pair i j =
  j >= i || (packs.(j) lsr 31 <> pair && first_at packs pair i (j + 1))

let bump c pack d =
  match Packs.find c.carried pack with
  | r -> r := !r + d
  | exception Not_found -> Packs.add c.carried pack (ref d)

(* Adds [d] to the counts of one parsed key: over every tracked pair, or
   only over the pairs the scan in progress started tracking. *)
let rec tally c packs n only_fresh d i =
  if i < n then begin
    let pack = packs.(i) in
    let pair = pack lsr 31 in
    if if only_fresh then mem_sym pair c.fresh 0 else is_tracked c pair then begin
      bump c pack d;
      if first_at packs pair i 0 && clean_at global packs n pair 0 false then
        c.clean.(pair) <- c.clean.(pair) + d
    end;
    tally c packs n only_fresh d (i + 1)
  end

let is_unread c key = Hashtbl.length c.unread > 0 && Hashtbl.mem c.unread key

let census_add c key =
  if c.tracked > 0 then begin
    let count = parse_key global c.ckey key in
    if count < 0 then Hashtbl.replace c.unread key () else tally c c.ckey.words count false 1 0
  end

let census_remove c key =
  if c.tracked > 0 then
    if is_unread c key then Hashtbl.remove c.unread key
    else
      let count = parse_key global c.ckey key in
      if count >= 0 then tally c c.ckey.words count false (-1) 0

let census_clear c =
  Array.iteri (fun pair k -> if k > 0 then c.clean.(pair) <- 0) c.clean;
  Packs.iter (fun _ r -> r := 0) c.carried;
  Hashtbl.reset c.unread

(* A tracked pair every live key is clean at. *)
let full c live pair = pair < Array.length c.clean && c.clean.(pair) = live

let rec all_full c live pairs i =
  i = Array.length pairs || (full c live pairs.(i) && all_full c live pairs (i + 1))

let carried c pack = match Packs.find c.carried pack with r -> !r > 0 | exception Not_found -> false

let rec none_carried c pinned allowed i =
  i = Array.length allowed
  || ((not (carried c (pack2 pinned allowed.(i)))) && none_carried c pinned allowed (i + 1))

(* pin_excludes, for every live key at once. *)
let pin_misses c live pin =
  all_full c live pin.guards 0 && full c live pin.pinned && none_carried c pin.pinned pin.allowed 0

let rec zone_missed c live zone p =
  p < Array.length zone && (pin_misses c live zone.(p) || zone_missed c live zone (p + 1))

let rec zones_missed c live zones z =
  z = Array.length zones || (zone_missed c live zones.(z) 0 && zones_missed c live zones (z + 1))

let census_misses c r ~live =
  c.tracked > 0 && Hashtbl.length c.unread = 0 && zones_missed c live r.zones 0

let census_track c r =
  let fresh = ref [] in
  let track pair =
    if not (is_tracked c pair) then begin
      if pair >= Array.length c.clean then begin
        let bigger = Array.make (max 16 (2 * (pair + 1))) (-1) in
        Array.blit c.clean 0 bigger 0 (Array.length c.clean);
        c.clean <- bigger
      end;
      c.clean.(pair) <- 0;
      c.tracked <- c.tracked + 1;
      fresh := pair :: !fresh
    end
  in
  Array.iter (Array.iter (fun pin -> Array.iter track pin.guards; track pin.pinned)) r.zones;
  c.fresh <- Array.of_list !fresh

let census_in_region c r key =
  let count = parse_key global c.ckey key in
  if Array.length c.fresh > 0 then begin
    if count < 0 then Hashtbl.replace c.unread key ()
    else if not (is_unread c key) then tally c c.ckey.words count true 1 0
  end;
  covers_parsed r c.ckey.words count

type stats = { strings : int; pairs : int; values : int; atoms : int }

let stats t =
  { strings = t.n_strings; pairs = t.n_pairs; values = t.n_values; atoms = t.n_atoms }
