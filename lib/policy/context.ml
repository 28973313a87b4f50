module Xml = Dacs_xml.Xml

type category = Subject | Resource | Action | Environment

let category_name = function
  | Subject -> "Subject"
  | Resource -> "Resource"
  | Action -> "Action"
  | Environment -> "Environment"

let category_of_name = function
  | "Subject" -> Some Subject
  | "Resource" -> Some Resource
  | "Action" -> Some Action
  | "Environment" -> Some Environment
  | _ -> None

let all_categories = [ Subject; Resource; Action; Environment ]

(* A category's place in [all_categories], the order of its constructors. *)
let section_index = function Subject -> 0 | Resource -> 1 | Action -> 2 | Environment -> 3

(* The order [Stdlib.compare] gives on (category, id): category first, in
   declaration order, then id. *)
let compare_key c1 id1 c2 id2 =
  let c = Int.compare (section_index c1) (section_index c2) in
  if c <> 0 then c else String.compare id1 id2

type entry = { category : category; id : string; bag : Value.bag }

let compare_entry x y = compare_key x.category x.id y.category y.id

(* One entry per (category, id), sorted by [compare_key]: a lookup is a
   binary search that builds no key and no option. *)
type t = entry array

let empty = [||]

(* The index of the entry at (category, id), or [-1 - i] when absent and
   [i] is where it would go. *)
let rec find t category id lo hi =
  if lo >= hi then -1 - lo
  else
    let mid = (lo + hi) / 2 in
    let e = t.(mid) in
    let c = compare_key category id e.category e.id in
    if c = 0 then mid else if c < 0 then find t category id lo mid else find t category id (mid + 1) hi

let bag t category id =
  let i = find t category id 0 (Array.length t) in
  if i >= 0 then t.(i).bag else []

let add_bag t category id values =
  let i = find t category id 0 (Array.length t) in
  if i >= 0 then begin
    let t = Array.copy t in
    t.(i) <- { (t.(i)) with bag = t.(i).bag @ values };
    t
  end
  else begin
    let at = -1 - i in
    let n = Array.length t in
    Array.init (n + 1) (fun j ->
        if j < at then t.(j) else if j = at then { category; id; bag = values } else t.(j - 1))
  end

let add t category id value = add_bag t category id [ value ]

(* Stable insertion sort of [a] from index [i] on, [a.(0 .. i-1)]
   sorted: a request's few attributes sort in place, and sorted ones
   cost one comparison each. *)
let rec shift a e j =
  if j > 0 && compare_entry a.(j - 1) e > 0 then begin
    a.(j) <- a.(j - 1);
    shift a e (j - 1)
  end
  else a.(j) <- e

let rec insertion_sort a i =
  if i < Array.length a then begin
    shift a a.(i) i;
    insertion_sort a (i + 1)
  end

let rec fill a i = function
  | [] -> ()
  | e :: rest ->
    a.(i) <- e;
    fill a (i - 1) rest

(* The context holding [entries] (one value each, newest first), sorted
   stably, so a repeated id keeps its values in document order.  A
   context without repeated ids is the sorted array itself. *)
let of_rev_entries = function
  | [] -> empty
  | first :: _ as entries ->
    let n = List.length entries in
    let a = Array.make n first in
    fill a (n - 1) entries;
    insertion_sort a 1;
    let repeated = ref false in
    for i = 1 to n - 1 do
      if compare_entry a.(i - 1) a.(i) = 0 then repeated := true
    done;
    if !repeated then Array.fold_left (fun t e -> add_bag t e.category e.id e.bag) empty a else a

let attributes t category =
  Array.fold_right (fun e acc -> if e.category = category then (e.id, e.bag) :: acc else acc) t []

let iter t f =
  for i = 0 to Array.length t - 1 do
    let e = t.(i) in
    f e.category e.id e.bag
  done

let rec push category entries = function
  | [] -> entries
  | (id, v) :: rest -> push category ({ category; id; bag = [ v ] } :: entries) rest

let make ?(subject = []) ?(resource = []) ?(action = []) ?(environment = []) () =
  of_rev_entries
    (push Environment (push Action (push Resource (push Subject [] subject) resource) action) environment)

let first_string t category id =
  match bag t category id with
  | Value.String s :: _ -> Some s
  | Value.Uri s :: _ -> Some s
  | _ -> None

let subject_id t = first_string t Subject "subject-id"

(* The Request element: one section per category in [all_categories]
   order — the order of the entries — each holding one Attribute per
   value, ids ascending; a section without values is written empty. *)

let section_names = [| "Subject"; "Resource"; "Action"; "Environment" |]
let sections = Array.of_list all_categories

let write buf t =
  Buffer.add_string buf "<Request>";
  let empty_sections buf from upto =
    for i = from to upto - 1 do
      Buffer.add_char buf '<';
      Buffer.add_string buf section_names.(i);
      Buffer.add_string buf "/>"
    done
  in
  let close buf i =
    Buffer.add_string buf "</";
    Buffer.add_string buf section_names.(i);
    Buffer.add_char buf '>'
  in
  let current = ref (-1) in
  Array.iter
    (fun { category; id; bag = values } ->
      if not (List.is_empty values) then begin
        let i = section_index category in
        if i <> !current then begin
          if !current >= 0 then close buf !current;
          empty_sections buf (!current + 1) i;
          Buffer.add_char buf '<';
          Buffer.add_string buf section_names.(i);
          Buffer.add_char buf '>';
          current := i
        end;
        List.iter
          (fun v ->
            Buffer.add_string buf "<Attribute AttributeId=\"";
            Xml.add_escaped buf id;
            Buffer.add_string buf "\" DataType=\"";
            Buffer.add_string buf (Value.type_name (Value.type_of v));
            Buffer.add_string buf "\">";
            Xml.add_escaped buf (Value.to_string v);
            Buffer.add_string buf "</Attribute>")
          values
      end)
    t;
  if !current >= 0 then close buf !current;
  empty_sections buf (!current + 1) (Array.length section_names);
  Buffer.add_string buf "</Request>"

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

module Cursor = Xml.Cursor

let rec section_from c tag i =
  if i = Array.length section_names then
    Cursor.fail c (Printf.sprintf "unknown category element %s" (Cursor.tag_name c tag))
  else if Cursor.has_local_name c tag section_names.(i) then sections.(i)
  else section_from c tag (i + 1)

let skip_attrs c tag =
  while Cursor.next_attr c tag do
    ()
  done

(* Each data type's name, with the option a match returns (built once, so
   a match allocates nothing). *)
let data_types =
  List.map
    (fun dt -> (Value.type_name dt, Some dt))
    Value.[ String_t; Int_t; Bool_t; Double_t; Time_t; Uri_t ]

(* The data type the attribute value just read names, compared in place. *)
let rec data_type_in c = function
  | [] -> None
  | (name, dt) :: rest -> if Cursor.value_is c name then dt else data_type_in c rest

let read_data_type c = data_type_in c data_types

let read_attribute c category =
  let tag = Cursor.enter c in
  if not (Cursor.has_local_name c tag "Attribute") then
    Cursor.fail c (Printf.sprintf "unexpected <%s> in a category" (Cursor.tag_name c tag));
  (* An unknown DataType is copied, for the message, only when seen. *)
  let has_id = ref false and id = ref "" and data_type = ref None and unknown = ref None in
  while Cursor.next_attr c tag do
    if Cursor.attr_is c "AttributeId" then begin
      has_id := true;
      id := Cursor.value c
    end
    else if Cursor.attr_is c "DataType" then begin
      data_type := read_data_type c;
      if Option.is_none !data_type then unknown := Some (Cursor.value c)
    end
  done;
  let text = Cursor.text c tag in
  Cursor.close c tag;
  match (!has_id, !data_type, !unknown) with
  | true, Some Value.String_t, _ -> { category; id = !id; bag = [ Value.String text ] }
  | true, Some dt, _ -> (
    match Value.of_string dt text with
    | Ok v -> { category; id = !id; bag = [ v ] }
    | Error e -> Cursor.fail c e)
  | true, None, Some dt_name -> Cursor.fail c (Printf.sprintf "unknown data type %s" dt_name)
  | _ -> Cursor.fail c "Attribute needs AttributeId and DataType"

(* One pass: every attribute becomes an entry as it is read, and the
   context is built once at the end. *)
let read c =
  let tag = Cursor.enter c in
  if not (Cursor.is c tag "Request") then Cursor.fail c "expected a Request element";
  skip_attrs c tag;
  let entries = ref [] in
  while Cursor.next_child c tag do
    let section = Cursor.enter c in
    let category = section_from c section 0 in
    skip_attrs c section;
    while Cursor.next_child c section do
      entries := read_attribute c category :: !entries
    done;
    Cursor.close c section
  done;
  Cursor.close c tag;
  of_rev_entries !entries

let of_string s = Cursor.parse s read

let to_xml t = Xml.of_string (to_string t)
let of_xml node = of_string (Xml.to_string node)

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> x.category = y.category && String.equal x.id y.id && Value.bag_equal x.bag y.bag)
       a b

let pp fmt t =
  List.iter
    (fun category ->
      List.iter
        (fun (id, values) ->
          Format.fprintf fmt "%s/%s=%a@ " (category_name category) id Value.pp_bag values)
        (attributes t category))
    all_categories
