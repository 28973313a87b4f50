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

(* The order [Stdlib.compare] gives (category first, in declaration
   order, then id), without its generic traversal. *)
module Key = struct
  type t = category * string

  let compare (c1, id1) (c2, id2) =
    let c = Int.compare (section_index c1) (section_index c2) in
    if c <> 0 then c else String.compare id1 id2
end

module Attr_map = Map.Make (Key)

type t = Value.bag Attr_map.t

let empty = Attr_map.empty

let add_bag t category id values =
  let prev = Option.value (Attr_map.find_opt (category, id) t) ~default:[] in
  Attr_map.add (category, id) (prev @ values) t

let add t category id value = add_bag t category id [ value ]

let bag t category id = Option.value (Attr_map.find_opt (category, id) t) ~default:[]

let attributes t category =
  Attr_map.fold
    (fun (cat, id) values acc -> if cat = category then (id, values) :: acc else acc)
    t []
  |> List.sort compare

let iter t f = Attr_map.iter (fun (cat, id) values -> f cat id values) t

let make ?(subject = []) ?(resource = []) ?(action = []) ?(environment = []) () =
  let add_all cat t pairs = List.fold_left (fun t (id, v) -> add t cat id v) t pairs in
  empty
  |> fun t -> add_all Subject t subject
  |> fun t -> add_all Resource t resource
  |> fun t -> add_all Action t action
  |> fun t -> add_all Environment t environment

let first_string t category id =
  match bag t category id with
  | Value.String s :: _ -> Some s
  | Value.Uri s :: _ -> Some s
  | _ -> None

let subject_id t = first_string t Subject "subject-id"

(* The Request element: one section per category in [all_categories]
   order — the order of the map's keys — each holding one Attribute per
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
  Attr_map.iter
    (fun (category, id) values ->
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

let read_attribute c category t =
  let tag = Cursor.enter c in
  if not (Cursor.has_local_name c tag "Attribute") then
    Cursor.fail c (Printf.sprintf "unexpected <%s> in a category" (Cursor.tag_name c tag));
  (* An unknown DataType is copied, for the message, only when seen. *)
  let id = ref None and data_type = ref None and unknown = ref None in
  while Cursor.next_attr c tag do
    if Cursor.attr_is c "AttributeId" then id := Some (Cursor.value c)
    else if Cursor.attr_is c "DataType" then begin
      data_type := read_data_type c;
      if Option.is_none !data_type then unknown := Some (Cursor.value c)
    end
  done;
  let text = Cursor.text c tag in
  Cursor.close c tag;
  match (!id, !data_type, !unknown) with
  | Some id, Some dt, _ -> (
    match Value.of_string dt text with Ok v -> add t category id v | Error e -> Cursor.fail c e)
  | Some _, None, Some dt_name -> Cursor.fail c (Printf.sprintf "unknown data type %s" dt_name)
  | _ -> Cursor.fail c "Attribute needs AttributeId and DataType"

let read c =
  let tag = Cursor.enter c in
  if not (Cursor.is c tag "Request") then Cursor.fail c "expected a Request element";
  skip_attrs c tag;
  let t = ref empty in
  while Cursor.next_child c tag do
    let section = Cursor.enter c in
    let category = section_from c section 0 in
    skip_attrs c section;
    while Cursor.next_child c section do
      t := read_attribute c category !t
    done;
    Cursor.close c section
  done;
  Cursor.close c tag;
  !t

let of_string s = Cursor.parse s read

let to_xml t = Xml.of_string (to_string t)
let of_xml node = of_string (Xml.to_string node)

let equal a b = Attr_map.equal Value.bag_equal a b

let pp fmt t =
  List.iter
    (fun category ->
      List.iter
        (fun (id, values) ->
          Format.fprintf fmt "%s/%s=%a@ " (category_name category) id Value.pp_bag values)
        (attributes t category))
    all_categories
