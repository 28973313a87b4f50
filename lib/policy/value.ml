type t =
  | String of string
  | Int of int
  | Bool of bool
  | Double of float
  | Time of float
  | Uri of string

type bag = t list

type data_type = String_t | Int_t | Bool_t | Double_t | Time_t | Uri_t

let type_of = function
  | String _ -> String_t
  | Int _ -> Int_t
  | Bool _ -> Bool_t
  | Double _ -> Double_t
  | Time _ -> Time_t
  | Uri _ -> Uri_t

let type_name = function
  | String_t -> "string"
  | Int_t -> "integer"
  | Bool_t -> "boolean"
  | Double_t -> "double"
  | Time_t -> "time"
  | Uri_t -> "anyURI"

let data_type_of_name = function
  | "string" -> Some String_t
  | "integer" -> Some Int_t
  | "boolean" -> Some Bool_t
  | "double" -> Some Double_t
  | "time" -> Some Time_t
  | "anyURI" -> Some Uri_t
  | _ -> None

let equal a b =
  match (a, b) with
  | String x, String y -> x = y
  | Int x, Int y -> x = y
  | Bool x, Bool y -> x = y
  | Double x, Double y -> x = y
  | Time x, Time y -> x = y
  | Uri x, Uri y -> x = y
  | (String _ | Int _ | Bool _ | Double _ | Time _ | Uri _), _ -> false

let compare_same_type a b =
  match (a, b) with
  | String x, String y -> Ok (compare x y)
  | Int x, Int y -> Ok (compare x y)
  | Double x, Double y -> Ok (compare x y)
  | Time x, Time y -> Ok (compare x y)
  | Uri x, Uri y -> Ok (compare x y)
  | Bool _, Bool _ -> Error "booleans are not ordered"
  | a, b ->
    Error
      (Printf.sprintf "type mismatch: %s vs %s" (type_name (type_of a)) (type_name (type_of b)))

(* The C formatter behind [Printf]'s %g, called without the format
   interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let precisions = Array.init 11 (fun i -> Printf.sprintf "%%.%dg" (i + 7))

let reads_back s f = Int64.equal (Int64.bits_of_float (float_of_string s)) (Int64.bits_of_float f)

(* The first of %.7g .. %.17g that reads back; %.17g always does. *)
let rec exact_from f i =
  let s = format_float precisions.(i) f in
  if i = Array.length precisions - 1 || reads_back s f then s else exact_from f (i + 1)

(* Exact: the rendering reads back to the same bits, so a context sent or
   logged is the context that was decided.  A NaN is written by its sign
   bit alone: its payload has no decimal form, and no comparison can
   observe it. *)
let float_to_string f =
  if Float.is_nan f then if Float.sign_bit f then "-nan" else "nan"
  else
    let s = format_float "%g" f in
    if reads_back s f then s else exact_from f 0

let to_string = function
  | String s -> s
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Double f | Time f -> float_to_string f
  | Uri u -> u

let of_string dt s =
  match dt with
  | String_t -> Ok (String s)
  | Uri_t -> Ok (Uri s)
  | Int_t -> (
    match int_of_string_opt s with
    | Some i -> Ok (Int i)
    | None -> Error (Printf.sprintf "%S is not an integer" s))
  | Bool_t -> (
    match s with
    | "true" | "1" -> Ok (Bool true)
    | "false" | "0" -> Ok (Bool false)
    | _ -> Error (Printf.sprintf "%S is not a boolean" s))
  | Double_t -> (
    match float_of_string_opt s with
    | Some f -> Ok (Double f)
    | None -> Error (Printf.sprintf "%S is not a double" s))
  | Time_t -> (
    match float_of_string_opt s with
    | Some f -> Ok (Time f)
    | None -> Error (Printf.sprintf "%S is not a time" s))

let describe v = Printf.sprintf "%s:%s" (type_name (type_of v)) (to_string v)

let pp fmt v = Format.pp_print_string fmt (describe v)

let bag_contains bag v = List.exists (equal v) bag

let bag_equal a b =
  let remove_one v l =
    let rec go acc = function
      | [] -> None
      | x :: rest -> if equal x v then Some (List.rev_append acc rest) else go (x :: acc) rest
    in
    go [] l
  in
  let rec go a b =
    match a with
    | [] -> b = []
    | v :: rest -> (
      match remove_one v b with
      | Some b' -> go rest b'
      | None -> false)
  in
  go a b

let bag_intersection a b = List.filter (fun v -> bag_contains b v) a

let bag_union a b =
  let add acc v = if bag_contains acc v then acc else v :: acc in
  List.rev (List.fold_left add (List.fold_left add [] a) b)

let bag_subset a b = List.for_all (fun v -> bag_contains b v) a
