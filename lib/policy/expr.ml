type designator = {
  category : Context.category;
  attribute_id : string;
  must_be_present : bool;
}

type t =
  | Const of Value.t
  | Designator of designator
  | Apply of string * t list
  | Function_ref of string
  | Variable_ref of string

type error_code = Missing_attribute | Processing | Syntax

type error = { code : error_code; message : string }

let error_to_string e =
  let code =
    match e.code with
    | Missing_attribute -> "missing-attribute"
    | Processing -> "processing-error"
    | Syntax -> "syntax-error"
  in
  Printf.sprintf "%s: %s" code e.message

type resolver = Context.category -> string -> Value.bag option

(* ------------------------------------------------------------------ *)
(* Function registry                                                   *)
(* ------------------------------------------------------------------ *)

(* All implementations consume evaluated argument bags.  [arity None] is
   variadic.  Higher-order functions are dispatched in [eval] itself
   because they must apply a function reference over bag members. *)
type impl = {
  name : string;
  slot : int;  (* its place in [by_slot], in registration order *)
  arity : int option;
  run : Value.bag list -> (Value.bag, string) result;
}

let registry : (string, impl) Hashtbl.t = Hashtbl.create 128

let register name arity run =
  if Hashtbl.mem registry name then invalid_arg ("Expr.register: duplicate " ^ name);
  Hashtbl.add registry name { name; slot = Hashtbl.length registry; arity; run }

let singleton v = Ok [ v ]

(* Extract exactly one value from a bag argument. *)
let one = function
  | [ v ] -> Ok v
  | bag -> Error (Printf.sprintf "expected exactly one value, got a bag of %d" (List.length bag))

let atomic2 name check =
  register name (Some 2) (fun args ->
      match args with
      | [ a; b ] -> (
        match (one a, one b) with
        | Ok a, Ok b -> Result.bind (check a b) singleton
        | Error e, _ | _, Error e -> Error e)
      | _ -> Error "arity")

let atomic1 name check =
  register name (Some 1) (fun args ->
      match args with
      | [ a ] -> (
        match one a with
        | Ok a -> Result.bind (check a) singleton
        | Error e -> Error e)
      | _ -> Error "arity")

let type_error expected got =
  Error
    (Printf.sprintf "expected %s, got %s" expected (Value.type_name (Value.type_of got)))

let as_int = function Value.Int i -> Ok i | v -> type_error "integer" v
let as_bool = function Value.Bool b -> Ok b | v -> type_error "boolean" v
let as_string = function Value.String s -> Ok s | v -> type_error "string" v
let as_double = function Value.Double d -> Ok d | v -> type_error "double" v
let as_time = function Value.Time t -> Ok t | v -> type_error "time" v

let all_types = Value.[ String_t; Int_t; Bool_t; Double_t; Time_t; Uri_t ]

let check_type dt v =
  if Value.type_of v = dt then Ok v
  else type_error (Value.type_name dt) v

(* --- equality, per type --------------------------------------------- *)

let () =
  List.iter
    (fun dt ->
      let name = Value.type_name dt ^ "-equal" in
      atomic2 name (fun a b ->
          match (check_type dt a, check_type dt b) with
          | Ok _, Ok _ -> Ok (Value.Bool (Value.equal a b))
          | Error e, _ | _, Error e -> Error e))
    all_types

(* --- ordering --------------------------------------------------------- *)

let () =
  let ordered_types = Value.[ String_t; Int_t; Double_t; Time_t ] in
  let ops =
    [
      ("greater-than", fun c -> c > 0);
      ("greater-than-or-equal", fun c -> c >= 0);
      ("less-than", fun c -> c < 0);
      ("less-than-or-equal", fun c -> c <= 0);
    ]
  in
  List.iter
    (fun dt ->
      List.iter
        (fun (op_name, accept) ->
          let name = Value.type_name dt ^ "-" ^ op_name in
          atomic2 name (fun a b ->
              match (check_type dt a, check_type dt b) with
              | Ok _, Ok _ -> (
                match Value.compare_same_type a b with
                | Ok c -> Ok (Value.Bool (accept c))
                | Error e -> Error e)
              | Error e, _ | _, Error e -> Error e))
        ops)
    ordered_types

(* --- arithmetic --------------------------------------------------------- *)

let int_fold name op init =
  register name None (fun args ->
      if List.length args < 2 then Error (name ^ " needs at least two arguments")
      else begin
        let rec go acc = function
          | [] -> singleton (Value.Int acc)
          | bag :: rest -> (
            match Result.bind (one bag) as_int with
            | Ok i -> go (op acc i) rest
            | Error e -> Error e)
        in
        match args with
        | first :: rest -> (
          match Result.bind (one first) as_int with
          | Ok i -> go (op init i) rest
          | Error e -> Error e)
        | [] -> Error "unreachable"
      end)

let () =
  int_fold "integer-add" ( + ) 0;
  int_fold "integer-multiply" ( * ) 1;
  atomic2 "integer-subtract" (fun a b ->
      match (as_int a, as_int b) with
      | Ok a, Ok b -> Ok (Value.Int (a - b))
      | Error e, _ | _, Error e -> Error e);
  atomic2 "integer-divide" (fun a b ->
      match (as_int a, as_int b) with
      | Ok _, Ok 0 -> Error "division by zero"
      | Ok a, Ok b -> Ok (Value.Int (a / b))
      | Error e, _ | _, Error e -> Error e);
  atomic2 "integer-mod" (fun a b ->
      match (as_int a, as_int b) with
      | Ok _, Ok 0 -> Error "modulo by zero"
      | Ok a, Ok b -> Ok (Value.Int (a mod b))
      | Error e, _ | _, Error e -> Error e);
  atomic1 "integer-abs" (fun a -> Result.map (fun i -> Value.Int (abs i)) (as_int a));
  atomic1 "integer-to-double" (fun a -> Result.map (fun i -> Value.Double (float_of_int i)) (as_int a));
  atomic2 "double-add" (fun a b ->
      match (as_double a, as_double b) with
      | Ok a, Ok b -> Ok (Value.Double (a +. b))
      | Error e, _ | _, Error e -> Error e);
  atomic2 "double-subtract" (fun a b ->
      match (as_double a, as_double b) with
      | Ok a, Ok b -> Ok (Value.Double (a -. b))
      | Error e, _ | _, Error e -> Error e);
  atomic2 "double-multiply" (fun a b ->
      match (as_double a, as_double b) with
      | Ok a, Ok b -> Ok (Value.Double (a *. b))
      | Error e, _ | _, Error e -> Error e);
  atomic2 "double-divide" (fun a b ->
      match (as_double a, as_double b) with
      | Ok _, Ok 0.0 -> Error "division by zero"
      | Ok a, Ok b -> Ok (Value.Double (a /. b))
      | Error e, _ | _, Error e -> Error e)

(* --- logic ----------------------------------------------------------------- *)

let () =
  register "and" None (fun args ->
      let rec go = function
        | [] -> singleton (Value.Bool true)
        | bag :: rest -> (
          match Result.bind (one bag) as_bool with
          | Ok true -> go rest
          | Ok false -> singleton (Value.Bool false)
          | Error e -> Error e)
      in
      go args);
  register "or" None (fun args ->
      let rec go = function
        | [] -> singleton (Value.Bool false)
        | bag :: rest -> (
          match Result.bind (one bag) as_bool with
          | Ok false -> go rest
          | Ok true -> singleton (Value.Bool true)
          | Error e -> Error e)
      in
      go args);
  atomic1 "not" (fun a -> Result.map (fun b -> Value.Bool (not b)) (as_bool a));
  register "n-of" None (fun args ->
      match args with
      | [] -> Error "n-of needs the count argument"
      | n_bag :: rest -> (
        match Result.bind (one n_bag) as_int with
        | Error e -> Error e
        | Ok n ->
          if n > List.length rest then Error "n-of: fewer arguments than required truths"
          else begin
            let rec go needed = function
              | _ when needed = 0 -> singleton (Value.Bool true)
              | [] -> singleton (Value.Bool false)
              | bag :: rest -> (
                match Result.bind (one bag) as_bool with
                | Ok true -> go (needed - 1) rest
                | Ok false -> go needed rest
                | Error e -> Error e)
            in
            go n rest
          end))

(* --- strings ------------------------------------------------------------------ *)

let () =
  register "string-concatenate" None (fun args ->
      if List.length args < 2 then Error "string-concatenate needs at least two arguments"
      else begin
        let rec go acc = function
          | [] -> singleton (Value.String (String.concat "" (List.rev acc)))
          | bag :: rest -> (
            match Result.bind (one bag) as_string with
            | Ok s -> go (s :: acc) rest
            | Error e -> Error e)
        in
        go [] args
      end);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  atomic2 "string-contains" (fun a b ->
      match (as_string a, as_string b) with
      | Ok needle, Ok hay -> Ok (Value.Bool (contains hay needle))
      | Error e, _ | _, Error e -> Error e);
  atomic2 "string-starts-with" (fun a b ->
      match (as_string a, as_string b) with
      | Ok prefix, Ok s ->
        Ok
          (Value.Bool
             (String.length prefix <= String.length s
             && String.sub s 0 (String.length prefix) = prefix))
      | Error e, _ | _, Error e -> Error e);
  atomic2 "string-ends-with" (fun a b ->
      match (as_string a, as_string b) with
      | Ok suffix, Ok s ->
        let ls = String.length s and lx = String.length suffix in
        Ok (Value.Bool (lx <= ls && String.sub s (ls - lx) lx = suffix))
      | Error e, _ | _, Error e -> Error e);
  atomic1 "string-normalize-to-lower-case" (fun a ->
      Result.map (fun s -> Value.String (String.lowercase_ascii s)) (as_string a));
  atomic1 "string-normalize-space" (fun a ->
      Result.map (fun s -> Value.String (String.trim s)) (as_string a));
  atomic2 "regexp-string-match" (fun pattern s ->
      match (as_string pattern, as_string s) with
      | Ok pattern, Ok s -> (
        try Ok (Value.Bool (Re.execp (Re.Posix.compile_pat pattern) s))
        with Re.Posix.Parse_error | Re.Posix.Not_supported ->
          Error (Printf.sprintf "bad regular expression %S" pattern))
      | Error e, _ | _, Error e -> Error e);
  atomic1 "string-length" (fun a -> Result.map (fun s -> Value.Int (String.length s)) (as_string a));
  atomic1 "anyURI-to-string" (fun a ->
      match a with Value.Uri u -> Ok (Value.String u) | v -> type_error "anyURI" v);
  atomic1 "string-to-anyURI" (fun a -> Result.map (fun s -> Value.Uri s) (as_string a))

(* --- time ------------------------------------------------------------------------ *)

let () =
  register "time-in-range" (Some 3) (fun args ->
      match args with
      | [ t; lo; hi ] -> (
        match
          ( Result.bind (one t) as_time,
            Result.bind (one lo) as_time,
            Result.bind (one hi) as_time )
        with
        | Ok t, Ok lo, Ok hi -> singleton (Value.Bool (lo <= t && t <= hi))
        | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e)
      | _ -> Error "arity")

(* --- bag functions, per type --------------------------------------------------- *)

let () =
  List.iter
    (fun dt ->
      let tname = Value.type_name dt in
      register (tname ^ "-one-and-only") (Some 1) (fun args ->
          match args with
          | [ bag ] -> (
            match bag with
            | [ v ] -> Result.bind (check_type dt v) singleton
            | _ -> Error (Printf.sprintf "%s-one-and-only: bag of %d" tname (List.length bag)))
          | _ -> Error "arity");
      register (tname ^ "-bag-size") (Some 1) (fun args ->
          match args with
          | [ bag ] -> singleton (Value.Int (List.length bag))
          | _ -> Error "arity");
      register (tname ^ "-is-in") (Some 2) (fun args ->
          match args with
          | [ v; bag ] -> (
            match Result.bind (one v) (check_type dt) with
            | Ok v -> singleton (Value.Bool (Value.bag_contains bag v))
            | Error e -> Error e)
          | _ -> Error "arity");
      register (tname ^ "-bag") None (fun args ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | bag :: rest -> (
              match Result.bind (one bag) (check_type dt) with
              | Ok v -> go (v :: acc) rest
              | Error e -> Error e)
          in
          go [] args);
      register (tname ^ "-intersection") (Some 2) (fun args ->
          match args with
          | [ a; b ] -> Ok (Value.bag_intersection a b)
          | _ -> Error "arity");
      register (tname ^ "-union") (Some 2) (fun args ->
          match args with
          | [ a; b ] -> Ok (Value.bag_union a b)
          | _ -> Error "arity");
      register (tname ^ "-subset") (Some 2) (fun args ->
          match args with
          | [ a; b ] -> singleton (Value.Bool (Value.bag_subset a b))
          | _ -> Error "arity");
      register (tname ^ "-at-least-one-member-of") (Some 2) (fun args ->
          match args with
          | [ a; b ] -> singleton (Value.Bool (List.exists (Value.bag_contains b) a))
          | _ -> Error "arity");
      register (tname ^ "-set-equals") (Some 2) (fun args ->
          match args with
          | [ a; b ] ->
            singleton (Value.Bool (Value.bag_subset a b && Value.bag_subset b a))
          | _ -> Error "arity"))
    all_types

(* --- higher-order functions: names only; dispatched in eval ------------------- *)

let higher_order = [ "any-of"; "all-of"; "any-of-any"; "all-of-any"; "any-of-all"; "all-of-all"; "map" ]

let known_function name = Hashtbl.mem registry name || List.mem name higher_order

let function_arity name =
  match Hashtbl.find_opt registry name with
  | Some impl -> Some impl.arity
  | None -> if List.mem name higher_order then Some None else None

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let processing message = Error { code = Processing; message }

let apply_impl impl (args : Value.bag list) =
  let name = impl.name in
  (match impl.arity with
  | Some n when n <> List.length args ->
    processing (Printf.sprintf "%s expects %d arguments, got %d" name n (List.length args))
  | _ -> Ok ())
  |> function
  | Error e -> Error e
  | Ok () -> (
    match impl.run args with
    | Ok bag -> Ok bag
    | Error message -> processing (Printf.sprintf "%s: %s" name message))

let apply_registered name args =
  match Hashtbl.find_opt registry name with
  | None -> Error { code = Syntax; message = Printf.sprintf "unknown function %s" name }
  | Some impl -> apply_impl impl args

(* Apply a binary boolean function to two atomic values. *)
let apply_bool2 impl a b =
  match apply_impl impl [ [ a ]; [ b ] ] with
  | Ok [ Value.Bool r ] -> Ok r
  | Ok _ -> processing (Printf.sprintf "%s did not produce a single boolean" impl.name)
  | Error e -> Error e

(* --- match functions, resolved once ---------------------------------- *)

(* A match function is its registry slot: a plain int, so a target
   holding one still compares and hashes structurally, as a closure
   would not.  The registry is complete once this module is
   initialised. *)
type matcher = int

let by_slot =
  let slots = Array.make (Hashtbl.length registry) None in
  Hashtbl.iter (fun _ impl -> slots.(impl.slot) <- Some impl) registry;
  Array.map Option.get slots

let matcher name = Option.map (fun impl -> impl.slot) (Hashtbl.find_opt registry name)

let string_equal = (Hashtbl.find registry "string-equal").slot

(* string-equal on two strings, the match every pinned target makes,
   answers without building argument bags; any other pair of values or
   function goes through the registry implementation, errors included.
   [Ok true]/[Ok false] are static constants. *)
let apply_match m value attr =
  match (value, attr) with
  | Value.String a, Value.String b when m = string_equal -> if String.equal a b then Ok true else Ok false
  | _ -> apply_bool2 by_slot.(m) value attr

let rec eval ?resolve ctx expr =
  match expr with
  | Const v -> Ok [ v ]
  | Function_ref name ->
    Error
      { code = Syntax; message = Printf.sprintf "function reference %s outside higher-order apply" name }
  | Variable_ref name ->
    Error { code = Syntax; message = Printf.sprintf "unresolved variable reference %s" name }
  | Designator d -> (
    let bag = Context.bag ctx d.category d.attribute_id in
    let bag =
      if bag = [] then
        match resolve with
        | Some r -> Option.value (r d.category d.attribute_id) ~default:[]
        | None -> []
      else bag
    in
    match bag with
    | [] when d.must_be_present ->
      Error
        {
          code = Missing_attribute;
          message =
            Printf.sprintf "attribute %s/%s is absent"
              (Context.category_name d.category)
              d.attribute_id;
        }
    | bag -> Ok bag)
  | Apply ("and", args) ->
    (* Lazy, left-to-right: arguments after the deciding one are never
       evaluated (XACML specifies short-circuit evaluation). *)
    let rec go = function
      | [] -> Ok [ Value.Bool true ]
      | arg :: rest -> (
        match eval ?resolve ctx arg with
        | Ok [ Value.Bool true ] -> go rest
        | Ok [ Value.Bool false ] -> Ok [ Value.Bool false ]
        | Ok _ -> processing "and: argument is not a single boolean"
        | Error e -> Error e)
    in
    go args
  | Apply ("or", args) ->
    let rec go = function
      | [] -> Ok [ Value.Bool false ]
      | arg :: rest -> (
        match eval ?resolve ctx arg with
        | Ok [ Value.Bool false ] -> go rest
        | Ok [ Value.Bool true ] -> Ok [ Value.Bool true ]
        | Ok _ -> processing "or: argument is not a single boolean"
        | Error e -> Error e)
    in
    go args
  | Apply (name, args) ->
    if List.mem name higher_order then eval_higher_order ?resolve ctx name args
    else begin
      (* Evaluate arguments left to right, failing fast. *)
      let rec eval_args acc = function
        | [] -> Ok (List.rev acc)
        | arg :: rest -> (
          match eval ?resolve ctx arg with
          | Ok bag -> eval_args (bag :: acc) rest
          | Error e -> Error e)
      in
      match eval_args [] args with
      | Ok bags -> apply_registered name bags
      | Error e -> Error e
    end

and eval_higher_order ?resolve ctx name args =
  let func_and_rest () =
    match args with
    | Function_ref f :: rest -> (
      match Hashtbl.find_opt registry f with
      | Some impl -> Ok (impl, rest)
      | None -> Error { code = Syntax; message = Printf.sprintf "unknown function %s" f })
    | _ ->
      Error
        { code = Syntax; message = name ^ " requires a function reference as its first argument" }
  in
  match func_and_rest () with
  | Error e -> Error e
  | Ok (f, rest) -> (
    let eval_arg e = eval ?resolve ctx e in
    (* Fold a boolean combinator over pairs, short-circuiting. *)
    let exists_pair pairs =
      let rec go = function
        | [] -> Ok false
        | (a, b) :: rest -> (
          match apply_bool2 f a b with
          | Ok true -> Ok true
          | Ok false -> go rest
          | Error e -> Error e)
      in
      go pairs
    in
    let forall_pair pairs =
      let rec go = function
        | [] -> Ok true
        | (a, b) :: rest -> (
          match apply_bool2 f a b with
          | Ok false -> Ok false
          | Ok true -> go rest
          | Error e -> Error e)
      in
      go pairs
    in
    let bool_result r = Result.map (fun b -> [ Value.Bool b ]) r in
    match (name, rest) with
    | "any-of", [ value_expr; bag_expr ] -> (
      match (eval_arg value_expr, eval_arg bag_expr) with
      | Ok value_bag, Ok bag -> (
        match value_bag with
        | [ v ] -> bool_result (exists_pair (List.map (fun b -> (v, b)) bag))
        | _ -> processing "any-of: first value argument must be a single value")
      | Error e, _ | _, Error e -> Error e)
    | "all-of", [ value_expr; bag_expr ] -> (
      match (eval_arg value_expr, eval_arg bag_expr) with
      | Ok value_bag, Ok bag -> (
        match value_bag with
        | [ v ] -> bool_result (forall_pair (List.map (fun b -> (v, b)) bag))
        | _ -> processing "all-of: first value argument must be a single value")
      | Error e, _ | _, Error e -> Error e)
    | "any-of-any", [ ea; eb ] -> (
      match (eval_arg ea, eval_arg eb) with
      | Ok ba, Ok bb ->
        bool_result (exists_pair (List.concat_map (fun a -> List.map (fun b -> (a, b)) bb) ba))
      | Error e, _ | _, Error e -> Error e)
    | "all-of-all", [ ea; eb ] -> (
      match (eval_arg ea, eval_arg eb) with
      | Ok ba, Ok bb ->
        bool_result (forall_pair (List.concat_map (fun a -> List.map (fun b -> (a, b)) bb) ba))
      | Error e, _ | _, Error e -> Error e)
    | "any-of-all", [ ea; eb ] -> (
      (* Some a such that f(a, b) holds for all b. *)
      match (eval_arg ea, eval_arg eb) with
      | Ok ba, Ok bb ->
        let rec go = function
          | [] -> Ok false
          | a :: rest -> (
            match forall_pair (List.map (fun b -> (a, b)) bb) with
            | Ok true -> Ok true
            | Ok false -> go rest
            | Error e -> Error e)
        in
        bool_result (go ba)
      | Error e, _ | _, Error e -> Error e)
    | "all-of-any", [ ea; eb ] -> (
      (* For every a there is some b with f(a, b). *)
      match (eval_arg ea, eval_arg eb) with
      | Ok ba, Ok bb ->
        let rec go = function
          | [] -> Ok true
          | a :: rest -> (
            match exists_pair (List.map (fun b -> (a, b)) bb) with
            | Ok true -> go rest
            | Ok false -> Ok false
            | Error e -> Error e)
        in
        bool_result (go ba)
      | Error e, _ | _, Error e -> Error e)
    | "map", [ bag_expr ] -> (
      match eval_arg bag_expr with
      | Ok bag ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | v :: rest -> (
            match apply_impl f [ [ v ] ] with
            | Ok [ r ] -> go (r :: acc) rest
            | Ok _ -> processing "map: function must return a single value"
            | Error e -> Error e)
        in
        go [] bag
      | Error e -> Error e)
    | _, _ ->
      processing (Printf.sprintf "%s applied to %d arguments" name (List.length rest)))

let eval_condition ?resolve ctx expr =
  match eval ?resolve ctx expr with
  | Ok [ Value.Bool b ] -> Ok b
  | Ok bag ->
    Error
      {
        code = Processing;
        message =
          Printf.sprintf "condition must produce one boolean, got %d value(s)" (List.length bag);
      }
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Variables                                                           *)
(* ------------------------------------------------------------------ *)

let substitute lookup expr =
  (* [depth] bounds pathological reference chains; genuine cycles are
     rejected by policy validation before evaluation. *)
  let rec go depth expr =
    if depth > 64 then Error "variable substitution too deep (cycle?)"
    else
      match expr with
      | Const _ | Designator _ | Function_ref _ -> Ok expr
      | Variable_ref name -> (
        match lookup name with
        | None -> Error (Printf.sprintf "undefined variable %s" name)
        | Some definition -> go (depth + 1) definition)
      | Apply (name, args) ->
        let rec go_args acc = function
          | [] -> Ok (Apply (name, List.rev acc))
          | arg :: rest -> (
            match go depth arg with
            | Ok arg -> go_args (arg :: acc) rest
            | Error e -> Error e)
        in
        go_args [] args
  in
  go 0 expr

let variable_refs expr =
  let rec go acc = function
    | Const _ | Designator _ | Function_ref _ -> acc
    | Variable_ref name -> if List.mem name acc then acc else name :: acc
    | Apply (_, args) -> List.fold_left go acc args
  in
  List.rev (go [] expr)

(* ------------------------------------------------------------------ *)
(* Static validation                                                   *)
(* ------------------------------------------------------------------ *)

let validate expr =
  let problems = ref [] in
  let report p = problems := p :: !problems in
  let rec go in_higher_order expr =
    match expr with
    | Const _ | Designator _ | Variable_ref _ -> ()
    | Function_ref f ->
      if not in_higher_order then report (Printf.sprintf "function reference %s outside a higher-order apply" f)
      else if not (Hashtbl.mem registry f) then report (Printf.sprintf "unknown function %s" f)
    | Apply (name, args) ->
      let ho = List.mem name higher_order in
      if not (known_function name) then report (Printf.sprintf "unknown function %s" name)
      else begin
        match function_arity name with
        | Some (Some n) when n <> List.length args ->
          report (Printf.sprintf "%s expects %d arguments, got %d" name n (List.length args))
        | _ -> ()
      end;
      List.iteri (fun i arg -> go (ho && i = 0) arg) args
  in
  go false expr;
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* Constructors and printing                                           *)
(* ------------------------------------------------------------------ *)

let str s = Const (Value.String s)
let int i = Const (Value.Int i)
let bool b = Const (Value.Bool b)
let time t = Const (Value.Time t)

let attr category ?(must_be_present = false) attribute_id =
  Designator { category; attribute_id; must_be_present }

let subject_attr ?must_be_present id = attr Context.Subject ?must_be_present id
let environment_attr ?must_be_present id = attr Context.Environment ?must_be_present id

let one_of designator values =
  Apply
    ( "or",
      List.map
        (fun v -> Apply ("any-of", [ Function_ref "string-equal"; str v; designator ]))
        values )
