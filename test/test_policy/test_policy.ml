(* Tests for dacs_policy: values, contexts, expressions, targets, rules,
   combining algorithms, policies/sets, XML round-trips, validation, PDP. *)

open Dacs_policy

let lit_str s = Expr.Const (Value.String s)
let lit_int i = Expr.Const (Value.Int i)
let lit_bool b = Expr.Const (Value.Bool b)
let lit_time t = Expr.Const (Value.Time t)

(* A string-equal match on one attribute, in any section. *)
let match_string category attribute_id s =
  Target.make_match ~fn:"string-equal" ~value:(Value.String s) ~category ~attribute_id

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let decision_testable =
  Alcotest.testable
    (fun fmt d -> Format.pp_print_string fmt (Decision.decision_to_string d))
    Decision.equal_decision

let check_decision msg expected (result : Decision.result) =
  check decision_testable msg expected result.Decision.decision

(* --- values ---------------------------------------------------------- *)

let test_value_types () =
  check string_ "int" "integer" (Value.type_name (Value.type_of (Value.Int 3)));
  check string_ "uri" "anyURI" (Value.type_name (Value.type_of (Value.Uri "urn:x")));
  check bool_ "same name roundtrip" true
    (List.for_all
       (fun dt -> Value.data_type_of_name (Value.type_name dt) = Some dt)
       [ Value.String_t; Value.Int_t; Value.Bool_t; Value.Double_t; Value.Time_t; Value.Uri_t ])

let test_value_equal () =
  check bool_ "equal" true (Value.equal (Value.Int 3) (Value.Int 3));
  check bool_ "not equal" false (Value.equal (Value.Int 3) (Value.Int 4));
  check bool_ "cross type" false (Value.equal (Value.Int 3) (Value.String "3"))

let test_value_compare () =
  check bool_ "lt" true (Value.compare_same_type (Value.Int 1) (Value.Int 2) = Ok (-1));
  check bool_ "bool unordered" true
    (Result.is_error (Value.compare_same_type (Value.Bool true) (Value.Bool false)));
  check bool_ "mismatch" true
    (Result.is_error (Value.compare_same_type (Value.Int 1) (Value.String "x")))

let test_value_parse () =
  check bool_ "int ok" true (Value.of_string Value.Int_t "42" = Ok (Value.Int 42));
  check bool_ "int bad" true (Result.is_error (Value.of_string Value.Int_t "x"));
  check bool_ "bool" true (Value.of_string Value.Bool_t "true" = Ok (Value.Bool true));
  check bool_ "bool bad" true (Result.is_error (Value.of_string Value.Bool_t "yes"));
  check bool_ "double" true (Value.of_string Value.Double_t "2.5" = Ok (Value.Double 2.5))

(* Double and Time values read back bit for bit, shortest rendering
   first: %g where it is exact, the shortest exact %.{7..17}g otherwise. *)
let test_value_exact_floats () =
  let bits f = Int64.bits_of_float f in
  let reads_back v =
    match (v, Value.of_string (Value.type_of v) (Value.to_string v)) with
    | (Value.Double f | Value.Time f), Ok (Value.Double g | Value.Time g) -> bits f = bits g
    | _ -> false
  in
  List.iter
    (fun (f, rendered) ->
      check string_ (Printf.sprintf "%h renders" f) rendered (Value.to_string (Value.Time f));
      check bool_ (Printf.sprintf "%h reads back" f) true (reads_back (Value.Double f)))
    [
      (1000000.4, "1000000.4");
      (120.0, "120");
      (0.1, "0.1");
      (2.5, "2.5");
      (1e6, "1e+06");
      (0.30000000000000004, "0.30000000000000004");
      (-0.0, "-0");
      (Float.infinity, "inf");
      (Float.neg_infinity, "-inf");
      (4.9e-324, "4.94066e-324");
      (Float.max_float, "1.7976931348623157e+308");
    ];
  check string_ "nan" "nan" (Value.to_string (Value.Double Float.nan));
  check string_ "negative nan" "-nan" (Value.to_string (Value.Double (-.Float.nan)));
  check bool_ "negative nan reads back negative" true
    (match Value.of_string Value.Double_t "-nan" with
    | Ok (Value.Double f) -> Float.is_nan f && Float.sign_bit f
    | _ -> false)

let test_value_bags () =
  let b1 = Value.[ String "a"; String "b"; String "a" ] in
  let b2 = Value.[ String "a"; String "a"; String "b" ] in
  check bool_ "multiset equal" true (Value.bag_equal b1 b2);
  check bool_ "multiset not equal" false (Value.bag_equal b1 Value.[ String "a"; String "b" ]);
  check bool_ "contains" true (Value.bag_contains b1 (Value.String "b"));
  check int_ "intersection" 3 (List.length (Value.bag_intersection b1 b2));
  check int_ "union dedups" 2 (List.length (Value.bag_union b1 b2));
  check bool_ "subset" true (Value.bag_subset Value.[ String "a" ] b1);
  check bool_ "not subset" false (Value.bag_subset Value.[ String "z" ] b1)

(* --- context ----------------------------------------------------------- *)

let ctx =
  Context.make
    ~subject:[ ("subject-id", Value.String "alice"); ("role", Value.String "doctor"); ("role", Value.String "researcher") ]
    ~resource:[ ("resource-id", Value.String "patient-records") ]
    ~action:[ ("action-id", Value.String "read") ]
    ~environment:[ ("time", Value.Time 120.0) ]
    ()

let test_context_bags () =
  check int_ "two roles" 2 (List.length (Context.bag ctx Context.Subject "role"));
  check int_ "missing empty" 0 (List.length (Context.bag ctx Context.Subject "nope"));
  check bool_ "subject id" true (Context.subject_id ctx = Some "alice")

let test_context_xml_roundtrip () =
  let buf = Buffer.create 256 in
  Context.write buf ctx;
  match Context.of_string (Buffer.contents buf) with
  | Ok ctx' -> check bool_ "roundtrip" true (Context.equal ctx ctx')
  | Error e -> Alcotest.fail e

let test_context_xml_errors () =
  check bool_ "wrong root" true (Result.is_error (Context.of_string "<Nope/>"));
  let bad = "<Request><Subject><Attribute AttributeId=\"a\" DataType=\"bogus\">x</Attribute></Subject></Request>" in
  check bool_ "bad data type" true (Result.is_error (Context.of_string bad))

(* --- the compact form ------------------------------------------------------ *)

(* A context's entries in canonical order, compared value by value in bag
   order and floats by their bits: the equality [read_compact] promises,
   stricter than [Context.equal]'s multisets and IEEE comparisons. *)
let same_value a b =
  match (a, b) with
  | (Value.Double x, Value.Double y | Value.Time x, Value.Time y) ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let entries t =
  List.rev (Context.fold (fun category id bag acc -> (category, id, bag) :: acc) t [])

let same_context a b =
  let ea = entries a and eb = entries b in
  List.length ea = List.length eb
  && List.for_all2
       (fun (c, id, bag) (c', id', bag') ->
         c = c' && String.equal id id' && List.length bag = List.length bag'
         && List.for_all2 same_value bag bag')
       ea eb

let compact t =
  let buf = Buffer.create 64 in
  Context.write_compact buf t;
  Buffer.contents buf

(* Ids and strings from bytes a length-prefixed form must not confuse
   with its own syntax, non-ASCII ones included. *)
let gen_text =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (0 -- 4)
         (oneof
            [
              oneofl [ ""; "0"; "17"; ":"; "<"; "&"; "\""; "\n"; "é"; "日本"; "s"; "1:x"; "&amp;"; "\000" ];
              map (String.make 1) char;
            ])))

(* Every NaN here is one the decimal form carries: the quiet NaN of
   either sign. *)
let gen_float =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [
            0.0; -0.0; 1000000.4; 0.1; 1e6; 4.9e-324; -2.2250738585072e-308; Float.max_float;
            Float.infinity; Float.neg_infinity; float_of_string "nan"; float_of_string "-nan";
          ];
        map
          (fun b ->
            let f = Int64.float_of_bits b in
            if Float.is_nan f then float_of_string "nan" else f)
          ui64;
        float;
      ])

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Value.String s) gen_text;
        map (fun i -> Value.Int i) (oneof [ int; oneofl [ 0; -1; min_int; max_int ] ]);
        map (fun b -> Value.Bool b) bool;
        map (fun f -> Value.Double f) gen_float;
        map (fun f -> Value.Time f) gen_float;
        map (fun s -> Value.Uri s) gen_text;
      ])

(* A few ids per category, drawn from a small pool so that repeated ids
   (bags of several values, kept in list order) are common. *)
let gen_context =
  QCheck.Gen.(
    let attrs = list_size (0 -- 4) (pair (oneof [ oneofl [ "role"; ""; "a:b" ]; gen_text ]) gen_value) in
    map
      (fun (subject, resource, action, environment) ->
        Context.make ~subject ~resource ~action ~environment ())
      (quad attrs attrs attrs attrs))

let arb_context = QCheck.make ~print:compact gen_context

let prop_compact_roundtrip =
  QCheck.Test.make ~name:"read_compact (write_compact c) = c, floats by bits" ~count:500 arb_context
    (fun c ->
      match Context.read_compact (compact c) with
      | Ok c' -> same_context c c'
      | Error e -> QCheck.Test.fail_report e)

let reads_without_raising s =
  match Context.read_compact s with Ok _ | Error _ -> true | exception _ -> false

let prop_compact_truncated =
  QCheck.Test.make ~name:"every strict prefix of the compact form is an Error" ~count:200 arb_context
    (fun c ->
      let s = compact c in
      List.for_all
        (fun len ->
          match Context.read_compact (String.sub s 0 len) with
          | Error _ -> true
          | Ok _ | (exception _) -> false)
        (List.init (String.length s) Fun.id))

let prop_compact_mutated =
  QCheck.Test.make ~name:"mutated compact bytes never raise" ~count:500
    QCheck.(pair arb_context (triple small_nat small_nat (make QCheck.Gen.char)))
    (fun (c, (at, op, byte)) ->
      let s = compact c in
      let n = String.length s in
      let at = at mod (n + 1) in
      let mutated =
        match op mod 3 with
        | 0 when at < n -> String.mapi (fun i ch -> if i = at then byte else ch) s
        | 1 -> String.sub s 0 at ^ String.make 1 byte ^ String.sub s at (n - at)
        | _ when at < n -> String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1)
        | _ -> s ^ String.make 1 byte
      in
      reads_without_raising mutated)

let test_compact_errors () =
  let c = Context.make ~subject:[ ("subject-id", Value.String "alice") ] () in
  check string_ "the documented example" "1:Ss10:subject-id5:alice" (compact c);
  check string_ "an empty context" "0:" (compact Context.empty);
  List.iter
    (fun s -> check bool_ (Printf.sprintf "%S is refused" s) true (Result.is_error (Context.read_compact s)))
    [
      "";
      "1:";
      "1:Ss10:subject-id5:alic";
      "1:Ss10:subject-id5:alicee";
      "1:Xs1:a1:b";
      "1:Sz1:a1:b";
      "1:Si1:a1:x";
      "1:Sb1:a3:yes";
      "1:Ss99999999999999999999999999:a";
      "2:Ss1:a1:b";
      "-1:";
      "1:Ss1a1:b";
    ];
  check bool_ "a stray byte between records is refused" true
    (Result.is_error (Context.read_compact "2:Ss1:a1:y Ss1:a1:x"));
  check bool_ "two records of one id form one bag, in order" true
    (match Context.read_compact "2:Ss1:a1:ySs1:a1:x" with
    | Ok t -> Context.bag t Context.Subject "a" = Value.[ String "y"; String "x" ]
    | Error _ -> false)

(* --- expressions ---------------------------------------------------------- *)

let eval_bool e =
  match Expr.eval_condition ctx e with
  | Ok b -> b
  | Error err -> Alcotest.failf "unexpected error: %s" (Expr.error_to_string err)

let eval_err e =
  match Expr.eval_condition ctx e with
  | Ok b -> Alcotest.failf "expected an error, got %b" b
  | Error err -> err

let test_expr_equality_functions () =
  check bool_ "string-equal true" true
    (eval_bool (Expr.Apply ("string-equal", [ lit_str "a"; lit_str "a" ])));
  check bool_ "string-equal false" false
    (eval_bool (Expr.Apply ("string-equal", [ lit_str "a"; lit_str "b" ])));
  check bool_ "integer-equal" true
    (eval_bool (Expr.Apply ("integer-equal", [ lit_int 3; lit_int 3 ])));
  check bool_ "type mismatch errors" true
    ((eval_err (Expr.Apply ("integer-equal", [ lit_int 3; lit_str "3" ]))).Expr.code
    = Expr.Processing)

let test_expr_comparisons () =
  check bool_ "gt" true (eval_bool (Expr.Apply ("integer-greater-than", [ lit_int 5; lit_int 3 ])));
  check bool_ "lt" false (eval_bool (Expr.Apply ("integer-less-than", [ lit_int 5; lit_int 3 ])));
  check bool_ "string lt" true
    (eval_bool (Expr.Apply ("string-less-than", [ lit_str "abc"; lit_str "abd" ])));
  check bool_ "time gte" true
    (eval_bool (Expr.Apply ("time-greater-than-or-equal", [ lit_time 5.0; lit_time 5.0 ])))

let test_expr_arithmetic () =
  (* A result read through its type's equality function. *)
  let equals e v =
    let eq = match v with Value.Double _ -> "double-equal" | _ -> "integer-equal" in
    eval_bool (Expr.Apply (eq, [ e; Expr.Const v ]))
  in
  check bool_ "add" true (equals (Expr.Apply ("integer-add", [ lit_int 1; lit_int 2; lit_int 3 ])) (Value.Int 6));
  check bool_ "sub" true (equals (Expr.Apply ("integer-subtract", [ lit_int 5; lit_int 3 ])) (Value.Int 2));
  check bool_ "mul" true (equals (Expr.Apply ("integer-multiply", [ lit_int 4; lit_int 5 ])) (Value.Int 20));
  check bool_ "div" true (equals (Expr.Apply ("integer-divide", [ lit_int 7; lit_int 2 ])) (Value.Int 3));
  check bool_ "mod" true (equals (Expr.Apply ("integer-mod", [ lit_int 7; lit_int 2 ])) (Value.Int 1));
  check bool_ "abs" true (equals (Expr.Apply ("integer-abs", [ lit_int (-4) ])) (Value.Int 4));
  check bool_ "to-double" true
    (equals (Expr.Apply ("integer-to-double", [ lit_int 2 ])) (Value.Double 2.0));
  check bool_ "div by zero" true
    ((eval_err (Expr.Apply ("integer-divide", [ lit_int 1; lit_int 0 ]))).Expr.code = Expr.Processing)

let test_expr_logic () =
  check bool_ "and true" true (eval_bool (Expr.Apply ("and", [ lit_bool true; lit_bool true ])));
  check bool_ "and false" false (eval_bool (Expr.Apply ("and", [ lit_bool true; lit_bool false ])));
  check bool_ "and empty" true (eval_bool (Expr.Apply ("and", [])));
  check bool_ "or empty" false (eval_bool (Expr.Apply ("or", [])));
  check bool_ "or" true (eval_bool (Expr.Apply ("or", [ lit_bool false; lit_bool true ])));
  check bool_ "not" false (eval_bool (Expr.Apply ("not", [ lit_bool true ])));
  check bool_ "n-of 2 of 3" true
    (eval_bool (Expr.Apply ("n-of", [ lit_int 2; lit_bool true; lit_bool false; lit_bool true ])))

let test_expr_logic_short_circuit () =
  (* "and" stops at the first false: the erroring argument after it is
     never evaluated. *)
  let err_arg = Expr.Apply ("integer-divide", [ lit_int 1; lit_int 0 ]) in
  check bool_ "and short-circuits" false
    (eval_bool (Expr.Apply ("and", [ lit_bool false; err_arg ])));
  check bool_ "or short-circuits" true
    (eval_bool (Expr.Apply ("or", [ lit_bool true; err_arg ])))

let test_expr_strings () =
  check bool_ "concat" true
    (eval_bool
       (Expr.Apply
          ( "string-equal",
            [ Expr.Apply ("string-concatenate", [ lit_str "foo"; lit_str "bar" ]); lit_str "foobar" ] )));
  check bool_ "starts-with" true
    (eval_bool (Expr.Apply ("string-starts-with", [ lit_str "foo"; lit_str "foobar" ])));
  check bool_ "ends-with" true
    (eval_bool (Expr.Apply ("string-ends-with", [ lit_str "bar"; lit_str "foobar" ])));
  check bool_ "contains" true
    (eval_bool (Expr.Apply ("string-contains", [ lit_str "oob"; lit_str "foobar" ])));
  check bool_ "lower-case" true
    (eval_bool
       (Expr.Apply
          ( "string-equal",
            [ Expr.Apply ("string-normalize-to-lower-case", [ lit_str "AbC" ]); lit_str "abc" ] )))

let test_expr_regexp () =
  check bool_ "match" true
    (eval_bool (Expr.Apply ("regexp-string-match", [ lit_str "^doc.*"; lit_str "doctor" ])));
  check bool_ "no match" false
    (eval_bool (Expr.Apply ("regexp-string-match", [ lit_str "^nurse"; lit_str "doctor" ])));
  check bool_ "bad regexp errors" true
    ((eval_err (Expr.Apply ("regexp-string-match", [ lit_str "("; lit_str "x" ]))).Expr.code
    = Expr.Processing)

let test_expr_time_in_range () =
  check bool_ "in range" true
    (eval_bool (Expr.Apply ("time-in-range", [ lit_time 5.0; lit_time 0.0; lit_time 10.0 ])));
  check bool_ "out of range" false
    (eval_bool (Expr.Apply ("time-in-range", [ lit_time 15.0; lit_time 0.0; lit_time 10.0 ])))

let test_expr_designators () =
  (* Multi-valued attribute needs a bag reduction. *)
  check bool_ "is-in over roles" true
    (eval_bool (Expr.Apply ("string-is-in", [ lit_str "doctor"; Expr.subject_attr "role" ])));
  check bool_ "bag size" true
    (eval_bool
       (Expr.Apply
          ( "integer-equal",
            [ Expr.Apply ("string-bag-size", [ Expr.subject_attr "role" ]); lit_int 2 ] )));
  (* one-and-only on a two-element bag errors *)
  check bool_ "one-and-only fails on bag" true
    ((eval_err
        (Expr.Apply
           ( "string-equal",
             [ Expr.Apply ("string-one-and-only", [ Expr.subject_attr "role" ]); lit_str "doctor" ] )))
       .Expr.code
    = Expr.Processing)

let test_expr_missing_attribute () =
  (* Absent + must_be_present = Missing_attribute (→ Indeterminate). *)
  let e = Expr.Apply ("string-bag-size", [ Expr.Designator { Expr.category = Dacs_policy.Context.Subject; attribute_id = "nope"; must_be_present = true } ]) in
  check bool_ "missing" true ((eval_err (Expr.Apply ("integer-equal", [ e; lit_int 0 ]))).Expr.code = Expr.Missing_attribute);
  (* Absent without must_be_present = empty bag. *)
  check bool_ "empty bag ok" true
    (eval_bool
       (Expr.Apply
          ( "integer-equal",
            [ Expr.Apply ("string-bag-size", [ Expr.subject_attr "nope" ]); lit_int 0 ] )))

let test_expr_resolver () =
  (* A PIP resolver supplies what the context lacks. *)
  let resolve category id =
    if category = Context.Subject && id = "clearance" then Some [ Value.Int 4 ] else None
  in
  let e =
    Expr.Apply
      ( "integer-greater-than",
        [ Expr.Apply ("integer-one-and-only", [ Expr.subject_attr "clearance" ]); lit_int 2 ] )
  in
  (match Expr.eval_condition ~resolve ctx e with
  | Ok b -> check bool_ "resolved" true b
  | Error err -> Alcotest.failf "unexpected: %s" (Expr.error_to_string err));
  (* Without the resolver the attribute is missing. *)
  match Expr.eval_condition ctx e with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ()

let test_expr_set_functions () =
  let bag_a = Expr.Apply ("string-bag", [ lit_str "a"; lit_str "b" ]) in
  let bag_b = Expr.Apply ("string-bag", [ lit_str "b"; lit_str "c" ]) in
  check bool_ "at-least-one" true
    (eval_bool (Expr.Apply ("string-at-least-one-member-of", [ bag_a; bag_b ])));
  check bool_ "subset false" false (eval_bool (Expr.Apply ("string-subset", [ bag_a; bag_b ])));
  check bool_ "set-equals self" true (eval_bool (Expr.Apply ("string-set-equals", [ bag_a; bag_a ])));
  check bool_ "intersection size" true
    (eval_bool
       (Expr.Apply
          ( "integer-equal",
            [
              Expr.Apply ("string-bag-size", [ Expr.Apply ("string-intersection", [ bag_a; bag_b ]) ]);
              lit_int 1;
            ] )))

let test_expr_higher_order () =
  check bool_ "any-of true" true
    (eval_bool
       (Expr.Apply ("any-of", [ Expr.Function_ref "string-equal"; lit_str "doctor"; Expr.subject_attr "role" ])));
  check bool_ "any-of false" false
    (eval_bool
       (Expr.Apply ("any-of", [ Expr.Function_ref "string-equal"; lit_str "nurse"; Expr.subject_attr "role" ])));
  check bool_ "all-of" false
    (eval_bool
       (Expr.Apply ("all-of", [ Expr.Function_ref "string-equal"; lit_str "doctor"; Expr.subject_attr "role" ])));
  let bag_a = Expr.Apply ("string-bag", [ lit_str "x"; lit_str "doctor" ]) in
  check bool_ "any-of-any" true
    (eval_bool
       (Expr.Apply ("any-of-any", [ Expr.Function_ref "string-equal"; bag_a; Expr.subject_attr "role" ])));
  check bool_ "all-of-any" true
    (eval_bool
       (Expr.Apply
          ( "all-of-any",
            [
              Expr.Function_ref "string-equal";
              Expr.Apply ("string-bag", [ lit_str "doctor"; lit_str "researcher" ]);
              Expr.subject_attr "role";
            ] )));
  check bool_ "any-of-all" true
    (eval_bool
       (Expr.Apply
          ( "any-of-all",
            [
              Expr.Function_ref "string-less-than";
              Expr.Apply ("string-bag", [ lit_str "aaa"; lit_str "zzz" ]);
              Expr.Apply ("string-bag", [ lit_str "bbb"; lit_str "ccc" ]);
            ] )))

let test_expr_map () =
  let e =
    Expr.Apply
      ( "string-is-in",
        [
          lit_str "DOCTOR";
          Expr.Apply
            ( "map",
              [
                Expr.Function_ref "string-normalize-to-lower-case";
                Expr.Apply ("string-bag", [ lit_str "DOCTOR" ]);
              ] );
        ] )
  in
  (* map lower-cases, so "DOCTOR" is no longer in the bag *)
  check bool_ "map applied" false (eval_bool e)

let test_expr_function_ref_misuse () =
  check bool_ "bare function ref" true
    ((eval_err (Expr.Function_ref "string-equal")).Expr.code = Expr.Syntax);
  check bool_ "unknown function" true
    ((eval_err (Expr.Apply ("frobnicate", []))).Expr.code = Expr.Syntax);
  check bool_ "ho without ref" true
    ((eval_err (Expr.Apply ("any-of", [ lit_str "x"; lit_str "y"; lit_str "z" ]))).Expr.code
    = Expr.Syntax)

let test_expr_one_of_helper () =
  check bool_ "one_of hit" true (eval_bool (Expr.one_of (Expr.subject_attr "role") [ "nurse"; "doctor" ]));
  check bool_ "one_of miss" false (eval_bool (Expr.one_of (Expr.subject_attr "role") [ "nurse"; "admin" ]))

let test_expr_validate () =
  check int_ "clean" 0 (List.length (Expr.validate (Expr.Apply ("and", [ lit_bool true ]))));
  check bool_ "unknown fn" true (Expr.validate (Expr.Apply ("nope", [])) <> []);
  check bool_ "bad arity" true (Expr.validate (Expr.Apply ("not", [ lit_bool true; lit_bool true ])) <> []);
  check bool_ "misplaced ref" true (Expr.validate (Expr.Apply ("and", [ Expr.Function_ref "not" ])) <> []);
  check int_ "ref ok in ho position" 0
    (List.length
       (Expr.validate
          (Expr.Apply ("any-of", [ Expr.Function_ref "string-equal"; lit_str "x"; Expr.subject_attr "role" ]))))

(* The registry as validation reads it: a known name, an unknown one, a
   fixed arity and a variadic one. *)
let test_expr_registry () =
  let problems e = List.length (Expr.validate e) in
  check int_ "known" 0 (problems (Expr.Apply ("string-equal", [ lit_str "a"; lit_str "b" ])));
  check int_ "unknown" 1 (problems (Expr.Apply ("frobnicate", [])));
  check int_ "arity fixed" 1 (problems (Expr.Apply ("not", [])));
  check int_ "arity variadic" 0
    (problems (Expr.Apply ("and", [ lit_bool true; lit_bool true; lit_bool true ])))

(* --- targets ------------------------------------------------------------------ *)

let test_target_any () =
  check bool_ "any matches" true (Target.evaluate ctx Target.any = Target.Match)

let test_target_sections () =
  let t = Target.(action_is "action-id" "read" any) in
  check bool_ "action matches" true (Target.evaluate ctx t = Target.Match);
  let t = Target.(action_is "action-id" "write" any) in
  check bool_ "action mismatch" true (Target.evaluate ctx t = Target.No_match);
  let t = Target.(subject_is "role" "doctor" any) in
  check bool_ "role in bag matches" true (Target.evaluate ctx t = Target.Match)

let test_target_conjunction () =
  (* One clause requiring both role=doctor and role=admin: the bag has
     doctor but not admin, so the clause fails. *)
  let t =
    {
      Target.any with
        subjects = [ [ match_string Context.Subject "role" "doctor"; match_string Context.Subject "role" "admin" ] ]
    }
  in
  check bool_ "conjunction fails" true (Target.evaluate ctx t = Target.No_match);
  (* Two separate clauses (disjunction): doctor matches. *)
  let t =
    { Target.any with subjects = [
          [ match_string Context.Subject "role" "admin" ];
          [ match_string Context.Subject "role" "doctor" ];
        ] }
  in
  check bool_ "disjunction matches" true (Target.evaluate ctx t = Target.Match)

let test_target_multi_section () =
  let t = Target.(any |> subject_is "role" "doctor" |> action_is "action-id" "read") in
  check bool_ "both sections" true (Target.evaluate ctx t = Target.Match);
  let t = Target.(any |> subject_is "role" "doctor" |> action_is "action-id" "write") in
  check bool_ "one section fails" true (Target.evaluate ctx t = Target.No_match)

let test_target_unknown_function () =
  let t =
    {
      Target.any with
        subjects = [ [ Target.make_match ~fn:"bogus" ~value:(Value.String "x") ~category:Context.Subject ~attribute_id:"role" ] ]
    }
  in
  match Target.evaluate ctx t with
  | Target.Indeterminate_match _ -> ()
  | _ -> Alcotest.fail "expected indeterminate"

let test_target_resolver () =
  let resolve category id =
    if category = Context.Subject && id = "org" then Some [ Value.String "hospital-a" ] else None
  in
  let t = Target.(any |> subject_is "org" "hospital-a") in
  check bool_ "without resolver no match" true (Target.evaluate ctx t = Target.No_match);
  check bool_ "with resolver match" true (Target.evaluate ~resolve ctx t = Target.Match)

(* --- rules ----------------------------------------------------------------------- *)

let test_rule_plain () =
  let r = Rule.permit "r1" in
  check_decision "permit" Decision.Permit (Rule.evaluate ctx r);
  let r = Rule.deny "r2" in
  check_decision "deny" Decision.Deny (Rule.evaluate ctx r)

let test_rule_target () =
  let r = Rule.permit ~target:(Target.(action_is "action-id" "write" any)) "r" in
  check_decision "target mismatch" Decision.Not_applicable (Rule.evaluate ctx r)

let test_rule_condition () =
  let cond = Expr.Apply ("string-is-in", [ lit_str "doctor"; Expr.subject_attr "role" ]) in
  let r = Rule.permit ~condition:cond "r" in
  check_decision "condition true" Decision.Permit (Rule.evaluate ctx r);
  let cond = Expr.Apply ("string-is-in", [ lit_str "nurse"; Expr.subject_attr "role" ]) in
  let r = Rule.permit ~condition:cond "r" in
  check_decision "condition false" Decision.Not_applicable (Rule.evaluate ctx r)

let test_rule_condition_error () =
  let cond = Expr.Apply ("integer-divide", [ lit_int 1; lit_int 0 ]) in
  let r = Rule.permit ~condition:(Expr.Apply ("integer-equal", [ cond; lit_int 1 ])) "r" in
  check_decision "condition error" (Decision.Indeterminate "") (Rule.evaluate ctx r)

(* --- combining algorithms ----------------------------------------------------------- *)

(* A child of the combining tests: its name, target outcome and result.
   The environment records the names of the children evaluated, newest
   first. *)
type test_child = { name : string; applies : Target.outcome; result : Decision.result }

let test_children =
  {
    Combine.first = (fun _ children -> children);
    next = (fun _ _ children -> List.tl children);
    finished = List.is_empty;
    label = (fun _ children -> (List.hd children).name);
    applicability = (fun _ _ _ children -> (List.hd children).applies);
    evaluate =
      (fun evaluated _ _ children ->
        let c = List.hd children in
        evaluated := c.name :: !evaluated;
        c.result);
  }

let combine ?(evaluated = ref []) algorithm children =
  Combine.combine algorithm test_children evaluated ctx children

let const_child name result = { name; applies = Target.Match; result }
let na_child name = { name; applies = Target.No_match; result = Decision.not_applicable }

let test_deny_overrides () =
  let c = combine Combine.Deny_overrides in
  check_decision "deny wins" Decision.Deny
    (c [ const_child "a" Decision.permit; const_child "b" Decision.deny ]);
  check_decision "permit when no deny" Decision.Permit
    (c [ const_child "a" Decision.permit; na_child "b" ]);
  check_decision "indeterminate is potential deny" (Decision.Indeterminate "")
    (c [ const_child "a" (Decision.indeterminate "boom"); const_child "b" Decision.permit ]);
  check_decision "all NA" Decision.Not_applicable (c [ na_child "a"; na_child "b" ]);
  check_decision "empty" Decision.Not_applicable (c [])

let test_deny_overrides_short_circuit () =
  let evaluated = ref [] in
  let r =
    combine ~evaluated Combine.Deny_overrides
      [ const_child "a" Decision.deny; const_child "b" Decision.permit ]
  in
  check_decision "deny" Decision.Deny r;
  check (Alcotest.list string_) "b never evaluated" [ "a" ] (List.rev !evaluated)

let test_permit_overrides () =
  let c = combine Combine.Permit_overrides in
  check_decision "permit wins" Decision.Permit
    (c [ const_child "a" Decision.deny; const_child "b" Decision.permit ]);
  check_decision "deny when no permit" Decision.Deny
    (c [ const_child "a" Decision.deny; na_child "b" ]);
  check_decision "indeterminate beats deny" (Decision.Indeterminate "")
    (c [ const_child "a" (Decision.indeterminate "x"); const_child "b" Decision.deny ]);
  check_decision "permit beats indeterminate" Decision.Permit
    (c [ const_child "a" (Decision.indeterminate "x"); const_child "b" Decision.permit ])

let test_first_applicable () =
  let c = combine Combine.First_applicable in
  check_decision "first decides" Decision.Deny
    (c [ na_child "a"; const_child "b" Decision.deny; const_child "c" Decision.permit ]);
  check_decision "indeterminate stops" (Decision.Indeterminate "")
    (c [ const_child "a" (Decision.indeterminate "x"); const_child "b" Decision.permit ]);
  check_decision "all NA" Decision.Not_applicable (c [ na_child "a" ])

let test_only_one_applicable () =
  let c = combine Combine.Only_one_applicable in
  check_decision "single applicable" Decision.Permit
    (c [ na_child "a"; const_child "b" Decision.permit ]);
  check_decision "two applicable is an error" (Decision.Indeterminate "")
    (c [ const_child "a" Decision.permit; const_child "b" Decision.permit ]);
  check_decision "none applicable" Decision.Not_applicable (c [ na_child "a"; na_child "b" ]);
  let bad_target = { name = "x"; applies = Target.Indeterminate_match "boom"; result = Decision.permit } in
  check_decision "indeterminate applicability" (Decision.Indeterminate "") (c [ bad_target ])

let test_ordered_variants_match () =
  let children = [ const_child "a" Decision.permit; const_child "b" Decision.deny ] in
  check bool_ "ordered deny = deny" true
    (Decision.equal_decision
       (combine Combine.Ordered_deny_overrides children).Decision.decision
       (combine Combine.Deny_overrides children).Decision.decision);
  check bool_ "names roundtrip" true
    (List.for_all (fun a -> Combine.of_name (Combine.name a) = Some a) Combine.all)

(* --- policies ------------------------------------------------------------------------ *)

let doctor_read_policy =
  Policy.make ~id:"doctor-read" ~rule_combining:Combine.First_applicable
    [
      Rule.permit
        ~target:Target.(any |> subject_is "role" "doctor" |> action_is "action-id" "read")
        "permit-doctor-read";
      Rule.deny "default-deny";
    ]

let test_policy_eval () =
  check_decision "doctor read permitted" Decision.Permit (Policy.evaluate ctx doctor_read_policy);
  let nurse_ctx =
    Context.make
      ~subject:[ ("subject-id", Value.String "bob"); ("role", Value.String "nurse") ]
      ~resource:[ ("resource-id", Value.String "patient-records") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  check_decision "nurse denied" Decision.Deny (Policy.evaluate nurse_ctx doctor_read_policy)

(* Policy.make builds an untargeted policy without variables; the
   parser fills these fields from a document, and so do these. *)
let targeted target p = { p with Policy.target }
let with_variables variables p = { p with Policy.variables }

let test_policy_target_gates_rules () =
  let p =
    targeted Target.(action_is "action-id" "write" any) (Policy.make ~id:"p" [ Rule.permit "r" ])
  in
  check_decision "policy NA" Decision.Not_applicable (Policy.evaluate ctx p)

let test_policy_obligations () =
  let p =
    Policy.make ~id:"p"
      ~obligations:[ Obligation.audit; { Obligation.id = "urn:deny-ob"; fulfill_on = Deny; parameters = [] } ]
      [ Rule.permit "r" ]
  in
  let r = Policy.evaluate ctx p in
  check_decision "permit" Decision.Permit r;
  check int_ "only permit obligations" 1 (List.length r.Decision.obligations);
  check string_ "audit" "urn:dacs:obligation:audit" (List.hd r.Decision.obligations).Obligation.id

let test_policy_set_nesting () =
  let inner_deny = Policy.make ~id:"deny-all" [ Rule.deny "d" ] in
  let set =
    Policy.make_set ~id:"root" ~policy_combining:Combine.Deny_overrides
      [
        Policy.Inline_policy doctor_read_policy;
        Policy.Inline_set
          {
            (Policy.make_set ~id:"inner" [ Policy.Inline_policy inner_deny ]) with
            Policy.set_target = Target.(action_is "action-id" "write" any);
          };
      ]
  in
  (* The inner set's target is write, so for a read request only
     doctor-read applies. *)
  check_decision "nested" Decision.Permit (Policy.evaluate_child ctx (Policy.Inline_set set))

let test_policy_refs () =
  let lookup = function
    | "doctor-read" -> Some (Policy.Inline_policy doctor_read_policy)
    | "looping" -> Some (Policy.Policy_ref "looping")
    | _ -> None
  in
  let set = Policy.make_set ~id:"root" [ Policy.Policy_ref "doctor-read" ] in
  check_decision "resolved ref" Decision.Permit
    (Policy.evaluate_child ~resolve_ref:lookup ctx (Policy.Inline_set set));
  check_decision "unresolved ref" (Decision.Indeterminate "")
    (Policy.evaluate_child ctx (Policy.Inline_set set));
  let missing = Policy.make_set ~id:"root" [ Policy.Policy_ref "nope" ] in
  check_decision "missing ref" (Decision.Indeterminate "")
    (Policy.evaluate_child ~resolve_ref:lookup ctx (Policy.Inline_set missing));
  let loop = Policy.make_set ~id:"root" [ Policy.Policy_ref "looping" ] in
  check_decision "ref-to-ref rejected" (Decision.Indeterminate "")
    (Policy.evaluate_child ~resolve_ref:lookup ctx (Policy.Inline_set loop))

let test_policy_rule_counts () =
  check int_ "rule count" 2 (Policy.rule_count doctor_read_policy);
  let set =
    Policy.make_set ~id:"s"
      [
        Policy.Inline_policy doctor_read_policy;
        Policy.Inline_set (Policy.make_set ~id:"s2" [ Policy.Inline_policy doctor_read_policy ]);
      ]
  in
  check int_ "recursive count" 4 (Compiled.rule_count (Compiled.compile (Policy.Inline_set set)))

(* --- xml round-trips ------------------------------------------------------------------- *)

let complex_policy =
  {
    (Policy.make ~id:"complex" ~description:"a complex policy" ~issuer:"domain-a"
    ~rule_combining:Combine.Permit_overrides
    ~obligations:[ Obligation.encrypt_response ~strength:128 ]
    [
      Rule.permit ~description:"doctors read"
        ~target:Target.(any |> subject_is "role" "doctor")
        ~condition:
          (Expr.Apply
             ( "time-in-range",
               [
                 Expr.Apply ("time-one-and-only", [ Expr.Designator
                       { category = Context.Environment; attribute_id = "time"; must_be_present = true } ]);
                 lit_time 0.0;
                 lit_time 86400.0;
               ] ))
        "r1";
      Rule.deny "r2";
    ])
    with
    Policy.version = 3;
    target = Target.(any |> resource_is "resource-id" "patient-records");
  }

(* A policy read back through the one tree reader, [child_of_xml]. *)
let policy_roundtrip p =
  match Xacml_xml.child_of_xml (Xacml_xml.policy_to_xml p) with
  | Ok (Policy.Inline_policy p') -> Ok p'
  | Ok _ -> Error "expected a policy"
  | Error e -> Error e

(* A decision result written by [write_result] and read back by
   [read_result]. *)
let result_roundtrip r =
  let buf = Buffer.create 128 in
  Xacml_xml.write_result buf r;
  Dacs_xml.Xml.Cursor.parse (Buffer.contents buf) Xacml_xml.read_result

let test_xml_policy_roundtrip () =
  match policy_roundtrip complex_policy with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check string_ "id" "complex" p.Policy.id;
    check int_ "version" 3 p.Policy.version;
    check string_ "issuer" "domain-a" p.Policy.issuer;
    check bool_ "combining" true (p.Policy.rule_combining = Combine.Permit_overrides);
    check int_ "rules" 2 (List.length p.Policy.rules);
    check int_ "obligations" 1 (List.length p.Policy.obligations);
    (* Semantics preserved: same decision on the same request. *)
    check bool_ "same decision" true
      (Decision.equal_decision
         (Policy.evaluate ctx complex_policy).Decision.decision
         (Policy.evaluate ctx p).Decision.decision)

let test_xml_set_roundtrip () =
  let set =
    {
      (Policy.make_set ~id:"root" ~policy_combining:Combine.Only_one_applicable
         [
           Policy.Inline_policy complex_policy;
           Policy.Policy_ref "external-policy";
           Policy.Inline_set (Policy.make_set ~id:"nested" [ Policy.Inline_policy doctor_read_policy ]);
         ])
      with
      Policy.set_description = "top";
    }
  in
  let s = Xacml_xml.child_to_string (Policy.Inline_set set) in
  match Xacml_xml.child_of_string s with
  | Error e -> Alcotest.fail e
  | Ok (Policy.Inline_set set') ->
    check string_ "id" "root" set'.Policy.set_id;
    check int_ "children" 3 (List.length set'.Policy.children);
    check bool_ "ref preserved" true
      (List.exists (function Policy.Policy_ref "external-policy" -> true | _ -> false) set'.Policy.children)
  | Ok _ -> Alcotest.fail "expected a set"

let test_xml_expr_roundtrip () =
  let e =
    Expr.Apply
      ( "any-of",
        [ Expr.Function_ref "string-equal"; lit_str "doctor"; Expr.Designator { Expr.category = Dacs_policy.Context.Subject; attribute_id = "role"; must_be_present = true } ] )
  in
  (* An expression travels as a rule's condition. *)
  match policy_roundtrip (Policy.make ~id:"p" [ Rule.permit ~condition:e "r" ]) with
  | Ok { Policy.rules = [ { Rule.condition = Some e'; _ } ]; _ } -> check bool_ "same" true (e = e')
  | Ok _ -> Alcotest.fail "expected one rule with a condition"
  | Error err -> Alcotest.fail err

let test_xml_result_roundtrip () =
  let r =
    Decision.with_obligations Decision.permit [ Obligation.encrypt_response ~strength:256 ]
  in
  (match result_roundtrip r with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    check_decision "decision" Decision.Permit r';
    check int_ "obligations" 1 (List.length r'.Decision.obligations));
  (* Indeterminate keeps its status message. *)
  let r = Decision.indeterminate "something broke" in
  match result_roundtrip r with
  | Ok { Decision.decision = Decision.Indeterminate m; _ } ->
    check string_ "status" "something broke" m
  | _ -> Alcotest.fail "expected indeterminate"

let test_xml_errors () =
  check bool_ "garbage" true (Result.is_error (Xacml_xml.child_of_string "not xml"));
  check bool_ "wrong element" true (Result.is_error (Xacml_xml.child_of_string "<Wat/>"));
  check bool_ "bad combining" true
    (Result.is_error (Xacml_xml.child_of_string "<Policy PolicyId=\"p\" RuleCombiningAlgId=\"bogus\"/>"));
  check bool_ "missing id" true
    (Result.is_error (Xacml_xml.child_of_string "<Policy RuleCombiningAlgId=\"deny-overrides\"/>"))

(* --- validation -------------------------------------------------------------------------- *)

let test_validate_ok () =
  check int_ "complex policy clean" 0 (List.length (Validate.check_child (Policy.Inline_policy complex_policy)))

let test_validate_catches () =
  let dup = Policy.make ~id:"p" [ Rule.permit "r"; Rule.deny "r" ] in
  check bool_ "duplicate rule ids" true (Validate.check_child (Policy.Inline_policy dup) <> []);
  let empty = Policy.make ~id:"p" [] in
  check bool_ "no rules" true (Validate.check_child (Policy.Inline_policy empty) <> []);
  let bad_combining = Policy.make ~id:"p" ~rule_combining:Combine.Only_one_applicable [ Rule.permit "r" ] in
  check bool_ "bad combining" true (Validate.check_child (Policy.Inline_policy bad_combining) <> []);
  let bad_expr = Policy.make ~id:"p" [ Rule.permit ~condition:(Expr.Apply ("nope", [])) "r" ] in
  check bool_ "unknown function" true (Validate.check_child (Policy.Inline_policy bad_expr) <> []);
  let bad_match =
    targeted
      {
        Target.any with
        subjects = [ [ Target.make_match ~fn:"nope" ~value:(Value.String "x") ~category:Context.Subject ~attribute_id:"a" ] ];
      }
      (Policy.make ~id:"p" [ Rule.permit "r" ])
  in
  check bool_ "unknown match fn" true (Validate.check_child (Policy.Inline_policy bad_match) <> []);
  let dup_set =
    Policy.make_set ~id:"s" [ Policy.Inline_policy dup; Policy.Inline_policy dup ]
  in
  check bool_ "set reports recursively and dups" true
    (List.length (Validate.check_child (Policy.Inline_set dup_set)) >= 3)


let test_shadowed_rules () =
  (* default-deny style: permit rule, then wildcard deny, then a dead rule. *)
  let p =
    Policy.make ~id:"p" ~rule_combining:Combine.First_applicable
      [
        Rule.permit ~target:(Target.(action_is "action-id" "read" any)) "read-ok";
        Rule.deny "catch-all";
        Rule.permit ~target:(Target.(action_is "action-id" "write" any)) "never-reached";
        Rule.deny ~target:(Target.(action_is "action-id" "read" any)) "also-dead";
      ]
  in
  check (Alcotest.list (Alcotest.pair string_ string_)) "dead rules found"
    [ ("catch-all", "never-reached"); ("read-ok", "also-dead") ]
    (Validate.shadowed_rules p);
  (* Exact-duplicate targets shadow too. *)
  let dup =
    Policy.make ~id:"p" ~rule_combining:Combine.First_applicable
      [
        Rule.permit ~target:(Target.(action_is "action-id" "read" any)) "first";
        Rule.deny ~target:(Target.(action_is "action-id" "read" any)) "second";
      ]
  in
  check int_ "duplicate target shadowed" 1 (List.length (Validate.shadowed_rules dup));
  (* A condition keeps later rules reachable. *)
  let guarded =
    Policy.make ~id:"p" ~rule_combining:Combine.First_applicable
      [
        Rule.permit ~condition:(lit_bool true) "guarded";
        Rule.deny "reachable";
      ]
  in
  check int_ "condition blocks the lint" 0 (List.length (Validate.shadowed_rules guarded));
  (* Other combining algorithms are exempt. *)
  let deny_overrides = { p with Policy.rule_combining = Combine.Deny_overrides } in
  check int_ "only first-applicable" 0 (List.length (Validate.shadowed_rules deny_overrides))

module Astring_find = struct
  let find needle haystack =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
end

(* --- variables ------------------------------------------------------------------------------ *)

let clearance_policy =
  (* A variable used by two rules: subject clearance as an integer. *)
  with_variables
    [
      ( "clearance",
        Expr.Apply ("integer-one-and-only", [ Expr.Designator { Expr.category = Dacs_policy.Context.Subject; attribute_id = "clearance"; must_be_present = true } ]) );
      ("is-senior", Expr.Apply ("integer-greater-than", [ Expr.Variable_ref "clearance"; lit_int 5 ]));
    ]
  @@ Policy.make ~id:"vars" ~rule_combining:Combine.First_applicable
    [
      Rule.permit
        ~condition:(Expr.Variable_ref "is-senior")
        "senior-full-access";
      Rule.permit
        ~condition:(Expr.Apply ("integer-greater-than", [ Expr.Variable_ref "clearance"; lit_int 2 ]))
        ~target:(Target.(action_is "action-id" "read" any))
        "cleared-read";
      Rule.deny "default-deny";
    ]

let ctx_with_clearance n action =
  Context.make
    ~subject:[ ("subject-id", Value.String "u"); ("clearance", Value.Int n) ]
    ~action:[ ("action-id", Value.String action) ]
    ()

let test_variables_evaluation () =
  check_decision "senior writes" Decision.Permit
    (Policy.evaluate (ctx_with_clearance 7 "write") clearance_policy);
  check_decision "mid-clearance reads" Decision.Permit
    (Policy.evaluate (ctx_with_clearance 4 "read") clearance_policy);
  check_decision "mid-clearance cannot write" Decision.Deny
    (Policy.evaluate (ctx_with_clearance 4 "write") clearance_policy);
  check_decision "low clearance denied" Decision.Deny
    (Policy.evaluate (ctx_with_clearance 1 "read") clearance_policy)

let test_variables_undefined_is_indeterminate () =
  let p =
    Policy.make ~id:"p" ~rule_combining:Combine.First_applicable
      [ Rule.permit ~condition:(Expr.Variable_ref "ghost") "r" ]
  in
  check_decision "undefined variable" (Decision.Indeterminate "") (Policy.evaluate ctx p)

let test_variables_xml_roundtrip () =
  match policy_roundtrip clearance_policy with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check int_ "definitions preserved" 2 (List.length p.Policy.variables);
    check bool_ "same decisions" true
      (List.for_all
         (fun (n, action) ->
           Decision.equal_decision
             (Policy.evaluate (ctx_with_clearance n action) clearance_policy).Decision.decision
             (Policy.evaluate (ctx_with_clearance n action) p).Decision.decision)
         [ (7, "write"); (4, "read"); (4, "write"); (1, "read") ])

let test_variables_validation () =
  check int_ "clearance policy clean" 0 (List.length (Validate.check_child (Policy.Inline_policy clearance_policy)));
  let cyclic =
    with_variables
      [ ("a", Expr.Variable_ref "b"); ("b", Expr.Variable_ref "a") ]
      (Policy.make ~id:"p" [ Rule.permit "r" ])
  in
  check bool_ "cycle reported" true
    (List.exists
       (fun pr -> Astring_find.find "cycle" (Validate.problem_to_string pr))
       (Validate.check_child (Policy.Inline_policy cyclic)));
  let undefined =
    Policy.make ~id:"p" [ Rule.permit ~condition:(Expr.Variable_ref "nope") "r" ]
  in
  check bool_ "undefined reported" true
    (List.exists
       (fun pr -> Astring_find.find "undefined" (Validate.problem_to_string pr))
       (Validate.check_child (Policy.Inline_policy undefined)));
  let dup =
    with_variables
      [ ("a", lit_bool true); ("a", lit_bool false) ]
      (Policy.make ~id:"p" [ Rule.permit "r" ])
  in
  check bool_ "duplicate reported" true
    (List.exists
       (fun pr -> Astring_find.find "duplicate variable" (Validate.problem_to_string pr))
       (Validate.check_child (Policy.Inline_policy dup)));
  (* A cyclic policy still evaluates (to Indeterminate), never loops. *)
  check_decision "cycle evaluates safely" (Decision.Indeterminate "")
    (Policy.evaluate ctx
       (with_variables
          [ ("a", Expr.Variable_ref "a") ]
          (Policy.make ~id:"p" ~rule_combining:Combine.First_applicable
             [ Rule.permit ~condition:(Expr.Variable_ref "a") "r" ])))

(* --- target-indexed dispatch ---------------------------------------------------------------------- *)

(* The compiled evaluator buckets rules by their resource-id pins; these
   check that dispatch through the buckets decides as the linear walk does. *)

let resource_rule effect i =
  let mk = match effect with Rule.Permit -> Rule.permit | Rule.Deny -> Rule.deny in
  mk
    ~target:Target.(any |> resource_is "resource-id" (Printf.sprintf "res%d" i))
    (Printf.sprintf "rule-%d" i)

let indexed_policy =
  Policy.make ~id:"big" ~rule_combining:Combine.First_applicable
    (List.init 100 (fun i -> resource_rule (if i mod 3 = 0 then Rule.Deny else Rule.Permit) i)
    @ [ Rule.deny "fallback-deny" ])

let compile_policy p = Compiled.compile (Policy.Inline_policy p)

let resource_ctx i =
  Context.make ~subject:[ ("subject-id", Value.String "alice"); ("role", Value.String "doctor") ]
    ~resource:[ ("resource-id", Value.String (Printf.sprintf "res%d" i)) ]
    ~action:[ ("action-id", Value.String "read") ]
    ()

let test_index_equivalence () =
  let idx = compile_policy indexed_policy in
  check int_ "rule count" 101 (Compiled.rule_count idx);
  check int_ "buckets" 100 (Compiled.bucket_count idx);
  List.iter
    (fun i ->
      check decision_testable
        (Printf.sprintf "res%d same decision" i)
        (Policy.evaluate (resource_ctx i) indexed_policy).Decision.decision
        (Compiled.evaluate (resource_ctx i) idx).Decision.decision)
    [ 0; 1; 2; 50; 99; 1000 (* unknown resource -> fallback deny *) ]

let test_index_selectivity () =
  let idx = compile_policy indexed_policy in
  (* A request for one resource considers its bucket plus the fallback. *)
  check int_ "two candidates" 2 (Compiled.candidate_count idx (resource_ctx 5));
  (* No resource-id: the pre-filter cannot prune. *)
  check int_ "no pruning without resource-id" 101
    (Compiled.candidate_count idx (Context.make ~subject:[ ("subject-id", Value.String "a") ] ()))

let test_index_respects_document_order () =
  (* Two rules for the same resource with opposite effects: first-applicable
     must pick the first, in both evaluation paths. *)
  let p =
    Policy.make ~id:"p" ~rule_combining:Combine.First_applicable
      [
        Rule.deny ~target:Target.(any |> resource_is "resource-id" "x") "deny-first";
        Rule.permit ~target:Target.(any |> resource_is "resource-id" "x") "permit-second";
      ]
  in
  let ctx = Context.make ~resource:[ ("resource-id", Value.String "x") ] () in
  check_decision "linear" Decision.Deny (Policy.evaluate ctx p);
  check_decision "indexed" Decision.Deny (Compiled.evaluate ctx (compile_policy p))

let prop_index_equivalent =
  (* Random policies over a small resource pool: indexed and linear
     evaluation always agree. *)
  let gen =
    QCheck.Gen.(
      let rule =
        map2
          (fun effect i ->
            let mk = if effect then Rule.permit else Rule.deny in
            mk
              ~target:Target.(any |> resource_is "resource-id" (Printf.sprintf "res%d" i))
              (Printf.sprintf "r-%d-%b" i effect))
          bool (0 -- 5)
      in
      let unconstrained = map (fun b -> if b then Rule.permit "free-permit" else Rule.deny "free-deny") bool in
      list_size (1 -- 12) (frequency [ (4, rule); (1, unconstrained) ]) >>= fun rules ->
      oneofl Combine.[ Deny_overrides; Permit_overrides; First_applicable ] >>= fun alg ->
      (* De-duplicate rule ids (validation aside, duplicate ids are fine for evaluation). *)
      let rules = List.mapi (fun i r -> { r with Rule.id = Printf.sprintf "%s-%d" r.Rule.id i }) rules in
      return (Policy.make ~id:"gen" ~rule_combining:alg rules))
  in
  QCheck.Test.make ~name:"indexed evaluation = linear evaluation" ~count:300
    (QCheck.make ~print:(fun p -> Xacml_xml.child_to_string (Policy.Inline_policy p)) gen)
    (fun p ->
      let idx = compile_policy p in
      List.for_all
        (fun i ->
          Decision.equal_decision
            (Policy.evaluate (resource_ctx i) p).Decision.decision
            (Compiled.evaluate (resource_ctx i) idx).Decision.decision)
        [ 0; 1; 2; 3; 4; 5; 99 ])

(* --- explanation ------------------------------------------------------------------------------- *)

let test_explain_structure () =
  let tree, result = Explain.explain ctx (Policy.Inline_policy doctor_read_policy) in
  check bool_ "same decision" true
    (Decision.equal_decision result.Decision.decision
       (Policy.evaluate ctx doctor_read_policy).Decision.decision);
  check string_ "policy label" "policy doctor-read" tree.Explain.label;
  check int_ "both rules explained" 2 (List.length tree.Explain.children);
  let rendered = Explain.to_string tree in
  check bool_ "mentions rule" true (Astring_find.find "permit-doctor-read" rendered);
  check bool_ "mentions outcome" true (Astring_find.find "Permit" rendered)

let test_explain_skips_unmatched () =
  (* When the policy target misses, no rule nodes are produced. *)
  let p = targeted Target.(action_is "action-id" "write" any) (Policy.make ~id:"p" [ Rule.permit "r" ]) in
  let tree, result = Explain.explain ctx (Policy.Inline_policy p) in
  check bool_ "not applicable" true (result.Decision.decision = Decision.Not_applicable);
  check int_ "no children" 0 (List.length tree.Explain.children);
  check bool_ "explains why" true (Astring_find.find "no match" tree.Explain.detail)

let test_explain_condition_detail () =
  let p =
    Policy.make ~id:"p" ~rule_combining:Combine.First_applicable
      [
        Rule.permit
          ~condition:(Expr.Apply ("string-is-in", [ lit_str "nurse"; Expr.subject_attr "role" ]))
          "needs-nurse";
        Rule.deny "fallback";
      ]
  in
  let tree, _ = Explain.explain ctx (Policy.Inline_policy p) in
  match tree.Explain.children with
  | first :: _ ->
    check bool_ "condition shown false" true (Astring_find.find "condition = false" first.Explain.detail)
  | [] -> Alcotest.fail "expected rule nodes"

let test_explain_nested_sets_and_refs () =
  let inner = Policy.make_set ~id:"inner" [ Policy.Inline_policy doctor_read_policy ] in
  let set =
    Policy.make_set ~id:"root" [ Policy.Inline_set inner; Policy.Policy_ref "doctor-read" ]
  in
  let tree, result = Explain.explain ctx (Policy.Inline_set set) in
  check int_ "two child nodes" 2 (List.length tree.Explain.children);
  (match tree.Explain.children with
  | [ nested; reference ] ->
    check bool_ "nested set has inner node" true (nested.Explain.children <> []);
    check bool_ "a reference is unresolvable" true
      (Astring_find.find "unresolvable" reference.Explain.detail)
  | _ -> Alcotest.fail "unexpected shape");
  ignore result


(* --- property tests ---------------------------------------------------------------------------- *)

let gen_effect = QCheck.Gen.oneofl [ Rule.Permit; Rule.Deny ]

let gen_rule =
  QCheck.Gen.(
    map2
      (fun effect n -> Rule.make effect (Printf.sprintf "r%d" n))
      gen_effect (0 -- 1000))

let gen_policy =
  QCheck.Gen.(
    map2
      (fun rules alg ->
        Policy.make ~id:"gen"
          ~rule_combining:alg
          (List.mapi (fun i r -> { r with Rule.id = Printf.sprintf "r%d" i }) rules))
      (list_size (1 -- 8) gen_rule)
      (oneofl Combine.[ Deny_overrides; Permit_overrides; First_applicable ]))

let arb_policy =
  QCheck.make
    ~print:(fun p -> Xacml_xml.child_to_string (Policy.Inline_policy p))
    gen_policy

let prop_xml_roundtrip_preserves_decision =
  QCheck.Test.make ~name:"XML roundtrip preserves decisions" ~count:200 arb_policy (fun p ->
      match policy_roundtrip p with
      | Error _ -> false
      | Ok p' ->
        Decision.equal_decision
          (Policy.evaluate ctx p).Decision.decision
          (Policy.evaluate ctx p').Decision.decision)

let prop_explain_agrees =
  QCheck.Test.make ~name:"explain returns the engine's decision" ~count:200 arb_policy (fun p ->
      let _, explained = Explain.explain ctx (Policy.Inline_policy p) in
      Decision.equal_decision explained.Decision.decision
        (Policy.evaluate ctx p).Decision.decision)

let prop_deny_overrides_never_permits_when_deny_present =
  QCheck.Test.make ~name:"deny-overrides never permits past a deny" ~count:200 arb_policy (fun p ->
      let p = { p with Policy.rule_combining = Combine.Deny_overrides } in
      let has_deny = List.exists (fun r -> r.Rule.effect = Rule.Deny) p.Policy.rules in
      let d = (Policy.evaluate ctx p).Decision.decision in
      (not has_deny) || d = Decision.Deny)

let prop_permit_overrides_dual =
  QCheck.Test.make ~name:"permit-overrides permits when any permit rule applies" ~count:200
    arb_policy (fun p ->
      let p = { p with Policy.rule_combining = Combine.Permit_overrides } in
      let has_permit = List.exists (fun r -> r.Rule.effect = Rule.Permit) p.Policy.rules in
      let d = (Policy.evaluate ctx p).Decision.decision in
      (not has_permit) || d = Decision.Permit)

let prop_first_applicable_is_first_rule =
  QCheck.Test.make ~name:"first-applicable = first rule (no targets/conditions)" ~count:200
    arb_policy (fun p ->
      let p = { p with Policy.rule_combining = Combine.First_applicable } in
      match p.Policy.rules with
      | [] -> true
      | first :: _ ->
        (Policy.evaluate ctx p).Decision.decision =
        match first.Rule.effect with Rule.Permit -> Decision.Permit | Rule.Deny -> Decision.Deny)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_xml_roundtrip_preserves_decision;
      prop_explain_agrees;
      prop_deny_overrides_never_permits_when_deny_present;
      prop_permit_overrides_dual;
      prop_first_applicable_is_first_rule;
    ]

let () =
  Alcotest.run "dacs_policy"
    [
      ( "value",
        [
          Alcotest.test_case "types" `Quick test_value_types;
          Alcotest.test_case "equality" `Quick test_value_equal;
          Alcotest.test_case "comparison" `Quick test_value_compare;
          Alcotest.test_case "parsing" `Quick test_value_parse;
          Alcotest.test_case "Double and Time render exactly" `Quick test_value_exact_floats;
          Alcotest.test_case "bags" `Quick test_value_bags;
        ] );
      ( "context",
        [
          Alcotest.test_case "bags" `Quick test_context_bags;
          Alcotest.test_case "XML roundtrip" `Quick test_context_xml_roundtrip;
          Alcotest.test_case "XML errors" `Quick test_context_xml_errors;
          Alcotest.test_case "compact form errors" `Quick test_compact_errors;
          QCheck_alcotest.to_alcotest prop_compact_roundtrip;
          QCheck_alcotest.to_alcotest prop_compact_truncated;
          QCheck_alcotest.to_alcotest prop_compact_mutated;
        ] );
      ( "expr",
        [
          Alcotest.test_case "equality functions" `Quick test_expr_equality_functions;
          Alcotest.test_case "comparisons" `Quick test_expr_comparisons;
          Alcotest.test_case "arithmetic" `Quick test_expr_arithmetic;
          Alcotest.test_case "logic" `Quick test_expr_logic;
          Alcotest.test_case "logic short-circuit" `Quick test_expr_logic_short_circuit;
          Alcotest.test_case "strings" `Quick test_expr_strings;
          Alcotest.test_case "regexp" `Quick test_expr_regexp;
          Alcotest.test_case "time-in-range" `Quick test_expr_time_in_range;
          Alcotest.test_case "designators and bags" `Quick test_expr_designators;
          Alcotest.test_case "missing attributes" `Quick test_expr_missing_attribute;
          Alcotest.test_case "PIP resolver" `Quick test_expr_resolver;
          Alcotest.test_case "set functions" `Quick test_expr_set_functions;
          Alcotest.test_case "higher-order" `Quick test_expr_higher_order;
          Alcotest.test_case "map" `Quick test_expr_map;
          Alcotest.test_case "function ref misuse" `Quick test_expr_function_ref_misuse;
          Alcotest.test_case "one_of helper" `Quick test_expr_one_of_helper;
          Alcotest.test_case "static validation" `Quick test_expr_validate;
          Alcotest.test_case "registry" `Quick test_expr_registry;
        ] );
      ( "target",
        [
          Alcotest.test_case "any" `Quick test_target_any;
          Alcotest.test_case "sections" `Quick test_target_sections;
          Alcotest.test_case "conjunction vs disjunction" `Quick test_target_conjunction;
          Alcotest.test_case "multiple sections" `Quick test_target_multi_section;
          Alcotest.test_case "unknown function" `Quick test_target_unknown_function;
          Alcotest.test_case "resolver" `Quick test_target_resolver;
        ] );
      ( "rule",
        [
          Alcotest.test_case "plain effects" `Quick test_rule_plain;
          Alcotest.test_case "target gating" `Quick test_rule_target;
          Alcotest.test_case "conditions" `Quick test_rule_condition;
          Alcotest.test_case "condition errors" `Quick test_rule_condition_error;
        ] );
      ( "combine",
        [
          Alcotest.test_case "deny-overrides" `Quick test_deny_overrides;
          Alcotest.test_case "deny-overrides short-circuit" `Quick test_deny_overrides_short_circuit;
          Alcotest.test_case "permit-overrides" `Quick test_permit_overrides;
          Alcotest.test_case "first-applicable" `Quick test_first_applicable;
          Alcotest.test_case "only-one-applicable" `Quick test_only_one_applicable;
          Alcotest.test_case "ordered variants" `Quick test_ordered_variants_match;
        ] );
      ( "policy",
        [
          Alcotest.test_case "evaluation" `Quick test_policy_eval;
          Alcotest.test_case "target gates rules" `Quick test_policy_target_gates_rules;
          Alcotest.test_case "obligations filtered by effect" `Quick test_policy_obligations;
          Alcotest.test_case "nested sets" `Quick test_policy_set_nesting;
          Alcotest.test_case "policy references" `Quick test_policy_refs;
          Alcotest.test_case "rule counts" `Quick test_policy_rule_counts;
        ] );
      ( "xml",
        [
          Alcotest.test_case "policy roundtrip" `Quick test_xml_policy_roundtrip;
          Alcotest.test_case "set roundtrip" `Quick test_xml_set_roundtrip;
          Alcotest.test_case "expr roundtrip" `Quick test_xml_expr_roundtrip;
          Alcotest.test_case "result roundtrip" `Quick test_xml_result_roundtrip;
          Alcotest.test_case "errors" `Quick test_xml_errors;
        ] );
      ( "variables",
        [
          Alcotest.test_case "evaluation" `Quick test_variables_evaluation;
          Alcotest.test_case "undefined is indeterminate" `Quick test_variables_undefined_is_indeterminate;
          Alcotest.test_case "XML roundtrip" `Quick test_variables_xml_roundtrip;
          Alcotest.test_case "validation" `Quick test_variables_validation;
        ] );
      ( "index",
        [
          Alcotest.test_case "equivalence" `Quick test_index_equivalence;
          Alcotest.test_case "selectivity" `Quick test_index_selectivity;
          Alcotest.test_case "document order" `Quick test_index_respects_document_order;
          QCheck_alcotest.to_alcotest prop_index_equivalent;
        ] );
      ( "explain",
        [
          Alcotest.test_case "structure" `Quick test_explain_structure;
          Alcotest.test_case "unmatched target" `Quick test_explain_skips_unmatched;
          Alcotest.test_case "condition detail" `Quick test_explain_condition_detail;
          Alcotest.test_case "nested sets and references" `Quick test_explain_nested_sets_and_refs;
        ] );
      ( "validate",
        [
          Alcotest.test_case "clean policies" `Quick test_validate_ok;
          Alcotest.test_case "catches problems" `Quick test_validate_catches;
          Alcotest.test_case "shadowed rules" `Quick test_shadowed_rules;
        ] );
      ("pdp", props);
    ]
