(* The interned serving path: symbol tables and packed request keys.  The
   load-bearing claims are the QCheck properties — interning is injective
   (equal syms iff equal inputs) and packed request keys collide exactly
   when the canonical attribute multisets are equal — plus unit pins for
   order-insensitivity, Environment exclusion and key byte accounting. *)

module Value = Dacs_policy.Value
module Context = Dacs_policy.Context
open Dacs_core

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

(* --- generators --------------------------------------------------------- *)

(* A small vocabulary so collisions actually happen: QCheck only exercises
   the "collide iff equal" property if both sides of the iff come up. *)
let gen_word = QCheck.Gen.(oneofl [ "alice"; "bob"; "carol"; "read"; "write"; "file"; "db" ])

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun s -> Value.String s) gen_word);
        (2, map (fun i -> Value.Int i) (0 -- 4));
        (1, map (fun b -> Value.Bool b) bool);
        (1, map (fun s -> Value.Uri ("urn:" ^ s)) gen_word);
      ])

let gen_category =
  QCheck.Gen.oneofl [ Context.Subject; Context.Resource; Context.Action; Context.Environment ]

let gen_attr = QCheck.Gen.(triple gen_category (oneofl [ "id"; "role"; "dept" ]) gen_value)

let gen_context =
  QCheck.Gen.(
    map
      (List.fold_left (fun ctx (cat, id, v) -> Context.add ctx cat id v) Context.empty)
      (list_size (0 -- 8) gen_attr))

let print_context ctx =
  Context.fold
    (fun cat id bag acc ->
      Printf.sprintf "%s/%s={%s}" (Context.category_name cat) id
        (String.concat ", " (List.map Value.to_string bag))
      :: acc)
    ctx []
  |> List.rev |> String.concat " "
let arb_context = QCheck.make ~print:print_context gen_context
let arb_context_pair = QCheck.(pair arb_context arb_context)

(* Ground truth for key equality: the sorted (category, id, value) multiset
   over the Subject/Resource/Action sections. *)
let canonical ctx =
  let parts = ref [] in
  Context.fold
    (fun cat id bag () ->
      if cat <> Context.Environment then
        List.iter (fun v -> parts := (cat, id, v) :: !parts) bag)
    ctx ();
  List.sort compare !parts

(* --- interning injectivity ---------------------------------------------- *)

let prop_string_injective =
  QCheck.Test.make ~name:"intern: equal string syms iff equal strings" ~count:200
    QCheck.(list_of_size Gen.(2 -- 12) (make ~print:Fun.id gen_word))
    (fun words ->
      let t = Intern.create ~expected:16 () in
      let syms = List.map (fun w -> (w, Intern.string t w)) words in
      List.for_all
        (fun (w1, s1) ->
          List.for_all (fun (w2, s2) -> s1 = s2 = (String.equal w1 w2)) syms)
        syms)

let prop_value_injective =
  QCheck.Test.make ~name:"intern: equal value keys iff equal values" ~count:200
    QCheck.(list_of_size Gen.(2 -- 12) (make ~print:Value.to_string gen_value))
    (fun values ->
      let t = Intern.create ~expected:16 () in
      let key v = Intern.request_key ~table:t (Context.make ~subject:[ ("role", v) ] ()) in
      let syms = List.map (fun v -> (v, key v)) values in
      List.for_all
        (fun (v1, s1) -> List.for_all (fun (v2, s2) -> s1 = s2 = Value.equal v1 v2) syms)
        syms)

let prop_pair_injective =
  QCheck.Test.make ~name:"intern: equal pair syms iff equal (category, id)" ~count:200
    QCheck.(
      list_of_size
        Gen.(2 -- 12)
        (make
           ~print:(fun (c, id) -> Context.category_name c ^ "/" ^ id)
           Gen.(pair gen_category (oneofl [ "id"; "role"; "dept" ]))))
    (fun pairs ->
      let t = Intern.create ~expected:16 () in
      let syms = List.map (fun (c, id) -> ((c, id), Intern.pair t c id)) pairs in
      List.for_all
        (fun (p1, s1) -> List.for_all (fun (p2, s2) -> s1 = s2 = (compare p1 p2 = 0)) syms)
        syms)

(* --- packed keys collide iff canonical multisets are equal --------------- *)

let prop_key_collision_iff_equal =
  QCheck.Test.make ~name:"intern: packed keys collide iff request multisets equal" ~count:500
    arb_context_pair
    (fun (c1, c2) ->
      let t = Intern.create ~expected:64 () in
      let k1 = Intern.request_key ~table:t c1 and k2 = Intern.request_key ~table:t c2 in
      String.equal k1 k2 = (canonical c1 = canonical c2))

(* Syms are assigned in first-encounter order, so two tables that meet
   the same contexts in opposite orders mint different ids — and must
   still induce the same key partition. *)
let prop_key_partition_order_free =
  QCheck.Test.make ~name:"intern: the key partition is independent of interning order"
    ~count:500 arb_context_pair
    (fun (c1, c2) ->
      let forward = Intern.create ~expected:64 () and backward = Intern.create ~expected:64 () in
      let f1 = Intern.request_key ~table:forward c1 in
      let f2 = Intern.request_key ~table:forward c2 in
      let b2 = Intern.request_key ~table:backward c2 in
      let b1 = Intern.request_key ~table:backward c1 in
      String.equal f1 f2 = String.equal b1 b2)

(* --- unit pins ----------------------------------------------------------- *)

let ctx_alice =
  Context.make
    ~subject:[ ("subject-id", Value.String "alice"); ("role", Value.String "doctor") ]
    ~resource:[ ("resource-id", Value.String "record-7") ]
    ~action:[ ("action-id", Value.String "read") ]
    ()

let test_order_insensitive () =
  let t = Intern.create () in
  let forward =
    Context.empty |> fun c ->
    Context.add c Context.Subject "role" (Value.String "doctor") |> fun c ->
    Context.add c Context.Subject "subject-id" (Value.String "alice") |> fun c ->
    Context.add c Context.Action "action-id" (Value.String "read") |> fun c ->
    Context.add c Context.Resource "resource-id" (Value.String "record-7")
  in
  check string_ "insertion order is canonicalised away"
    (Intern.request_key ~table:t ctx_alice)
    (Intern.request_key ~table:t forward);
  (* Bag order too: the same multiset in two append orders. *)
  let bag1 =
    Context.make ~subject:[ ("role", Value.String "a"); ("role", Value.String "b") ] ()
  in
  let bag2 =
    Context.make ~subject:[ ("role", Value.String "b"); ("role", Value.String "a") ] ()
  in
  check string_ "bag order is canonicalised away"
    (Intern.request_key ~table:t bag1)
    (Intern.request_key ~table:t bag2)

let test_environment_excluded () =
  let t = Intern.create () in
  let with_env = Context.add ctx_alice Context.Environment "current-time" (Value.Time 12.5) in
  check string_ "environment attributes never enter the key"
    (Intern.request_key ~table:t ctx_alice)
    (Intern.request_key ~table:t with_env);
  (* ...but the same attribute in a keyed category does change it. *)
  let with_subject_time = Context.add ctx_alice Context.Subject "current-time" (Value.Time 12.5) in
  check bool_ "subject attributes do enter the key" false
    (String.equal
       (Intern.request_key ~table:t ctx_alice)
       (Intern.request_key ~table:t with_subject_time))

let test_duplicate_values_distinct () =
  (* A multiset, not a set: {a} and {a, a} must key differently. *)
  let t = Intern.create () in
  let once = Context.make ~subject:[ ("role", Value.String "a") ] () in
  let twice =
    Context.make ~subject:[ ("role", Value.String "a"); ("role", Value.String "a") ] ()
  in
  check bool_ "duplicate atoms are kept" false
    (String.equal (Intern.request_key ~table:t once) (Intern.request_key ~table:t twice))

let test_value_types_distinct () =
  let t = Intern.create () in
  let key v = Intern.request_key ~table:t (Context.make ~subject:[ ("role", v) ] ()) in
  let s42 = key (Value.String "42") and i42 = key (Value.Int 42) and u42 = key (Value.Uri "42") in
  check bool_ "string/int never share a key" true (s42 <> i42);
  check bool_ "string/uri never share a key" true (s42 <> u42)

let test_pack2_injective () =
  let seen = Hashtbl.create 64 in
  for a = 0 to 40 do
    for b = 0 to 40 do
      let k = Intern.pack2 a b in
      (match Hashtbl.find_opt seen k with
      | Some (a', b') ->
        Alcotest.failf "pack2 collision: (%d,%d) and (%d,%d) -> %d" a b a' b' k
      | None -> ());
      Hashtbl.replace seen k (a, b)
    done
  done;
  check int_ "all packs distinct" (41 * 41) (Hashtbl.length seen)

let test_stats_count_tables () =
  let t = Intern.create () in
  ignore (Intern.request_key ~table:t ctx_alice);
  let s = Intern.stats t in
  (* Key building touches only the pair/value/atom namespaces; the raw
     string table serves explicit callers (e.g. the attribute cache). *)
  check int_ "strings untouched by keying" 0 s.Intern.strings;
  check int_ "explicit string interning counts" 0 (Intern.string t "alice");
  check int_ "one pair per (category, id)" 4 s.Intern.pairs;
  check int_ "one value per distinct constant" 4 s.Intern.values;
  check int_ "one atom per binding" 4 s.Intern.atoms;
  ignore (Intern.request_key ~table:t ctx_alice);
  let s' = Intern.stats t in
  check int_ "re-keying interns nothing new" s.Intern.atoms s'.Intern.atoms

(* --- reverse lookups (the invalidation plane's decoder) ------------------ *)

let prop_decode_roundtrip =
  QCheck.Test.make ~name:"intern: decode_key inverts request_key up to canonicalisation"
    ~count:500 arb_context
    (fun ctx ->
      let t = Intern.create ~expected:64 () in
      match Intern.decode_key ~table:t (Intern.request_key ~table:t ctx) with
      | None -> false
      | Some decoded -> canonical decoded = canonical ctx)

let test_reverse_lookups () =
  let t = Intern.create () in
  let pair = Intern.pair t Context.Resource "resource-id" in
  check bool_ "pair_info returns the minted position" true
    (Intern.pair_info t pair = (Context.Resource, "resource-id"));
  (* A one-binding key is the one atom's sym. *)
  let a =
    int_of_string
      (Intern.request_key ~table:t (Context.make ~resource:[ ("resource-id", Value.Int 7) ] ()))
  in
  check bool_ "atom_info returns the atom's pair sym" true (fst (Intern.atom_info t a) = pair);
  match Intern.pair_info t 9999 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown pair sym must raise"

let test_decode_key_roundtrip () =
  let t = Intern.create () in
  let key = Intern.request_key ~table:t ctx_alice in
  match Intern.decode_key ~table:t key with
  | None -> Alcotest.fail "packed key must decode"
  | Some ctx ->
    check bool_ "decoded context carries the same S/R/A multisets" true
      (canonical ctx = canonical ctx_alice);
    check string_ "re-keying the decoded context is stable" key (Intern.request_key ~table:t ctx)

let test_decode_garbage () =
  let t = Intern.create () in
  ignore (Intern.request_key ~table:t ctx_alice);
  (* Anything that is not a dot-separated sequence of known atom syms must
     decode to None — the conservative "drop it" signal for region
     invalidation, notably 64-hex digests a peer may put into the L2. *)
  List.iter
    (fun s -> check bool_ ("undecodable: " ^ s) true (Intern.decode_key ~table:t s = None))
    [ "not-a-key"; "1.2.99999"; Dacs_crypto.Sha256.hex_digest "alice"; ".."; "1..2" ]

(* The serving path's one key function is the packed key over the
   process-wide table: what a PEP caches under is what region purges
   decode. *)
let test_cache_key_is_global_packed_key () =
  let key = Decision_cache.request_key ctx_alice in
  check string_ "Decision_cache keys with Intern.global" (Intern.request_key ctx_alice) key;
  check string_ "environment excluded on the serving path" key
    (Decision_cache.request_key
       (Context.add ctx_alice Context.Environment "current-time" (Value.Time 3.0)));
  match Intern.decode_key key with
  | None -> Alcotest.fail "a serving-path key must decode against the global table"
  | Some ctx -> check bool_ "decodes to the keyed multisets" true (canonical ctx = canonical ctx_alice)

let test_packed_keys_are_short () =
  (* The point of packing: a key is far below a 64-hex SHA-256 digest for
     realistic attribute counts, and stays XML-safe ASCII. *)
  let t = Intern.create () in
  let key = Intern.request_key ~table:t ctx_alice in
  check bool_ "shorter than a sha digest" true (String.length key < 64);
  String.iter
    (fun ch ->
      check bool_ "digits and dots only" true (ch = '.' || (ch >= '0' && ch <= '9')))
    key

(* --- allocation ---------------------------------------------------------- *)

(* Minor words of one warm key: the key "0.1.2.3" is two words, and
   building it allocates nothing else — no closure per bag or per
   traversal, no captured counter (the table's option is built once, as
   the serving path passes none).  The key builder allocated 34 words for
   it when it walked the context with Context.iter and List.iter closures
   around a captured ref; the bound, 4, fails that. *)
let request_key_bound = 4.0

let test_request_key_allocation () =
  let t = Intern.create () in
  let ctx =
    Context.make
      ~subject:[ ("subject-id", Value.String "alice"); ("role", Value.String "doctor") ]
      ~resource:[ ("resource-id", Value.String "records") ]
      ~action:[ ("action-id", Value.String "read") ]
      ~environment:[ ("time", Value.Int 9) ]
      ()
  in
  let table = Some t in
  Alcotest.(check string) "four atoms, sorted" "0.1.2.3" (Intern.request_key ?table ctx);
  let rounds = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (Sys.opaque_identity (Intern.request_key ?table ctx))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int rounds in
  Printf.printf "request_key: %.1f minor words (bound %.1f)\n" words request_key_bound;
  Alcotest.(check bool) (Printf.sprintf "%.1f words <= %.1f" words request_key_bound) true (words <= request_key_bound)

let () =
  Alcotest.run "dacs_intern"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_string_injective;
            prop_value_injective;
            prop_pair_injective;
            prop_key_collision_iff_equal;
            prop_key_partition_order_free;
            prop_decode_roundtrip;
          ] );
      ( "reverse lookups",
        [
          Alcotest.test_case "pair/value/atom reverse tables roundtrip" `Quick
            test_reverse_lookups;
          Alcotest.test_case "decode_key rebuilds the keyed multisets" `Quick
            test_decode_key_roundtrip;
          Alcotest.test_case "garbage and sha digests decode to None" `Quick
            test_decode_garbage;
        ] );
      ( "request keys",
        [
          Alcotest.test_case "insertion and bag order insensitivity" `Quick
            test_order_insensitive;
          Alcotest.test_case "environment exclusion" `Quick test_environment_excluded;
          Alcotest.test_case "duplicate atoms kept (multiset)" `Quick
            test_duplicate_values_distinct;
          Alcotest.test_case "typed values never alias" `Quick test_value_types_distinct;
          Alcotest.test_case "pack2 injective on dense syms" `Quick test_pack2_injective;
          Alcotest.test_case "stats count table populations" `Quick test_stats_count_tables;
          Alcotest.test_case "packed keys short and XML-safe" `Quick
            test_packed_keys_are_short;
        ] );
      ( "decision cache",
        [
          Alcotest.test_case "request_key is the global packed key" `Quick
            test_cache_key_is_global_packed_key;
        ] );
      ("allocation", [ Alcotest.test_case "a warm key allocates only itself" `Quick test_request_key_allocation ]);
    ]
