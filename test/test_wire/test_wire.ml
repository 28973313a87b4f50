(* The safety net for the per-decision frames: each direct writer must
   produce the bytes the former tree encoder printed, each cursor reader
   must invert its writer, and on mutated frames a reader must never
   raise nor accept anything the former tree decoder would have read
   differently.  [Wire_reference] holds those former codecs. *)

module Xml = Dacs_xml.Xml
module Cursor = Xml.Cursor
module Value = Dacs_policy.Value
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Obligation = Dacs_policy.Obligation
module Net = Dacs_net.Net
module Rpc = Dacs_net.Rpc
module Soap = Dacs_ws.Soap
module Service = Dacs_ws.Service
module Rsa = Dacs_crypto.Rsa
module Cert = Dacs_crypto.Cert
module Ref = Wire_reference
open Dacs_core

(* --- generators ------------------------------------------------------------- *)

open QCheck

(* Strings rich in what escaping and entity decoding must get right. *)
let text_gen =
  Gen.(
    map (String.concat "")
      (list_size (int_bound 5) (oneofl [ "a"; "Z9"; "<"; ">"; "&"; "\""; "'"; " "; "x:y"; "\xc3\xa9"; "]]>"; "" ])))

let value_gen =
  (* Doubles and times are quarters in [-2500, 2500]: "%g" keeps them exact. *)
  let quarter = Gen.map (fun i -> float_of_int i /. 4.0) (Gen.int_range (-10000) 10000) in
  Gen.(
    oneof
      [
        map (fun s -> Value.String s) text_gen;
        map (fun i -> Value.Int i) (int_range (-1000000) 1000000);
        map (fun b -> Value.Bool b) bool;
        map (fun f -> Value.Double f) quarter;
        map (fun f -> Value.Time f) quarter;
        map (fun s -> Value.Uri s) text_gen;
      ])

let category_gen = Gen.oneofl Context.all_categories

let context_gen =
  Gen.(
    map
      (List.fold_left (fun ctx (c, id, v) -> Context.add ctx c id v) Context.empty)
      (list_size (int_bound 8) (triple category_gen (oneof [ oneofl [ "subject-id"; "role"; "resource-id" ]; text_gen ]) value_gen)))

let obligation_gen =
  Gen.(
    map3
      (fun id fulfill_on parameters -> Obligation.make ~parameters ~fulfill_on id)
      text_gen
      (oneofl [ Obligation.Permit; Obligation.Deny ])
      (list_size (int_bound 3) (pair text_gen value_gen)))

let result_gen =
  Gen.(
    map2
      (fun decision obligations -> { Decision.decision; obligations })
      (oneof
         [
           oneofl [ Decision.Permit; Decision.Deny; Decision.Not_applicable ];
           map (fun m -> Decision.Indeterminate m) text_gen;
         ])
      (list_size (int_bound 3) obligation_gen))

let epoch_gen = Gen.oneof [ Gen.return 0; Gen.int_range 1 1000 ]
let sent_at_gen = Gen.opt (Gen.map (fun k -> float_of_int k /. 1000.0) (Gen.int_bound 10_000_000))

(* One value per hot frame, with its writer, reader, reference tree
   encoder and reference decoder.  Each reader's result is compared with
   the reference's whole answer, so [authz_response] pairs the decision
   with the epoch the reference reads separately. *)
type frame =
  | Frame : {
      name : string;
      gen : 'a Gen.t;
      print : 'a -> string;
      write : Buffer.t -> 'a -> unit;
      read : Cursor.t -> ('b, string) result;
      of_value : 'a -> 'b;
      ref_tree : 'a -> Xml.t;
      ref_read : Xml.t -> ('b, string) result;
      equal : 'b -> 'b -> bool;
    }
      -> frame

let show_ctx ctx = Format.asprintf "%a" Context.pp ctx
let show_result r = Format.asprintf "%a" Decision.pp r

let frames =
  [
    Frame
      {
        name = "authz_query";
        gen = context_gen;
        print = show_ctx;
        write = Wire.write_authz_query;
        read = Wire.read_authz_query;
        of_value = Fun.id;
        ref_tree = Ref.authz_query;
        ref_read = Ref.parse_authz_query;
        equal = Context.equal;
      };
    Frame
      {
        name = "authz_response";
        gen = Gen.pair epoch_gen result_gen;
        print = (fun (e, r) -> Printf.sprintf "epoch %d: %s" e (show_result r));
        write = (fun buf (epoch, r) -> Wire.write_authz_response ~epoch buf r);
        read = Wire.read_authz_response;
        of_value = (fun (epoch, r) -> (r, epoch));
        ref_tree = (fun (epoch, r) -> Ref.authz_response ~epoch r);
        ref_read = (fun node -> Result.map (fun r -> (r, Ref.authz_response_epoch node)) (Ref.parse_authz_response node));
        equal = ( = );
      };
    Frame
      {
        name = "cache_lookup";
        gen = text_gen;
        print = Fun.id;
        write = (fun buf key -> Wire.write_cache_lookup buf ~key);
        read = Wire.read_cache_lookup;
        of_value = Fun.id;
        ref_tree = (fun key -> Ref.cache_lookup ~key);
        ref_read = Ref.parse_cache_lookup;
        equal = String.equal;
      };
    Frame
      {
        name = "cache_answer";
        gen = Gen.opt result_gen;
        print = (function None -> "miss" | Some r -> show_result r);
        write = Wire.write_cache_answer;
        read = Wire.read_cache_answer;
        of_value = Fun.id;
        ref_tree = Ref.cache_answer;
        ref_read = Ref.parse_cache_answer;
        equal = ( = );
      };
    Frame
      {
        name = "cache_put";
        gen = Gen.triple sent_at_gen text_gen result_gen;
        print = (fun (_, key, r) -> key ^ " " ^ show_result r);
        write = (fun buf (sent_at, key, r) -> Wire.write_cache_put ?sent_at buf ~key r);
        read = Wire.read_cache_put;
        of_value = (fun (sent_at, key, r) -> (key, r, sent_at));
        ref_tree = (fun (sent_at, key, r) -> Ref.cache_put ?sent_at ~key r);
        ref_read = Ref.parse_cache_put;
        equal = ( = );
      };
    Frame
      {
        name = "attribute_query";
        gen = Gen.triple category_gen text_gen text_gen;
        print = (fun (c, id, s) -> Printf.sprintf "%s/%s/%s" (Context.category_name c) id s);
        write = (fun buf (category, attribute_id, subject) -> Wire.write_attribute_query buf ~category ~attribute_id ~subject);
        read = Wire.read_attribute_query;
        of_value = Fun.id;
        ref_tree = (fun (category, attribute_id, subject) -> Ref.attribute_query ~category ~attribute_id ~subject);
        ref_read = Ref.parse_attribute_query;
        equal = ( = );
      };
    Frame
      {
        name = "attribute_result";
        gen = Gen.list_size (Gen.int_bound 4) value_gen;
        print = (fun bag -> Format.asprintf "%a" Value.pp_bag bag);
        write = Wire.write_attribute_result;
        read = Wire.read_attribute_result;
        of_value = Fun.id;
        ref_tree = Ref.attribute_result;
        ref_read = Ref.parse_attribute_result;
        equal = ( = );
      };
  ]

let written write v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* A whole document holding one body element, read by [read]. *)
let read_document read s = Cursor.parse s (fun c -> match read c with Ok v -> v | Error e -> Cursor.fail c e)

(* --- 1. bytes: the writer prints what the reference tree printed -------------- *)

let bytes_tests =
  List.map
    (fun (Frame f) ->
      Test.make ~name:(f.name ^ ": writer bytes = reference tree printed") ~count:300
        (make ~print:f.print f.gen) (fun v ->
          let ours = written f.write v and theirs = Xml.to_string (f.ref_tree v) in
          ours = theirs || Test.fail_reportf "writer: %S@.reference: %S" ours theirs))
    frames

(* The offline log-event frames: the writer's canonical (unsigned) and
   signed bytes are the former tree printers' to the byte, on names and
   values full of XML specials, a [ctx] field holding a rendered request
   (escaped once more), frontiers in any order, duplicates included, and
   timestamps at the edges of what %.17g prints. *)

let odd_float_gen =
  Gen.oneof
    [
      Gen.oneofl
        [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; Float.max_float; Float.min_float;
          Float.epsilon; 4.9e-324; 0.1; 1.0 /. 3.0; 1e21; 1e-7; 123456789.123456789; -2.5 ];
      Gen.map Int64.float_of_bits Gen.int64;
      Gen.float;
    ]

let raw_bytes_gen = Gen.string_size ~gen:Gen.char (Gen.oneofl [ 0; 32 ])

let log_event_gen =
  let open Gen in
  let field =
    oneof
      [
        pair text_gen text_gen;
        map (fun ctx -> ("ctx", Context.to_string ctx)) context_gen;
      ]
  in
  map3
    (fun (le_author, le_seq, le_at) (le_epoch, le_frontier, le_kind) (le_fields, le_digest, le_tag) ->
      { Wire.le_author; le_seq; le_at; le_epoch; le_frontier; le_kind; le_fields; le_digest; le_tag })
    (triple text_gen (int_range (-5) 100000) odd_float_gen)
    (triple (int_bound 50)
       (list_size (int_bound 5) (pair (oneof [ oneofl [ "dom0"; "dom1"; "dom2" ]; text_gen ]) nat))
       text_gen)
    (triple (list_size (int_bound 4) field) raw_bytes_gen raw_bytes_gen)

let show_log_event (ev : Wire.log_event) = Xml.to_string (Ref.log_event ev)

let log_event_bytes_tests =
  List.map
    (fun signed ->
      let name = if signed then "log_event (signed)" else "log_event (canonical)" in
      let reference = if signed then Ref.log_event else Ref.log_event_unsigned in
      Test.make ~name:(name ^ ": writer bytes = reference tree printed") ~count:500
        (make ~print:show_log_event log_event_gen) (fun ev ->
          let ours = written (fun buf ev -> Wire.write_log_event buf ~signed ev) ev
          and theirs = Xml.to_string (reference ev) in
          ours = theirs || Test.fail_reportf "writer: %S@.reference: %S" ours theirs))
    [ false; true ]
  @ [
      Test.make ~name:"log_sync_response: writer bytes = reference tree printed" ~count:200
        (make Gen.(pair raw_bytes_gen (list_size (int_bound 3) log_event_gen))) (fun (head, events) ->
          written (fun buf events -> Wire.write_log_sync_response buf ~head events) events
          = Xml.to_string (Ref.log_sync_response ~head events));
      Test.make ~name:"log_sync_request: tree printed = reference tree printed" ~count:200
        (make Gen.(list_size (int_bound 5) (pair text_gen nat))) (fun frontier ->
          Xml.to_string (Wire.log_sync_request ~frontier) = Xml.to_string (Ref.log_sync_request ~frontier));
      (* The tree views read back as the event written, its frontier sorted. *)
      Test.make ~name:"log_event: parse (tree view) = event" ~count:300
        (make ~print:show_log_event log_event_gen) (fun ev ->
          let by_author (a, _) (b, _) = String.compare a b in
          let sorted = { ev with Wire.le_frontier = List.stable_sort by_author ev.Wire.le_frontier } in
          match Wire.parse_log_event (Wire.log_event ev) with
          | Ok got ->
            Xml.to_string (Ref.log_event got) = Xml.to_string (Ref.log_event sorted)
            || Test.fail_reportf "read back as %s" (show_log_event got)
          | Error e -> Test.fail_reportf "rejected its own frame: %s" e);
    ]

(* The frame a request leaves the sender as: captured at a raw RPC
   handler, whose body slice lies inside the whole frame. *)
let captured_frame send =
  let net = Net.create () in
  let rpc = Rpc.create net in
  let services = Service.create rpc in
  Net.add_node net "client";
  let seen = ref "" in
  List.iter
    (fun service ->
      Rpc.serve_frame rpc ~node:"server" ~service (fun ~caller:_ body reply ->
          seen := body.Rpc.src;
          reply (fun buf -> Soap.write buf (fun buf -> Buffer.add_string buf "<Ack/>"))))
    [ "authz-query"; "cache-lookup" ];
  send services;
  Net.run net;
  !seen

let whole_frame_tests =
  [
    Test.make ~name:"authz_query: the batch frame sent = the reference frame" ~count:100
      (make ~print:show_ctx context_gen) (fun ctx ->
        let sent =
          captured_frame (fun services ->
              Service.call_batch_frame services ~src:"client" ~dst:"server" ~service:"authz-query"
                ~read:(fun _ -> Ok ())
                [ (fun buf -> Wire.write_authz_query buf ctx) ]
                ignore)
        in
        sent
        = Rpc.encode_batch_request 0 "authz-query"
            [ Soap.to_string { Soap.headers = []; body = Ref.authz_query ctx } ]
        && sent
           = Rpc.encode_batch_request 0 "authz-query"
               [ Xml.to_string (Ref.Soap.envelope (Ref.authz_query ctx)) ]);
    Test.make ~name:"cache_lookup: the single frame sent = the reference frame" ~count:100
      (make ~print:Fun.id text_gen) (fun key ->
        let sent =
          captured_frame (fun services ->
              Service.call_frame services ~src:"client" ~dst:"server" ~service:"cache-lookup"
                ~read:(fun _ -> Ok ())
                (fun buf -> Wire.write_cache_lookup buf ~key)
                ignore)
        in
        sent = Rpc.encode_request 0 "cache-lookup" (Xml.to_string (Ref.Soap.envelope (Ref.cache_lookup ~key))));
  ]

(* --- 2. round trip: read (write v) = v ------------------------------------------- *)

let roundtrip_tests =
  List.map
    (fun (Frame f) ->
      Test.make ~name:(f.name ^ ": read (write v) = v") ~count:300 (make ~print:f.print f.gen) (fun v ->
          match read_document f.read (written f.write v) with
          | Ok got -> f.equal got (f.of_value v)
          | Error e -> Test.fail_reportf "rejected its own frame: %s" e))
    frames

(* --- 3. mutations: never raise, never accept differently ------------------------- *)

(* Byte mutations biased towards markup: flips to XML-significant bytes,
   insertions and deletions, at positions drawn from the generated ints so
   a failing case shrinks. *)
let mutate ops s =
  let markup = "<>/=\"'& :aZ!?[]-;#x0" in
  List.fold_left
    (fun s (kind, pos, byte) ->
      let n = String.length s in
      let c = if byte land 1 = 0 then markup.[byte / 2 mod String.length markup] else Char.chr (byte land 0xff) in
      if n = 0 then String.make 1 c
      else
        let pos = pos mod n in
        match kind mod 3 with
        | 0 -> String.mapi (fun i b -> if i = pos then c else b) s
        | 1 -> String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (n - pos)
        | _ -> String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1))
    s ops

let mutations_gen = Gen.(list_size (int_range 1 4) (triple nat nat (int_bound 511)))

(* The envelope exactly as the live path reads it: {!Soap.read} with the
   frame's reader at the body, as {!Service} does. *)
let live_read read s =
  Soap.read s 0 (String.length s) (fun c -> match read c with Ok v -> v | Error e -> Cursor.fail c e)

let reference_read ref_read s =
  match Xml.of_string_opt s with
  | None -> Error "malformed XML"
  | Some node -> Result.bind (Ref.Soap.of_xml node) (fun env -> ref_read env.Ref.Soap.body)

let mutation_tests =
  List.map
    (fun (Frame f) ->
      Test.make ~name:(f.name ^ ": mutated frames never raise nor differ from the reference") ~count:500
        (make ~print:(fun (v, ops) -> f.print v ^ " / " ^ Print.(list (triple int int int)) ops) (Gen.pair f.gen mutations_gen))
        (fun (v, ops) ->
          let s = mutate ops (Xml.to_string (Ref.Soap.envelope (f.ref_tree v))) in
          match live_read f.read s with
          | exception e -> Test.fail_reportf "reader raised %s on %S" (Printexc.to_string e) s
          | Error _ -> true
          | Ok (_, got) -> (
            match reference_read f.ref_read s with
            | Ok want -> f.equal got want || Test.fail_reportf "reads differently from the reference: %S" s
            | Error e -> Test.fail_reportf "accepted what the reference rejects (%s): %S" e s)))
    frames

(* --- 4. signed responses: a mutation never forges a decision ---------------------- *)

let signer =
  lazy
    (let rng = Dacs_crypto.Rng.create 31L in
     let ca = Rsa.generate rng ~bits:512 in
     let ca_cert = Cert.self_signed ca ~subject:"cn=dacs-ca" ~serial:1 ~not_before:0.0 ~not_after:1e9 in
     let pdp = Rsa.generate rng ~bits:512 in
     let cert =
       Cert.issue ~ca_key:ca.Rsa.private_ ~ca_cert ~subject:"cn=pdp" ~public_key:pdp.Rsa.public ~serial:2
         ~not_before:0.0 ~not_after:1e9
     in
     (pdp.Rsa.private_, cert, Cert.Trust_store.add Cert.Trust_store.empty ca_cert))

let signed_content s =
  Option.bind (Xml.of_string_opt s) (fun envelope ->
      Option.bind (Xml.find_child envelope "Body") (fun body ->
          Option.bind (Xml.find_child body "SignedAuthzResponse") (fun signed ->
              Option.map Xml.canonical_string (Xml.find_child signed "AuthzResponse"))))

let signed_mutation_test =
  Test.make ~name:"signed authz_response: a mutation decodes only with the signed content intact" ~count:300
    (make
       ~print:(fun ((e, r), ops) -> Printf.sprintf "epoch %d: %s / %s" e (show_result r) (Print.(list (triple int int int)) ops))
       (Gen.pair (Gen.pair epoch_gen result_gen) mutations_gen))
    (fun ((epoch, result), ops) ->
      let key, cert, trust = Lazy.force signer in
      let frame = Soap.to_string { Soap.headers = []; body = Wire.signed_authz_response ~epoch ~key ~cert result } in
      let s = mutate ops frame in
      match live_read (Wire.read_authz_answer ~trust ~now:1.0) s with
      | exception e -> Test.fail_reportf "reader raised %s on %S" (Printexc.to_string e) s
      | Error _ -> true
      | Ok (_, answer) ->
        (answer = (result, epoch) && signed_content s = signed_content frame)
        || Test.fail_reportf "a mutated signed response decoded: %S" s)

let signed_intact () =
  let key, cert, trust = Lazy.force signer in
  let result = { Decision.permit with obligations = [ Obligation.audit ] } in
  let frame = Soap.to_string { Soap.headers = []; body = Wire.signed_authz_response ~epoch:4 ~key ~cert result } in
  Alcotest.(check bool) "the unmutated frame decodes" true
    (live_read (Wire.read_authz_answer ~trust ~now:1.0) frame = Ok ([], (result, 4)))

(* --- 5. allocation: one authz round trip over Service ---------------------------- *)

(* Minor words of one query out and response back between a client and a
   PDP-shaped handler, 3-attribute context, after warm-up (OCaml 5.1,
   simulated network included).  The tree path this replaced (print a
   tree, wrap it in an enveloping tree, print that, frame it with
   [Printf], copy the body out, parse it back) allocated 2,224 words for
   the same exchange; the direct path measures 590.  The bound, 680, is
   31 % of the former and leaves 15 % headroom over the latter — too
   little for a [Printf]-framed copy of every frame to fit. *)
let round_trip_words () =
  let net = Net.create () in
  let services = Service.create (Rpc.create net) in
  Net.add_node net "pep";
  Net.add_node net "pdp";
  Service.serve_frame services ~node:"pdp" ~service:"authz-query" ~read:Wire.read_authz_query
    (fun ~caller:_ ~headers:_ body reply ->
      match body with
      | Ok _ -> reply (fun buf -> Wire.write_authz_response ~epoch:3 buf Decision.permit)
      | Error e -> reply (Service.sender_fault e));
  let ctx =
    Context.make
      ~subject:[ ("subject-id", Value.String "alice") ]
      ~resource:[ ("resource-id", Value.String "records") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  let round () =
    let answered = ref false in
    Service.call_frame services ~src:"pep" ~dst:"pdp" ~service:"authz-query" ~read:Wire.read_authz_response
      (fun buf -> Wire.write_authz_query buf ctx)
      (fun r -> answered := r = Ok (Ok (Decision.permit, 3)));
    Net.run net;
    if not !answered then Alcotest.fail "round trip failed"
  in
  for _ = 1 to 10 do
    round ()
  done;
  let rounds = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  (Gc.minor_words () -. before) /. float_of_int rounds

let round_trip_bound = 680.0

let test_round_trip_allocation () =
  let words = round_trip_words () in
  Printf.printf "authz round trip: %.1f minor words (bound %.1f)\n" words round_trip_bound;
  Alcotest.(check bool) (Printf.sprintf "%.1f words <= %.1f" words round_trip_bound) true (words <= round_trip_bound)

let () =
  let props name tests = (name, List.map QCheck_alcotest.to_alcotest tests) in
  Alcotest.run "dacs_wire"
    [
      props "bytes" (bytes_tests @ whole_frame_tests @ log_event_bytes_tests);
      props "roundtrip" roundtrip_tests;
      props "mutations" (mutation_tests @ [ signed_mutation_test ]);
      ( "signed",
        [ Alcotest.test_case "an intact signed response decodes" `Quick signed_intact ] );
      ( "allocation",
        [ Alcotest.test_case "one authz round trip stays under its word bound" `Quick test_round_trip_allocation ] );
    ]
