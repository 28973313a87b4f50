(* Tests for dacs_crypto: RNG, encodings, SHA-256 vectors, HMAC vectors,
   bignum arithmetic laws, primality, RSA, stream cipher, certificates. *)

open Dacs_crypto

let check = Alcotest.check
let string_ = Alcotest.string
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* --- rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check bool_ "same stream" true (Rng.next_int64 a = Rng.next_int64 b)
  done

let test_rng_int_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check bool_ "in range" true (v >= 0 && v < 10)
  done

let test_rng_int_covers_range () =
  let rng = Rng.create 9L in
  let seen = Array.make 8 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 8) <- true
  done;
  check bool_ "all values hit" true (Array.for_all Fun.id seen)

let test_rng_float_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    check bool_ "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bytes_length () =
  let rng = Rng.create 1L in
  check int_ "length" 17 (String.length (Rng.bytes rng 17))

(* --- encodings --------------------------------------------------------- *)

let test_hex_roundtrip () =
  check string_ "encode" "00ff10ab" (Encoding.hex_encode "\x00\xff\x10\xab");
  check string_ "decode" "\x00\xff\x10\xab" (Encoding.hex_decode "00ff10ab");
  check string_ "decode uppercase" "\x00\xff" (Encoding.hex_decode "00FF")

let test_hex_errors () =
  let bad s =
    try
      ignore (Encoding.hex_decode s);
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  bad "0";
  bad "zz"

let test_base64_vectors () =
  (* RFC 4648 test vectors. *)
  List.iter
    (fun (plain, enc) ->
      check string_ ("encode " ^ plain) enc (Encoding.base64_encode plain);
      check string_ ("decode " ^ enc) plain (Encoding.base64_decode enc))
    [
      ("", "");
      ("f", "Zg==");
      ("fo", "Zm8=");
      ("foo", "Zm9v");
      ("foob", "Zm9vYg==");
      ("fooba", "Zm9vYmE=");
      ("foobar", "Zm9vYmFy");
    ]

let test_base64_whitespace () =
  check string_ "ignores newlines" "foobar" (Encoding.base64_decode "Zm9v\nYmFy")

let test_base64_errors () =
  let bad s =
    try
      ignore (Encoding.base64_decode s);
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  bad "Zg=";
  bad "Z===";
  bad "!!!!"

(* --- sha256 ------------------------------------------------------------- *)

let test_sha256_vectors () =
  List.iter
    (fun (msg, hex) -> check string_ ("sha256 of " ^ String.escaped msg) hex (Sha256.hex_digest msg))
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "The quick brown fox jumps over the lazy dog",
        "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ]

let test_sha256_million_a () =
  (* FIPS long-message vector. *)
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.update ctx chunk
  done;
  check string_ "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Encoding.hex_encode (Sha256.resume ctx ""))

let test_sha256_incremental_matches_oneshot () =
  let msg = String.init 300 (fun i -> Char.chr (i mod 256)) in
  let ctx = Sha256.init () in
  (* Deliberately awkward split points around the 64-byte block size. *)
  Sha256.update ctx (String.sub msg 0 63);
  Sha256.update ctx (String.sub msg 63 2);
  Sha256.update ctx (String.sub msg 65 128);
  Sha256.update ctx (String.sub msg 193 107);
  check string_ "incremental" (Sha256.hex_digest msg) (Encoding.hex_encode (Sha256.resume ctx ""))

let test_sha256_block_boundaries () =
  (* Lengths 55, 56, 63, 64, 65 hit all the padding branches. *)
  List.iter
    (fun n ->
      let msg = String.make n 'x' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.update ctx (String.make 1 c)) msg;
      check string_
        (Printf.sprintf "length %d" n)
        (Sha256.hex_digest msg)
        (Encoding.hex_encode (Sha256.resume ctx "")))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 127; 128; 129 ]

(* A buffer holding [s], as [Sha256.digest2_buffer] and [Chain.extend]
   take their second part. *)
let buffer_of s =
  let buf = Buffer.create 16 in
  Buffer.add_string buf s;
  buf

(* [Sha256.digest2_buffer] of [msg] split at [k]. *)
let digest_split msg k =
  Sha256.digest2_buffer (String.sub msg 0 k) (buffer_of (String.sub msg k (String.length msg - k)))

let test_sha256_digest2_buffer () =
  (* Every split of messages around one and two blocks. *)
  List.iter
    (fun n ->
      let msg = String.init n (fun i -> Char.chr (i land 0xff)) in
      for k = 0 to n do
        check string_ (Printf.sprintf "length %d split at %d" n k) (Sha256.digest msg) (digest_split msg k)
      done)
    [ 0; 1; 63; 64; 65; 96; 130 ]

(* Two contexts fed in interleaved chunks each digest their own input:
   no block state is shared between contexts, although the message
   schedule is one working array per domain. *)
let prop_sha256_interleaved_contexts =
  let chunks = QCheck.(list_of_size Gen.(0 -- 6) (string_of_size Gen.(0 -- 150))) in
  QCheck.Test.make ~name:"interleaved contexts digest their own input" ~count:200
    (QCheck.pair chunks chunks) (fun (xs, ys) ->
      let a = Sha256.init () and b = Sha256.init () in
      (* One chunk to [a], then one to [b], until both run out. *)
      let feed ctx = function
        | [] -> []
        | chunk :: rest ->
          Sha256.update ctx chunk;
          rest
      in
      let rec interleave xs ys = if xs <> [] || ys <> [] then interleave (feed a xs) (feed b ys) in
      interleave xs ys;
      Sha256.resume a "" = Sha256.digest (String.concat "" xs)
      && Sha256.resume b "" = Sha256.digest (String.concat "" ys))

(* --- the kernel against its reference ------------------------------------- *)

(* [Sha256_reference] is the one-round-at-a-time kernel the library ran
   before it was unrolled.  Every entry point must agree with it. *)

(* A message of [n] bytes that is not periodic in the block size. *)
let message n = String.init n (fun i -> Char.chr (((i * 167) + (i lsr 8)) land 0xff))

(* Every length from 55 to 129 crosses a padding branch: the length no
   longer fits the first block (56), one or two blocks exactly (64, 128).
   Each is hashed whole, split in two at every point and fed one byte
   at a time. *)
let test_sha256_reference_lengths () =
  for n = 55 to 129 do
    let msg = message n in
    let expected = Sha256_reference.digest msg in
    let name what = Printf.sprintf "length %d: %s" n what in
    check string_ (name "digest") expected (Sha256.digest msg);
    for k = 0 to n do
      if digest_split msg k <> expected then Alcotest.failf "length %d: digest2_buffer split at %d" n k
    done;
    let ctx = Sha256.init () in
    String.iter (fun c -> Sha256.update ctx (String.make 1 c)) msg;
    check string_ (name "bytewise update") expected (Sha256.resume ctx "")
  done

(* Messages of 0-2,000 bytes (one in three of 55-129) cut at random
   points: [digest], [digest2_buffer] at the first cut,
   [update] over all the pieces, and [resume] of a context that
   absorbed the first piece — twice, since it must leave that context
   as it was. *)
let prop_sha256_reference =
  let gen =
    QCheck.Gen.(
      let* n = frequency [ (2, 0 -- 2000); (1, 55 -- 129) ] in
      let* cuts = list_size (0 -- 5) (0 -- n) in
      return (n, List.sort_uniq compare cuts))
  in
  let print (n, cuts) = Printf.sprintf "n=%d cuts=[%s]" n (String.concat ";" (List.map string_of_int cuts)) in
  QCheck.Test.make ~name:"digest, digest2_buffer, update and resume agree with the reference"
    ~count:300
    (QCheck.make ~print gen) (fun (n, cuts) ->
      let msg = message n in
      let expected = Sha256_reference.digest msg in
      let rec between = function
        | a :: (b :: _ as rest) -> String.sub msg a (b - a) :: between rest
        | [] | [ _ ] -> []
      in
      let pieces = between ((0 :: cuts) @ [ n ]) in
      let first = List.hd pieces in
      let rest = String.sub msg (String.length first) (n - String.length first) in
      let ctx = Sha256.init () in
      List.iter (Sha256.update ctx) pieces;
      let prefix = Sha256.init () in
      Sha256.update prefix first;
      Sha256.digest msg = expected
      && Sha256.digest2_buffer first (buffer_of rest) = expected
      && Sha256.resume ctx "" = expected
      && Sha256.resume prefix rest = expected
      && Sha256.resume prefix rest = expected)

(* Keys of 0-200 bytes, one in four at the 64-byte hash-the-key-first
   edge (63, 64 or 65 bytes): a prepared key's tags, and the one-shot
   ones, are the reference HMAC's. *)
let prop_hmac_reference =
  let gen =
    QCheck.Gen.(
      let key_size = frequency [ (3, 0 -- 200); (1, oneofl [ 63; 64; 65 ]) ] in
      pair (string_size key_size) (string_size (0 -- 300)))
  in
  QCheck.Test.make ~name:"prepared-key tags agree with the reference HMAC" ~count:300
    (QCheck.make
       ~print:(fun (k, m) -> Printf.sprintf "key %d bytes, msg %d bytes" (String.length k) (String.length m))
       gen)
    (fun (key, msg) ->
      let expected = Sha256_reference.hmac ~key msg in
      let prepared = Hmac.key key in
      Hmac.tag prepared msg = expected
      && Hmac.tag prepared msg = expected
      && Hmac.sha256 ~key msg = expected
      && Hmac.check prepared msg ~tag:expected
      && Hmac.verify ~key msg ~tag:expected)

(* --- hmac ----------------------------------------------------------------- *)

(* RFC 4231 test cases 1-4, 6 and 7 (5 truncates its tag), each through
   the one-shot [Hmac.sha256] and through a prepared key.  Cases 6 and 7
   have a 131-byte key, which is hashed first. *)
let rfc4231 =
  [
    ("case 1", String.make 20 '\x0b', "Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    ("case 2", "Jefe", "what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    ("case 3", String.make 20 '\xaa', String.make 50 '\xdd',
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
    ("case 4", String.init 25 (fun i -> Char.chr (i + 1)), String.make 50 '\xcd',
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
    ("case 6 (long key)", String.make 131 '\xaa', "Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    ( "case 7 (long key, long data)",
      String.make 131 '\xaa',
      "This is a test using a larger than block-size key and a larger than block-size data. \
       The key needs to be hashed before being used by the HMAC algorithm.",
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" );
  ]

let test_hmac_rfc4231 () =
  List.iter
    (fun (name, key, msg, hex) ->
      check string_ name hex (Encoding.hex_encode (Hmac.sha256 ~key msg));
      let prepared = Hmac.key key in
      check string_ (name ^ ", prepared key") hex (Encoding.hex_encode (Hmac.tag prepared msg));
      (* A prepared key serves again, unchanged by its first tag. *)
      check string_ (name ^ ", prepared key again") hex (Encoding.hex_encode (Hmac.tag prepared msg));
      check bool_ (name ^ ", check") true (Hmac.check prepared msg ~tag:(Encoding.hex_decode hex)))
    rfc4231

let test_hmac_verify () =
  let key = "secret" and msg = "payload" in
  let tag = Hmac.sha256 ~key msg in
  check bool_ "accepts" true (Hmac.verify ~key msg ~tag);
  check bool_ "rejects bad tag" false (Hmac.verify ~key msg ~tag:(String.make 32 '\x00'));
  check bool_ "rejects short tag" false (Hmac.verify ~key msg ~tag:"short");
  check bool_ "rejects wrong msg" false (Hmac.verify ~key "other" ~tag)

(* Minor words per call of [f], after warm-up. *)
let words_per_call f =
  for _ = 1 to 10 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let rounds = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int rounds

let tag_key = String.make 32 'k'
let tag_msg = String.make 32 'm'

(* Minor words of one [Hmac.sha256] over a 32-byte message (a chain link
   or a digest being tagged), after warm-up, OCaml 5.1.  With a 64-word
   message schedule and a boxed [Int64] length in every context, the
   four contexts of one tag allocated 248 words; with one schedule per
   domain and an [int] length they allocate 92.  The bound,
   120, leaves 30 % headroom over the latter — too little for even one
   context to carry its own schedule again.  Since the one-shot tag
   prepares a key ({!Hmac.key}: two contexts with their pad blocks
   absorbed) and resumes from it, it allocates 83. *)
let hmac_words_bound = 120.0

let test_hmac_allocation () =
  let words = words_per_call (fun () -> Hmac.sha256 ~key:tag_key tag_msg) in
  Printf.printf "hmac-sha256 of 32 bytes: %.1f minor words (bound %.1f)\n" words hmac_words_bound;
  check bool_
    (Printf.sprintf "%.1f words <= %.1f" words hmac_words_bound)
    true (words <= hmac_words_bound)

(* Minor words of one [Hmac.tag] over a 32-byte message under a key
   prepared beforehand, as [Offline] tags every chain link: the inner
   digest and the tag (5 words each) and nothing else, since [resume]
   hashes in a per-domain working context.  Measured: 12 words; the
   bound, 16, leaves the same 30 % headroom, so one context allocated
   per tag again (24 words) breaks it. *)
let hmac_prepared_words_bound = 16.0

(* Minor words of one-shot digests of a 200-byte message: they hash in
   the per-domain working context, as [resume] does, so each allocates
   only its 32-byte result, 6 words with its header.  A context of
   their own would add 24. *)
let test_digest_allocation () =
  let msg = message 200 in
  let buf = buffer_of msg in
  List.iter
    (fun (name, f) ->
      let words = words_per_call f in
      check bool_ (Printf.sprintf "%s: %.1f words <= 6" name words) true (words <= 6.0))
    [
      ("digest", fun () -> Sha256.digest msg);
      ("digest2_buffer", fun () -> Sha256.digest2_buffer msg buf);
    ]

let test_hmac_prepared_allocation () =
  let key = Hmac.key tag_key in
  let words = words_per_call (fun () -> Hmac.tag key tag_msg) in
  Printf.printf "hmac-sha256 tag of 32 bytes, prepared key: %.1f minor words (bound %.1f)\n" words
    hmac_prepared_words_bound;
  check bool_
    (Printf.sprintf "%.1f words <= %.1f" words hmac_prepared_words_bound)
    true (words <= hmac_prepared_words_bound)

(* --- bignum ------------------------------------------------------------------ *)

let bn = Alcotest.testable (fun fmt a -> Format.pp_print_string fmt (Bignum.to_hex a)) Bignum.equal

let test_bignum_of_to_int () =
  List.iter
    (fun i ->
      check (Alcotest.option int_) (string_of_int i) (Some i) (Bignum.to_int_opt (Bignum.of_int i)))
    [ 0; 1; 2; 1000; 67108863; 67108864; max_int ]

let test_bignum_hex_roundtrip () =
  let v = Bignum.of_hex "18ee90ff6c373e0ee4e3f0ad2" in
  check bn "hex roundtrip" v (Bignum.of_hex (Bignum.to_hex v))

let test_bignum_bytes_roundtrip () =
  let v = Bignum.of_hex "c7748819dffb62438d1c67eea" in
  check bn "bytes roundtrip" v (Bignum.of_bytes_be (Bignum.to_bytes_be_padded v 13));
  check bn "leading zeros ok" v (Bignum.of_bytes_be ("\x00\x00" ^ Bignum.to_bytes_be_padded v 13));
  let padded = Bignum.to_bytes_be_padded v 20 in
  check int_ "padded width" 20 (String.length padded);
  check bn "padded roundtrip" v (Bignum.of_bytes_be padded)

let test_bignum_known_arithmetic () =
  (* 123456789123456789123456789 and 987654321987654321 *)
  let a = Bignum.of_hex "661efdf2e3b19f7c045f15" in
  let b = Bignum.of_hex "db4da5f7ef412b1" in
  check bn "add" (Bignum.of_hex "661efe00988bfefaf871c6") (Bignum.add a b);
  check bn "sub" (Bignum.of_hex "661efde52ed73ffd104c64") (Bignum.sub a b);
  (* mul is checked by the divmod reconstruction identity. *)
  let q, r = Bignum.divmod a b in
  check bn "divmod reconstructs" a (Bignum.add (Bignum.mul q b) r);
  check bool_ "remainder < divisor" true (Bignum.compare r b < 0)

let test_bignum_shift () =
  let v = Bignum.of_int 0b1011 in
  check bn "shl" (Bignum.of_int 0b1011000) (Bignum.shift_left v 3);
  check bn "shr" (Bignum.of_int 0b10) (Bignum.shift_right v 2);
  check bn "shr to zero" (Bignum.of_int 0) (Bignum.shift_right v 10);
  let big = Bignum.of_hex "18ee90ff6c373e0ee4e3f0ad2" in
  check bn "shl/shr inverse" big (Bignum.shift_right (Bignum.shift_left big 137) 137)

let test_bignum_num_bits () =
  check int_ "zero" 0 (Bignum.num_bits (Bignum.of_int 0));
  check int_ "one" 1 (Bignum.num_bits Bignum.one);
  check int_ "255" 8 (Bignum.num_bits (Bignum.of_int 255));
  check int_ "256" 9 (Bignum.num_bits (Bignum.of_int 256));
  check int_ "2^100" 101 (Bignum.num_bits (Bignum.shift_left Bignum.one 100))

let test_bignum_sub_negative_raises () =
  try
    ignore (Bignum.sub Bignum.one Bignum.two);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_bignum_div_by_zero () =
  try
    ignore (Bignum.divmod Bignum.one (Bignum.of_int 0));
    Alcotest.fail "expected Division_by_zero"
  with Division_by_zero -> ()

let test_bignum_modpow_known () =
  (* 2^10 mod 1000 = 24; 3^100 mod 7: 3^6=1 (Fermat), 100 mod 6 = 4, 3^4=81, 81 mod 7 = 4. *)
  check bn "2^10 mod 1000" (Bignum.of_int 24)
    (Bignum.modpow Bignum.two (Bignum.of_int 10) (Bignum.of_int 1000));
  check bn "3^100 mod 7" (Bignum.of_int 4)
    (Bignum.modpow (Bignum.of_int 3) (Bignum.of_int 100) (Bignum.of_int 7));
  check bn "x^0 = 1" Bignum.one (Bignum.modpow (Bignum.of_int 5) (Bignum.of_int 0) (Bignum.of_int 7));
  check bn "mod 1 = 0" (Bignum.of_int 0) (Bignum.modpow (Bignum.of_int 5) (Bignum.of_int 3) Bignum.one)

let test_bignum_gcd () =
  check bn "gcd(12,18)" (Bignum.of_int 6) (Bignum.gcd (Bignum.of_int 12) (Bignum.of_int 18));
  check bn "gcd(17,5)" Bignum.one (Bignum.gcd (Bignum.of_int 17) (Bignum.of_int 5));
  check bn "gcd(0,x)" (Bignum.of_int 9) (Bignum.gcd (Bignum.of_int 0) (Bignum.of_int 9))

let test_bignum_modinv () =
  (match Bignum.modinv (Bignum.of_int 3) (Bignum.of_int 11) with
  | Some v -> check bn "3^-1 mod 11 = 4" (Bignum.of_int 4) v
  | None -> Alcotest.fail "expected an inverse");
  check bool_ "no inverse when not coprime" true (Bignum.modinv (Bignum.of_int 6) (Bignum.of_int 9) = None);
  check bool_ "zero has no inverse" true (Bignum.modinv (Bignum.of_int 0) (Bignum.of_int 9) = None)

let test_bignum_padded_too_narrow () =
  check string_ "fits in two bytes" "\x01\x00" (Bignum.to_bytes_be_padded (Bignum.of_int 256) 2);
  try
    ignore (Bignum.to_bytes_be_padded (Bignum.of_int 256) 1);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_bignum_random_in_range () =
  let rng = Rng.create 5L in
  let bound = Bignum.of_hex "1000000000000000001" in
  for _ = 1 to 200 do
    check bool_ "random_bits within 70 bits" true (Bignum.num_bits (Bignum.random_bits rng 70) <= 70);
    check bool_ "random_below under its bound" true (Bignum.compare (Bignum.random_below rng bound) bound < 0);
    check bn "below one is zero" (Bignum.of_int 0) (Bignum.random_below rng Bignum.one)
  done;
  (* 200 draws of 70 bits all landing under 2^69 has odds 2^-200. *)
  check bool_ "the top bit is reached" true
    (List.exists (fun _ -> Bignum.num_bits (Bignum.random_bits rng 70) = 70) (List.init 200 Fun.id))

(* qcheck generators for bignums *)

let gen_bignum =
  QCheck.make
    ~print:Bignum.to_hex
    QCheck.Gen.(
      let digits = string_size ~gen:(map (fun i -> "0123456789abcdef".[i]) (0 -- 15)) (1 -- 34) in
      map Bignum.of_hex digits)

let prop_add_commutative =
  QCheck.Test.make ~name:"add commutative" ~count:300 (QCheck.pair gen_bignum gen_bignum)
    (fun (a, b) -> Bignum.equal (Bignum.add a b) (Bignum.add b a))

let prop_add_sub_inverse =
  QCheck.Test.make ~name:"(a+b)-b = a" ~count:300 (QCheck.pair gen_bignum gen_bignum) (fun (a, b) ->
      Bignum.equal (Bignum.sub (Bignum.add a b) b) a)

let prop_mul_commutative =
  QCheck.Test.make ~name:"mul commutative" ~count:300 (QCheck.pair gen_bignum gen_bignum)
    (fun (a, b) -> Bignum.equal (Bignum.mul a b) (Bignum.mul b a))

let prop_mul_distributive =
  QCheck.Test.make ~name:"a*(b+c) = a*b + a*c" ~count:200
    (QCheck.triple gen_bignum gen_bignum gen_bignum) (fun (a, b, c) ->
      Bignum.equal (Bignum.mul a (Bignum.add b c)) (Bignum.add (Bignum.mul a b) (Bignum.mul a c)))

let prop_divmod_reconstruction =
  QCheck.Test.make ~name:"a = q*b + r, r < b" ~count:500 (QCheck.pair gen_bignum gen_bignum)
    (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:300 gen_bignum (fun a ->
      Bignum.equal a (Bignum.of_bytes_be (Bignum.to_bytes_be_padded a ((Bignum.num_bits a + 7) / 8))))

let prop_modpow_mul =
  (* a^(x+y) = a^x * a^y (mod m) *)
  QCheck.Test.make ~name:"modpow addition law" ~count:100
    (QCheck.triple gen_bignum (QCheck.pair QCheck.small_nat QCheck.small_nat) gen_bignum)
    (fun (a, (x, y), m) ->
      QCheck.assume (Bignum.compare m Bignum.one > 0);
      let x = Bignum.of_int x and y = Bignum.of_int y in
      let lhs = Bignum.modpow a (Bignum.add x y) m in
      let rhs = Bignum.rem (Bignum.mul (Bignum.modpow a x m) (Bignum.modpow a y m)) m in
      Bignum.equal lhs rhs)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:300 gen_bignum (fun a ->
      Bignum.equal a (Bignum.of_hex (Bignum.to_hex a)))

(* Shifts agree with multiplying and dividing by 2^k, where 2^k is built
   by repeated doubling rather than by a shift. *)
let prop_shifts_scale_by_powers_of_two =
  QCheck.Test.make ~name:"shifts multiply and divide by 2^k" ~count:200
    (QCheck.pair gen_bignum (QCheck.int_range 0 130))
    (fun (a, k) ->
      let pow = List.fold_left (fun p _ -> Bignum.mul p Bignum.two) Bignum.one (List.init k Fun.id) in
      Bignum.equal (Bignum.shift_left a k) (Bignum.mul a pow)
      && Bignum.equal (Bignum.shift_right a k) (fst (Bignum.divmod a pow)))

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both and leaves coprime cofactors" ~count:300
    (QCheck.pair gen_bignum gen_bignum)
    (fun (a, b) ->
      let g = Bignum.gcd a b in
      if Bignum.is_zero g then Bignum.is_zero a && Bignum.is_zero b
      else
        Bignum.is_zero (Bignum.rem a g)
        && Bignum.is_zero (Bignum.rem b g)
        && Bignum.equal Bignum.one (Bignum.gcd (fst (Bignum.divmod a g)) (fst (Bignum.divmod b g))))

let prop_modinv_inverts =
  (* An inverse exists exactly when a and m are coprime, and it is one. *)
  QCheck.Test.make ~name:"modinv inverts exactly the coprime residues" ~count:300
    (QCheck.pair gen_bignum gen_bignum)
    (fun (a, m) ->
      QCheck.assume (Bignum.compare m Bignum.one > 0);
      match Bignum.modinv a m with
      | Some v -> Bignum.compare v m < 0 && Bignum.equal Bignum.one (Bignum.rem (Bignum.mul a v) m)
      | None -> not (Bignum.equal Bignum.one (Bignum.gcd a m)))

(* --- primes -------------------------------------------------------------- *)

(* Below 1000 the test reads its sieve list alone: it must name exactly
   the 168 primes there, 2 and 997 among them. *)
let test_small_primes_list () =
  let rng = Rng.create 1L in
  let prime n = Prime.is_probably_prime rng (Bignum.of_int n) in
  check bool_ "2 listed" true (prime 2);
  check bool_ "997 listed" true (prime 997);
  check bool_ "1000 not listed" false (prime 1000);
  check int_ "count below 1000" 168 (List.length (List.filter prime (List.init 1000 Fun.id)))

let test_primality_small () =
  let rng = Rng.create 1L in
  List.iter
    (fun (n, expected) ->
      check bool_ (string_of_int n) expected (Prime.is_probably_prime rng (Bignum.of_int n)))
    [
      (2, true); (3, true); (4, false); (17, true); (561, false) (* Carmichael *); (997, true);
      (1009, true); (1001, false); (7919, true); (7917, false);
    ]

let test_primality_large_known () =
  let rng = Rng.create 2L in
  (* 2^89-1 is a Mersenne prime; 2^67-1 is famously composite. *)
  let mersenne p = Bignum.pred (Bignum.shift_left Bignum.one p) in
  check bool_ "2^89-1 prime" true (Prime.is_probably_prime rng (mersenne 89));
  check bool_ "2^67-1 composite" false (Prime.is_probably_prime rng (mersenne 67))

let test_prime_generation () =
  let rng = Rng.create 3L in
  let p = Prime.generate rng ~bits:64 in
  check int_ "exact width" 64 (Bignum.num_bits p);
  check bool_ "probably prime" true (Prime.is_probably_prime rng p);
  check bool_ "odd" true (not (Bignum.is_even p))

(* --- rsa --------------------------------------------------------------------- *)

(* A single 256-bit keypair shared across tests keeps the suite fast while
   exercising real multi-limb arithmetic. *)
let test_keypair = lazy (Rsa.generate (Rng.create 2024L) ~bits:512)

let test_rsa_keygen_shape () =
  let kp = Lazy.force test_keypair in
  check int_ "modulus width" 512 (Bignum.num_bits kp.Rsa.public.n);
  check int_ "signature bytes" 64 (String.length (Rsa.sign kp.Rsa.private_ "m"));
  (* d*e = 1 mod (p-1)(q-1) *)
  let phi = Bignum.mul (Bignum.pred kp.Rsa.private_.p) (Bignum.pred kp.Rsa.private_.q) in
  check bn "d*e = 1 (mod phi)" Bignum.one
    (Bignum.rem (Bignum.mul kp.Rsa.private_.d kp.Rsa.public.e) phi)

let test_rsa_sign_verify () =
  let kp = Lazy.force test_keypair in
  let msg = "authorise: subject=alice action=read resource=wsA" in
  let signature = Rsa.sign kp.Rsa.private_ msg in
  check int_ "signature width" 64 (String.length signature);
  check bool_ "verifies" true (Rsa.verify kp.Rsa.public msg ~signature);
  check bool_ "rejects altered message" false (Rsa.verify kp.Rsa.public (msg ^ "!") ~signature);
  let tampered = Bytes.of_string signature in
  Bytes.set tampered 5 (Char.chr (Char.code (Bytes.get tampered 5) lxor 1));
  check bool_ "rejects altered signature" false
    (Rsa.verify kp.Rsa.public msg ~signature:(Bytes.to_string tampered));
  check bool_ "rejects wrong length" false (Rsa.verify kp.Rsa.public msg ~signature:"short")

let test_rsa_sign_wrong_key () =
  let kp = Lazy.force test_keypair in
  let other = Rsa.generate (Rng.create 99L) ~bits:512 in
  let signature = Rsa.sign kp.Rsa.private_ "msg" in
  check bool_ "other key rejects" false (Rsa.verify other.Rsa.public "msg" ~signature)

(* The CRT signature equals the plain [m^d mod n] of the padded digest,
   byte for byte, on keys of several widths and messages of several
   lengths; the key's CRT parts are what they claim. *)
let test_rsa_crt_matches_plain () =
  let plain (key : Rsa.private_key) msg =
    let k = (Bignum.num_bits key.Rsa.pub.Rsa.n + 7) / 8 in
    let block = "\x00\x01" ^ String.make (k - 35) '\xFF' ^ "\x00" ^ Sha256.digest msg in
    Bignum.to_bytes_be_padded (Bignum.modpow (Bignum.of_bytes_be block) key.Rsa.d key.Rsa.pub.Rsa.n) k
  in
  List.iter
    (fun (seed, bits) ->
      let key = (Rsa.generate (Rng.create seed) ~bits).Rsa.private_ in
      check bn "dp = d mod (p-1)" (Bignum.rem key.Rsa.d (Bignum.pred key.Rsa.p)) key.Rsa.dp;
      check bn "dq = d mod (q-1)" (Bignum.rem key.Rsa.d (Bignum.pred key.Rsa.q)) key.Rsa.dq;
      check bn "q * qinv = 1 (mod p)" Bignum.one (Bignum.rem (Bignum.mul key.Rsa.q key.Rsa.qinv) key.Rsa.p);
      List.iter
        (fun msg ->
          check string_ (Printf.sprintf "%d-bit key, %d-byte message" bits (String.length msg)) (plain key msg)
            (Rsa.sign key msg))
        [ ""; "msg"; "authorise: subject=alice action=read resource=wsA"; String.make 1000 'x'; Int64.to_string seed ])
    [ (1L, 512); (2L, 512); (3L, 384); (4L, 320); (5L, 768) ]

let test_rsa_public_xml_roundtrip () =
  let kp = Lazy.force test_keypair in
  match Rsa.public_of_xml (Rsa.public_to_xml kp.Rsa.public) with
  | Some pub ->
    check bool_ "n" true (Bignum.equal pub.Rsa.n kp.Rsa.public.n);
    check bool_ "e" true (Bignum.equal pub.Rsa.e kp.Rsa.public.e)
  | None -> Alcotest.fail "expected key to parse back"

(* --- stream cipher -------------------------------------------------------------- *)

let test_stream_roundtrip () =
  let rng = Rng.create 10L in
  let key = Stream_cipher.derive_key "shared secret" in
  let plain = "the body of a SOAP message with sensitive content" in
  let cipher = Stream_cipher.encrypt rng ~key plain in
  (* The nonce prefix is the whole expansion: the same for any length. *)
  let short = Stream_cipher.encrypt rng ~key "x" in
  check int_ "expansion = nonce" (String.length short - 1) (String.length cipher - String.length plain);
  check (Alcotest.option string_) "roundtrip" (Some plain) (Stream_cipher.decrypt ~key cipher)

let test_stream_wrong_key () =
  let rng = Rng.create 10L in
  let key = Stream_cipher.derive_key "a" and key' = Stream_cipher.derive_key "b" in
  let cipher = Stream_cipher.encrypt rng ~key "attack at dawn" in
  (match Stream_cipher.decrypt ~key:key' cipher with
  | Some other -> check bool_ "garbled" true (other <> "attack at dawn")
  | None -> Alcotest.fail "stream decrypt never fails on well-sized input");
  check bool_ "short input rejected" true (Stream_cipher.decrypt ~key "tiny" = None)

let test_stream_distinct_nonces () =
  let rng = Rng.create 11L in
  let key = Stream_cipher.derive_key "k" in
  let c1 = Stream_cipher.encrypt rng ~key "same" and c2 = Stream_cipher.encrypt rng ~key "same" in
  check bool_ "distinct ciphertexts" true (c1 <> c2)

let test_stream_empty () =
  let rng = Rng.create 12L in
  let key = Stream_cipher.derive_key "k" in
  check (Alcotest.option string_) "empty ok" (Some "") (Stream_cipher.decrypt ~key (Stream_cipher.encrypt rng ~key ""))

(* --- certificates ------------------------------------------------------------- *)

let ca_kp = lazy (Rsa.generate (Rng.create 77L) ~bits:512)
let leaf_kp = lazy (Rsa.generate (Rng.create 78L) ~bits:512)

let make_ca () =
  Cert.self_signed (Lazy.force ca_kp) ~subject:"cn=root-ca" ~serial:1 ~not_before:0.0
    ~not_after:1000.0

let test_cert_self_signed () =
  let ca = make_ca () in
  check string_ "issuer = subject" ca.Cert.subject ca.Cert.issuer;
  check bool_ "self-verifies" true (Cert.verify_signature ca ~issuer_key:ca.Cert.public_key);
  let store = Cert.Trust_store.(add empty ca) in
  check bool_ "valid inside window" true (Cert.Trust_store.trusts store ~now:500.0 ca);
  check bool_ "invalid after" false (Cert.Trust_store.trusts store ~now:1001.0 ca);
  check bool_ "invalid before" false (Cert.Trust_store.trusts store ~now:(-1.0) ca)

let test_cert_issue_and_verify () =
  let ca = make_ca () in
  let leaf =
    Cert.issue ~ca_key:(Lazy.force ca_kp).Rsa.private_ ~ca_cert:ca ~subject:"cn=pdp,o=domain-a"
      ~public_key:(Lazy.force leaf_kp).Rsa.public ~serial:2 ~not_before:0.0 ~not_after:500.0
  in
  check string_ "issuer" "cn=root-ca" leaf.Cert.issuer;
  check bool_ "signature by CA" true (Cert.verify_signature leaf ~issuer_key:ca.Cert.public_key);
  check bool_ "not by own key" false (Cert.verify_signature leaf ~issuer_key:leaf.Cert.public_key)

let test_cert_xml_roundtrip () =
  let ca = make_ca () in
  match Cert.of_xml (Cert.to_xml ca) with
  | Some c ->
    check string_ "subject" ca.Cert.subject c.Cert.subject;
    check string_ "canonical form"
      (Dacs_xml.Xml.canonical_string (Cert.to_xml ca))
      (Dacs_xml.Xml.canonical_string (Cert.to_xml c));
    check bool_ "still verifies" true (Cert.verify_signature c ~issuer_key:c.Cert.public_key)
  | None -> Alcotest.fail "expected certificate to parse back"

let test_chain_verification () =
  let ca = make_ca () in
  let leaf =
    Cert.issue ~ca_key:(Lazy.force ca_kp).Rsa.private_ ~ca_cert:ca ~subject:"cn=svc"
      ~public_key:(Lazy.force leaf_kp).Rsa.public ~serial:3 ~not_before:0.0 ~not_after:500.0
  in
  let store = Cert.Trust_store.add Cert.Trust_store.empty ca in
  let ok = Cert.Trust_store.verify_chain store ~now:100.0 in
  check bool_ "good chain" true (ok [ leaf; ca ] = Ok ());
  check bool_ "root alone" true (ok [ ca ] = Ok ());
  check bool_ "empty chain" true (ok [] = Error Cert.Trust_store.Empty_chain);
  (match Cert.Trust_store.verify_chain store ~now:600.0 [ leaf; ca ] with
  | Error (Cert.Trust_store.Expired s) -> check string_ "expired leaf" "cn=svc" s
  | _ -> Alcotest.fail "expected Expired");
  (* Untrusted root. *)
  let other_ca =
    Cert.self_signed (Rsa.generate (Rng.create 80L) ~bits:512) ~subject:"cn=evil" ~serial:9
      ~not_before:0.0 ~not_after:1000.0
  in
  (match Cert.Trust_store.verify_chain store ~now:100.0 [ other_ca ] with
  | Error (Cert.Trust_store.Untrusted_root _) -> ()
  | _ -> Alcotest.fail "expected Untrusted_root");
  (* Broken chain: leaf claims a different issuer. *)
  match Cert.Trust_store.verify_chain store ~now:100.0 [ leaf; other_ca ] with
  | Error (Cert.Trust_store.Broken_chain _) -> ()
  | _ -> Alcotest.fail "expected Broken_chain"

let test_chain_tampered_signature () =
  let ca = make_ca () in
  let leaf =
    Cert.issue ~ca_key:(Lazy.force ca_kp).Rsa.private_ ~ca_cert:ca ~subject:"cn=svc"
      ~public_key:(Lazy.force leaf_kp).Rsa.public ~serial:4 ~not_before:0.0 ~not_after:500.0
  in
  let forged = { leaf with Cert.subject = "cn=admin" } in
  let store = Cert.Trust_store.add Cert.Trust_store.empty ca in
  match Cert.Trust_store.verify_chain store ~now:100.0 [ forged; ca ] with
  | Error (Cert.Trust_store.Bad_signature _) -> ()
  | _ -> Alcotest.fail "expected Bad_signature on a forged subject"

let test_trust_store_dedup () =
  let ca = make_ca () in
  let store = Cert.Trust_store.add (Cert.Trust_store.add Cert.Trust_store.empty ca) ca in
  check int_ "deduplicated" 1 (List.length (Cert.Trust_store.roots store));
  check bool_ "membership" true (Cert.Trust_store.mem store ca)

(* --- hash chain ----------------------------------------------------------- *)

(* [Chain.extend] over a string payload. *)
let extend ~prev payload = Chain.extend ~prev (buffer_of payload)

(* Reference folds over [Chain.extend]: the digest of every prefix, and a
   link-by-link check of a (payload, claimed digest) segment that returns
   the index of the first link whose digest does not recompute.  The
   offline log verifies its chain with this fold inline. *)
module Chain_ref = struct
  let chain ~prev payloads =
    List.rev
      (fst
         (List.fold_left
            (fun (acc, prev) payload ->
              let d = extend ~prev payload in
              (d :: acc, d))
            ([], prev) payloads))

  let verify ~prev segment =
    let rec go i prev = function
      | [] -> Ok prev
      | (payload, claimed) :: rest ->
        let d = extend ~prev payload in
        if String.equal d claimed then go (i + 1) d rest else Error i
    in
    go 0 prev segment
end

let payloads = [ "grant:alice:doctor"; "revoke:bob"; "publish:p2"; "decide:chart" ]

let test_hashchain_deterministic () =
  let a = Chain_ref.chain ~prev:Chain.genesis payloads in
  let b = Chain_ref.chain ~prev:Chain.genesis payloads in
  check bool_ "same digests" true (a = b);
  check int_ "one digest per payload" (List.length payloads) (List.length a);
  check bool_ "digests differ per prefix" true
    (List.length (List.sort_uniq compare a) = List.length a)

let segment () = List.combine payloads (Chain_ref.chain ~prev:Chain.genesis payloads)

let test_hashchain_verify_honest () =
  match Chain_ref.verify ~prev:Chain.genesis (segment ()) with
  | Ok head ->
    check string_ "head is last digest" (List.nth (Chain_ref.chain ~prev:Chain.genesis payloads) 3) head
  | Error i -> Alcotest.failf "honest segment rejected at %d" i

let test_hashchain_verify_empty () =
  match Chain_ref.verify ~prev:Chain.genesis [] with
  | Ok head -> check string_ "empty verifies to prev" Chain.genesis head
  | Error i -> Alcotest.failf "empty segment rejected at %d" i

let test_hashchain_mutation_detected () =
  (* Flipping any payload is caught exactly at its index: the digest
     commits to the whole prefix. *)
  List.iteri
    (fun k _ ->
      let tampered =
        List.mapi (fun i (p, d) -> if i = k then (p ^ "!", d) else (p, d)) (segment ())
      in
      match Chain_ref.verify ~prev:Chain.genesis tampered with
      | Error i -> check int_ "first bad link" k i
      | Ok _ -> Alcotest.failf "mutation at %d not detected" k)
    payloads

let test_hashchain_reorder_detected () =
  let seg = segment () in
  let swapped = [ List.nth seg 1; List.nth seg 0; List.nth seg 2; List.nth seg 3 ] in
  match Chain_ref.verify ~prev:Chain.genesis swapped with
  | Error 0 -> ()
  | Error i -> Alcotest.failf "reorder detected at %d, expected 0" i
  | Ok _ -> Alcotest.fail "reordered segment verified"

let test_hashchain_splice_detected () =
  (* A truncated prefix (wrong prev) cannot be spliced onto: the first
     retained link no longer verifies. *)
  let seg = segment () in
  let tail = [ List.nth seg 2; List.nth seg 3 ] in
  (match Chain_ref.verify ~prev:Chain.genesis tail with
  | Error 0 -> ()
  | Error i -> Alcotest.failf "splice detected at %d, expected 0" i
  | Ok _ -> Alcotest.fail "spliced tail verified");
  (* ... but verifies from its true predecessor. *)
  match Chain_ref.verify ~prev:(snd (List.nth seg 1)) tail with
  | Ok _ -> ()
  | Error i -> Alcotest.failf "honest tail rejected at %d" i

let test_hashchain_short () =
  let d = extend ~prev:Chain.genesis "x" in
  check int_ "6 bytes hex" 12 (String.length (Chain.short d));
  check bool_ "hex alphabet" true
    (String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) (Chain.short d))

(* --- suites -------------------------------------------------------------------- *)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_add_commutative;
      prop_add_sub_inverse;
      prop_mul_commutative;
      prop_mul_distributive;
      prop_divmod_reconstruction;
      prop_bytes_roundtrip;
      prop_modpow_mul;
      prop_hex_roundtrip;
      prop_shifts_scale_by_powers_of_two;
      prop_gcd_divides;
      prop_modinv_inverts;
    ]

let () =
  Alcotest.run "dacs_crypto"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes_length;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "hex errors" `Quick test_hex_errors;
          Alcotest.test_case "base64 RFC vectors" `Quick test_base64_vectors;
          Alcotest.test_case "base64 whitespace" `Quick test_base64_whitespace;
          Alcotest.test_case "base64 errors" `Quick test_base64_errors;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "incremental = one-shot" `Quick test_sha256_incremental_matches_oneshot;
          Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries;
          Alcotest.test_case "digest2_buffer = digest of the concatenation" `Quick
            test_sha256_digest2_buffer;
          QCheck_alcotest.to_alcotest prop_sha256_interleaved_contexts;
          Alcotest.test_case "lengths 55-129 agree with the reference" `Quick test_sha256_reference_lengths;
          QCheck_alcotest.to_alcotest prop_sha256_reference;
          Alcotest.test_case "a one-shot digest allocates only its result" `Quick
            test_digest_allocation;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "allocation of a 32-byte tag" `Quick test_hmac_allocation;
          Alcotest.test_case "allocation of a 32-byte tag under a prepared key" `Quick
            test_hmac_prepared_allocation;
          QCheck_alcotest.to_alcotest prop_hmac_reference;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "of_int/to_int" `Quick test_bignum_of_to_int;
          Alcotest.test_case "hex roundtrip" `Quick test_bignum_hex_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick test_bignum_bytes_roundtrip;
          Alcotest.test_case "known arithmetic" `Quick test_bignum_known_arithmetic;
          Alcotest.test_case "shifts" `Quick test_bignum_shift;
          Alcotest.test_case "num_bits" `Quick test_bignum_num_bits;
          Alcotest.test_case "negative sub raises" `Quick test_bignum_sub_negative_raises;
          Alcotest.test_case "div by zero raises" `Quick test_bignum_div_by_zero;
          Alcotest.test_case "modpow known values" `Quick test_bignum_modpow_known;
          Alcotest.test_case "gcd" `Quick test_bignum_gcd;
          Alcotest.test_case "modinv" `Quick test_bignum_modinv;
          Alcotest.test_case "padded encoding refuses a narrow width" `Quick test_bignum_padded_too_narrow;
          Alcotest.test_case "random values in range" `Quick test_bignum_random_in_range;
        ]
        @ props );
      ( "prime",
        [
          Alcotest.test_case "small prime list" `Quick test_small_primes_list;
          Alcotest.test_case "small numbers" `Quick test_primality_small;
          Alcotest.test_case "large known primes" `Quick test_primality_large_known;
          Alcotest.test_case "generation" `Quick test_prime_generation;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "keygen shape" `Quick test_rsa_keygen_shape;
          Alcotest.test_case "sign/verify" `Quick test_rsa_sign_verify;
          Alcotest.test_case "wrong key rejects" `Quick test_rsa_sign_wrong_key;
          Alcotest.test_case "CRT signature = plain modpow" `Quick test_rsa_crt_matches_plain;
          Alcotest.test_case "public key XML roundtrip" `Quick test_rsa_public_xml_roundtrip;
        ] );
      ( "stream_cipher",
        [
          Alcotest.test_case "roundtrip" `Quick test_stream_roundtrip;
          Alcotest.test_case "wrong key garbles" `Quick test_stream_wrong_key;
          Alcotest.test_case "distinct nonces" `Quick test_stream_distinct_nonces;
          Alcotest.test_case "empty message" `Quick test_stream_empty;
        ] );
      ( "cert",
        [
          Alcotest.test_case "self-signed" `Quick test_cert_self_signed;
          Alcotest.test_case "issue and verify" `Quick test_cert_issue_and_verify;
          Alcotest.test_case "XML roundtrip" `Quick test_cert_xml_roundtrip;
          Alcotest.test_case "chain verification" `Quick test_chain_verification;
          Alcotest.test_case "tampered certificate" `Quick test_chain_tampered_signature;
          Alcotest.test_case "trust store dedup" `Quick test_trust_store_dedup;
        ] );
      ( "hash_chain",
        [
          Alcotest.test_case "deterministic" `Quick test_hashchain_deterministic;
          Alcotest.test_case "honest segment verifies" `Quick test_hashchain_verify_honest;
          Alcotest.test_case "empty segment" `Quick test_hashchain_verify_empty;
          Alcotest.test_case "mutation detected at its index" `Quick test_hashchain_mutation_detected;
          Alcotest.test_case "reorder detected" `Quick test_hashchain_reorder_detected;
          Alcotest.test_case "splice/truncation detected" `Quick test_hashchain_splice_detected;
          Alcotest.test_case "short head rendering" `Quick test_hashchain_short;
        ] );
    ]
