(* FIPS 180-4 SHA-256. 32-bit words are kept in native ints masked to 32
   bits, which is safe on a 64-bit platform and faster than Int32 boxing.
   [test/test_crypto/sha256_reference.ml] keeps the straightforward
   one-round-at-a-time version as the oracle for this one. *)

let mask = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 chaining words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
}

(* The 64-word message schedule is working space for one block, not
   context state: [compress] fills and consumes it without yielding, so
   one array per domain serves every context. *)
let schedule = Domain.DLS.new_key (fun () -> Array.make 64 0)

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let init () = { h = Array.copy iv; buf = Bytes.create 64; buf_len = 0; total = 0 }

(* Big-endian 32-bit words, read and written in place without bounds
   checks: every caller stays inside its 64-byte block or 32-byte digest. *)
external get32u : string -> int -> int32 = "%caml_string_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get_word s i =
  (if Sys.big_endian then Int32.to_int (get32u s i) else Int32.to_int (bswap32 (get32u s i)))
  land mask

let[@inline] set_word b i v =
  if Sys.big_endian then set32u b i (Int32.of_int v) else set32u b i (bswap32 (Int32.of_int v))

(* Rotations on the doubled word [xx = x lor (x lsl 32)]: bits [n] to
   [n + 31] of [xx] are [x] rotated right by [n], for any [n] up to 30 on
   63-bit ints (SHA-256 rotates by at most 25).  Bits above 31 are left
   set: every caller adds the result into a sum that is masked, and
   carries only run upwards. *)
let[@inline] big_sigma0 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 2) lxor (xx lsr 13) lxor (xx lsr 22)

let[@inline] big_sigma1 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 6) lxor (xx lsr 11) lxor (xx lsr 25)

let[@inline] small_sigma0 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 17) lxor (xx lsr 19) lxor (x lsr 10)

(* One 64-byte block of [src] at [off] into the chaining words [h].  The
   64 rounds run eight at a time: each round writes two of the eight
   working variables, and the next round reads them under rotated names,
   so no round shifts all eight along.  A round is
     t1 = h + Σ1(e) + Ch(e, f, g) + k.(j) + w.(j);  d += t1;
     h = t1 + Σ0(a) + Maj(a, b, c)
   with [Ch] as [g lxor (e land (f lxor g))] and [Maj] as
   [(a land b) lor (c land (a lor b))]. *)
let compress h w src off =
  for t = 0 to 15 do
    Array.unsafe_set w t (get_word src (off + (4 * t)))
  done;
  for t = 16 to 63 do
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16)
       + small_sigma0 (Array.unsafe_get w (t - 15))
       + Array.unsafe_get w (t - 7)
       + small_sigma1 (Array.unsafe_get w (t - 2)))
      land mask)
  done;
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for i = 0 to 7 do
    let j = 8 * i in
    let t1 = !hh + big_sigma1 !e + (!g lxor (!e land (!f lxor !g))) in
    let t1 = t1 + Array.unsafe_get k j + Array.unsafe_get w j in
    d := (!d + t1) land mask;
    hh := (t1 + big_sigma0 !a + ((!a land !b) lor (!c land (!a lor !b)))) land mask;
    let t1 = !g + big_sigma1 !d + (!f lxor (!d land (!e lxor !f))) in
    let t1 = t1 + Array.unsafe_get k (j + 1) + Array.unsafe_get w (j + 1) in
    c := (!c + t1) land mask;
    g := (t1 + big_sigma0 !hh + ((!hh land !a) lor (!b land (!hh lor !a)))) land mask;
    let t1 = !f + big_sigma1 !c + (!e lxor (!c land (!d lxor !e))) in
    let t1 = t1 + Array.unsafe_get k (j + 2) + Array.unsafe_get w (j + 2) in
    b := (!b + t1) land mask;
    f := (t1 + big_sigma0 !g + ((!g land !hh) lor (!a land (!g lor !hh)))) land mask;
    let t1 = !e + big_sigma1 !b + (!d lxor (!b land (!c lxor !d))) in
    let t1 = t1 + Array.unsafe_get k (j + 3) + Array.unsafe_get w (j + 3) in
    a := (!a + t1) land mask;
    e := (t1 + big_sigma0 !f + ((!f land !g) lor (!hh land (!f lor !g)))) land mask;
    let t1 = !d + big_sigma1 !a + (!c lxor (!a land (!b lxor !c))) in
    let t1 = t1 + Array.unsafe_get k (j + 4) + Array.unsafe_get w (j + 4) in
    hh := (!hh + t1) land mask;
    d := (t1 + big_sigma0 !e + ((!e land !f) lor (!g land (!e lor !f)))) land mask;
    let t1 = !c + big_sigma1 !hh + (!b lxor (!hh land (!a lxor !b))) in
    let t1 = t1 + Array.unsafe_get k (j + 5) + Array.unsafe_get w (j + 5) in
    g := (!g + t1) land mask;
    c := (t1 + big_sigma0 !d + ((!d land !e) lor (!f land (!d lor !e)))) land mask;
    let t1 = !b + big_sigma1 !g + (!a lxor (!g land (!hh lxor !a))) in
    let t1 = t1 + Array.unsafe_get k (j + 6) + Array.unsafe_get w (j + 6) in
    f := (!f + t1) land mask;
    b := (t1 + big_sigma0 !c + ((!c land !d) lor (!e land (!c lor !d)))) land mask;
    let t1 = !a + big_sigma1 !f + (!hh lxor (!f land (!g lxor !hh))) in
    let t1 = t1 + Array.unsafe_get k (j + 7) + Array.unsafe_get w (j + 7) in
    e := (!e + t1) land mask;
    a := (t1 + big_sigma0 !b + ((!b land !c) lor (!d land (!b lor !c)))) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let update ctx s =
  let n = String.length s in
  ctx.total <- ctx.total + n;
  let w = Domain.DLS.get schedule in
  let pos = ref 0 in
  (* Fill a partially full buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) n in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx.h w (Bytes.unsafe_to_string ctx.buf) 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks are read where they lie. *)
  while n - !pos >= 64 do
    compress ctx.h w s !pos;
    pos := !pos + 64
  done;
  if !pos < n then begin
    Bytes.blit_string s !pos ctx.buf 0 (n - !pos);
    ctx.buf_len <- n - !pos
  end

(* [update ctx (Buffer.contents b)] without the copy: each block is
   blitted from [b] into the context's block buffer. *)
let update_buffer ctx b =
  let n = Buffer.length b in
  ctx.total <- ctx.total + n;
  let w = Domain.DLS.get schedule in
  let pos = ref 0 in
  while !pos < n do
    let take = min (64 - ctx.buf_len) (n - !pos) in
    Buffer.blit b !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    if ctx.buf_len = 64 then begin
      compress ctx.h w (Bytes.unsafe_to_string ctx.buf) 0;
      ctx.buf_len <- 0
    end
  done

(* Pads [ctx]'s input and writes its digest into [out]. *)
let finish ctx out =
  let w = Domain.DLS.get schedule in
  let buf = ctx.buf in
  (* Padding: 0x80, zeros, 64-bit big-endian length. *)
  Bytes.set buf ctx.buf_len '\x80';
  let len = ctx.buf_len + 1 in
  if len > 56 then begin
    Bytes.fill buf len (64 - len) '\x00';
    compress ctx.h w (Bytes.unsafe_to_string buf) 0;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf len (56 - len) '\x00';
  let bit_len = ctx.total * 8 in
  set_word buf 56 (bit_len lsr 32);
  set_word buf 60 (bit_len land mask);
  compress ctx.h w (Bytes.unsafe_to_string buf) 0;
  for i = 0 to 7 do
    set_word out (4 * i) ctx.h.(i)
  done

(* The working context of [resume], [digest] and [digest2_buffer], like
   [schedule] one per domain: the state is set, the input absorbed and
   the digest written out without yielding.  The digest is allocated
   first, so nothing between the set-up and the read-out allocates. *)
let scratch = Domain.DLS.new_key init

let resume ctx s =
  let out = Bytes.create 32 in
  let c = Domain.DLS.get scratch in
  Array.blit ctx.h 0 c.h 0 8;
  Bytes.blit ctx.buf 0 c.buf 0 ctx.buf_len;
  c.buf_len <- ctx.buf_len;
  c.total <- ctx.total;
  update c s;
  finish c out;
  Bytes.unsafe_to_string out

(* The scratch context, reset to the empty message. *)
let fresh () =
  let c = Domain.DLS.get scratch in
  Array.blit iv 0 c.h 0 8;
  c.buf_len <- 0;
  c.total <- 0;
  c

let digest s =
  let out = Bytes.create 32 in
  let c = fresh () in
  update c s;
  finish c out;
  Bytes.unsafe_to_string out

let digest2_buffer a b =
  let out = Bytes.create 32 in
  let c = fresh () in
  update c a;
  update_buffer c b;
  finish c out;
  Bytes.unsafe_to_string out

let hex_digest s = Encoding.hex_encode (digest s)
