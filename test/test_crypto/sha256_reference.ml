(* The oracle for [Dacs_crypto.Sha256] and [Dacs_crypto.Hmac]: FIPS
   180-4 SHA-256 one round at a time, every block copied into the
   context's buffer first, and RFC 2104 HMAC hashing both pad blocks on
   every call.  This was the library's kernel before it was unrolled;
   it is kept as written, slow and plain. *)

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
   context state: [process_block] fills and consumes it without
   yielding, so one array per domain serves every context. *)
let schedule = Domain.DLS.new_key (fun () -> Array.make 64 0)

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
  }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

let process_block ctx w block off =
  for t = 0 to 15 do
    let i = off + (4 * t) in
    w.(t) <-
      (Char.code (Bytes.get block i) lsl 24)
      lor (Char.code (Bytes.get block (i + 1)) lsl 16)
      lor (Char.code (Bytes.get block (i + 2)) lsl 8)
      lor Char.code (Bytes.get block (i + 3))
  done;
  for t = 16 to 63 do
    let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
    let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
  done;
  let h = ctx.h in
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
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
      process_block ctx w ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while n - !pos >= 64 do
    Bytes.blit_string s !pos ctx.buf 0 64;
    process_block ctx w ctx.buf 0;
    pos := !pos + 64
  done;
  if !pos < n then begin
    Bytes.blit_string s !pos ctx.buf 0 (n - !pos);
    ctx.buf_len <- n - !pos
  end

let finalize ctx =
  let w = Domain.DLS.get schedule in
  let bit_len = ctx.total * 8 in
  (* Padding: 0x80, zeros, 64-bit big-endian length. *)
  Bytes.set ctx.buf ctx.buf_len '\x80';
  ctx.buf_len <- ctx.buf_len + 1;
  if ctx.buf_len > 56 then begin
    Bytes.fill ctx.buf ctx.buf_len (64 - ctx.buf_len) '\x00';
    process_block ctx w ctx.buf 0;
    ctx.buf_len <- 0
  end;
  Bytes.fill ctx.buf ctx.buf_len (56 - ctx.buf_len) '\x00';
  for i = 0 to 7 do
    Bytes.set ctx.buf (56 + i) (Char.unsafe_chr ((bit_len lsr (8 * (7 - i))) land 0xFF))
  done;
  process_block ctx w ctx.buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xFF));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xFF))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let digest2 a b =
  let ctx = init () in
  update ctx a;
  update ctx b;
  finalize ctx

(* HMAC-SHA256 as the library computed it before keys were prepared:
   the key is padded and both pad blocks hashed for every message. *)
let hmac ~key msg =
  let pad key c =
    let b = Bytes.make 64 (Char.chr c) in
    String.iteri (fun i k -> Bytes.set b i (Char.chr (Char.code k lxor c))) key;
    Bytes.unsafe_to_string b
  in
  let key = if String.length key > 64 then digest key else key in
  digest2 (pad key 0x5C) (digest2 (pad key 0x36) msg)
