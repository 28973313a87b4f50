let block_size = 64

type key = { inner : Sha256.ctx; outer : Sha256.ctx }

(* A context that has absorbed the block-sized key XOR-ed with [c]: the
   inner or outer pad. *)
let absorb_pad key c =
  let b = Bytes.make block_size (Char.chr c) in
  for i = 0 to String.length key - 1 do
    Bytes.set b i (Char.chr (Char.code key.[i] lxor c))
  done;
  let ctx = Sha256.init () in
  Sha256.update ctx (Bytes.unsafe_to_string b);
  ctx

let key secret =
  let secret = if String.length secret > block_size then Sha256.digest secret else secret in
  { inner = absorb_pad secret 0x36; outer = absorb_pad secret 0x5C }

let tag key msg = Sha256.resume key.outer (Sha256.resume key.inner msg)

let check key msg ~tag:received =
  let expected = tag key msg in
  String.length expected = String.length received
  &&
  let diff = ref 0 in
  for i = 0 to String.length expected - 1 do
    diff := !diff lor (Char.code (String.unsafe_get expected i) lxor Char.code (String.unsafe_get received i))
  done;
  !diff = 0

let sha256 ~key:secret msg = tag (key secret) msg
let verify ~key:secret msg ~tag = check (key secret) msg ~tag
