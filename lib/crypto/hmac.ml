let block_size = 64

(* The block-sized key XOR-ed with [c]: the inner or outer pad. *)
let pad key c =
  let b = Bytes.make block_size (Char.chr c) in
  String.iteri (fun i k -> Bytes.set b i (Char.chr (Char.code k lxor c))) key;
  Bytes.unsafe_to_string b

let sha256 ~key msg =
  let key = if String.length key > block_size then Sha256.digest key else key in
  Sha256.digest2 (pad key 0x5C) (Sha256.digest2 (pad key 0x36) msg)

let verify ~key msg ~tag =
  let expected = sha256 ~key msg in
  if String.length expected <> String.length tag then false
  else begin
    let diff = ref 0 in
    String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code tag.[i])) expected;
    !diff = 0
  end
