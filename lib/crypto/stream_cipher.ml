let key_bytes = 32
let nonce_bytes = 16

(* One prepared key per message: its pad blocks are absorbed once, not
   once per 32-byte keystream block. *)
let keystream ~key ~nonce len =
  let key = Hmac.key key in
  let buf = Buffer.create (len + 32) in
  let counter = ref 0 in
  while Buffer.length buf < len do
    Buffer.add_string buf (Hmac.tag key (nonce ^ string_of_int !counter));
    incr counter
  done;
  Buffer.sub buf 0 len

let xor_with ~key ~nonce data =
  let ks = keystream ~key ~nonce (String.length data) in
  String.init (String.length data) (fun i -> Char.chr (Char.code data.[i] lxor Char.code ks.[i]))

let encrypt rng ~key plain =
  if String.length key <> key_bytes then invalid_arg "Stream_cipher.encrypt: bad key size";
  let nonce = Rng.bytes rng nonce_bytes in
  nonce ^ xor_with ~key ~nonce plain

let decrypt ~key data =
  if String.length key <> key_bytes then invalid_arg "Stream_cipher.decrypt: bad key size";
  if String.length data < nonce_bytes then None
  else begin
    let nonce = String.sub data 0 nonce_bytes in
    let cipher = String.sub data nonce_bytes (String.length data - nonce_bytes) in
    Some (xor_with ~key ~nonce cipher)
  end

let derive_key material = Sha256.digest ("dacs-key-derivation:" ^ material)
