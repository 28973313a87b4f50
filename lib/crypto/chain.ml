let genesis = Sha256.digest "dacs:chain:genesis"

let extend ~prev payload = Sha256.digest2_buffer prev payload

let short digest =
  let n = min 6 (String.length digest) in
  Encoding.hex_encode (String.sub digest 0 n)
