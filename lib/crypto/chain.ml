let genesis = Sha256.digest "dacs:chain:genesis"

let extend ~prev payload = Sha256.digest2 prev payload

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

let short digest =
  let n = min 6 (String.length digest) in
  Encoding.hex_encode (String.sub digest 0 n)
