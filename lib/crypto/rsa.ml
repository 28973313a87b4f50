type public_key = { n : Bignum.t; e : Bignum.t }

type private_key = {
  pub : public_key;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;
  dq : Bignum.t;
  qinv : Bignum.t;
}

type keypair = { public : public_key; private_ : private_key }

let e_value = Bignum.of_int 65537

let generate rng ~bits =
  if bits < 64 then invalid_arg "Rsa.generate: need at least 64 bits";
  let half = bits / 2 in
  let rec gen_prime () =
    let p = Prime.generate rng ~bits:half in
    (* e must be invertible modulo p-1. *)
    if Bignum.equal (Bignum.gcd (Bignum.pred p) e_value) Bignum.one then p else gen_prime ()
  in
  let rec gen_pair () =
    let p = gen_prime () in
    let q = gen_prime () in
    if Bignum.equal p q then gen_pair ()
    else begin
      let n = Bignum.mul p q in
      if Bignum.num_bits n <> bits then gen_pair ()
      else begin
        let phi = Bignum.mul (Bignum.pred p) (Bignum.pred q) in
        match (Bignum.modinv e_value phi, Bignum.modinv q p) with
        | None, _ | _, None -> gen_pair ()
        | Some d, Some qinv ->
          let pub = { n; e = e_value } in
          let dp = Bignum.rem d (Bignum.pred p) and dq = Bignum.rem d (Bignum.pred q) in
          { public = pub; private_ = { pub; d; p; q; dp; dq; qinv } }
      end
    end
  in
  gen_pair ()

let key_bytes pub = (Bignum.num_bits pub.n + 7) / 8

(* --- signatures ----------------------------------------------------- *)

(* EMSA-PKCS1-v1_5 style block: 0x00 0x01 FF..FF 0x00 digest *)
let emsa_encode pub msg =
  let k = key_bytes pub in
  let digest = Sha256.digest msg in
  let pad_len = k - String.length digest - 3 in
  if pad_len < 1 then invalid_arg "Rsa: key too small for a SHA-256 signature";
  "\x00\x01" ^ String.make pad_len '\xFF' ^ "\x00" ^ digest

(* [m^d mod n] by the Chinese remainder theorem: two exponentiations
   with half-width moduli and exponents, recombined by Garner's formula
   [s = m2 + q * (qinv * (m1 - m2) mod p)]. *)
let sign key msg =
  let block = emsa_encode key.pub msg in
  let m = Bignum.of_bytes_be block in
  let m1 = Bignum.modpow m key.dp key.p and m2 = Bignum.modpow m key.dq key.q in
  let m2p = Bignum.rem m2 key.p in
  let diff =
    if Bignum.compare m1 m2p >= 0 then Bignum.sub m1 m2p else Bignum.sub (Bignum.add m1 key.p) m2p
  in
  let h = Bignum.rem (Bignum.mul key.qinv diff) key.p in
  let s = Bignum.add m2 (Bignum.mul h key.q) in
  Bignum.to_bytes_be_padded s (key_bytes key.pub)

let verify pub msg ~signature =
  String.length signature = key_bytes pub
  &&
  let s = Bignum.of_bytes_be signature in
  if Bignum.compare s pub.n >= 0 then false
  else begin
    let m = Bignum.modpow s pub.e pub.n in
    let expected = Bignum.of_bytes_be (emsa_encode pub msg) in
    Bignum.equal m expected
  end

(* --- serialisation ---------------------------------------------------- *)

module Xml = Dacs_xml.Xml

let public_to_xml pub =
  Xml.element "RSAPublicKey"
    ~children:
      [
        Xml.element "Modulus" ~children:[ Xml.text (Bignum.to_hex pub.n) ];
        Xml.element "Exponent" ~children:[ Xml.text (Bignum.to_hex pub.e) ];
      ]

let public_of_xml node =
  match (Xml.find_child node "Modulus", Xml.find_child node "Exponent") with
  | Some m, Some e -> (
    try Some { n = Bignum.of_hex (Xml.text_content m); e = Bignum.of_hex (Xml.text_content e) }
    with Invalid_argument _ -> None)
  | _ -> None
