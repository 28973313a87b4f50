(** Symmetric stream cipher built from HMAC-SHA256 in counter mode.

    Stands in for the AES-CBC suites of XML-Encryption: real keystream
    derivation and real ciphertext expansion (nonce prefix), with
    encrypt/decrypt symmetry.  [encrypt] and [decrypt] are the same XOR
    operation once the nonce is fixed. *)

val encrypt : Rng.t -> key:string -> string -> string
(** [encrypt rng ~key plain] draws a fresh nonce and returns
    [nonce ^ ciphertext]. @raise Invalid_argument on a wrong-size key. *)

val decrypt : key:string -> string -> string option
(** [None] when the input is shorter than a nonce. *)

val derive_key : string -> string
(** Deterministically expand arbitrary secret material into a valid key. *)
