(** RSA signatures over {!Bignum}.

    Real textbook-RSA with PKCS#1-style padding, at simulator-scale key
    sizes (256–1024 bits).  DESIGN.md records the substitution: the paper's
    deployments assume a production PKI; here the algorithms are real but
    the key sizes are chosen for fast deterministic test runs, which
    preserves the behaviour that matters to the paper — signature/
    verification cost asymmetry and signed-message size overhead. *)

type public_key = { n : Bignum.t; e : Bignum.t }

type private_key = {
  pub : public_key;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;  (** [d mod (p - 1)] *)
  dq : Bignum.t;  (** [d mod (q - 1)] *)
  qinv : Bignum.t;  (** [q]{^ -1} [mod p] *)
}

type keypair = { public : public_key; private_ : private_key }

val generate : Rng.t -> bits:int -> keypair
(** Fresh keypair with an [n] of exactly [bits] bits and [e = 65537].
    [bits] must be at least 64. *)

(** {1 Signatures (SHA-256, PKCS#1 v1.5-style padding)} *)

val sign : private_key -> string -> string
(** [sign key msg] is the raw signature (of {!key_bytes} length):
    [m]{^ [d]} [mod n] of the padded digest [m], computed by the Chinese
    remainder theorem from [dp], [dq] and [qinv].  The padding is
    deterministic, so a message always signs to the same bytes. *)

val verify : public_key -> string -> signature:string -> bool

(** {1 Key serialisation} *)

val public_to_xml : public_key -> Dacs_xml.Xml.t
val public_of_xml : Dacs_xml.Xml.t -> public_key option
