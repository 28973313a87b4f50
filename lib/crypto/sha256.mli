(** SHA-256 (FIPS 180-4).

    A complete, from-scratch implementation: the DACS signature layer,
    certificate fingerprints and HMACs are all computed over real SHA-256
    digests so that message sizes and verification costs are realistic. *)

type ctx
(** Incremental hashing context: the chaining words, one block buffer
    and the byte count.  The 64-word message schedule is one working
    array shared by every context of a domain, so contexts may be
    updated in any interleaving. *)

val init : unit -> ctx

val update : ctx -> string -> unit
(** Absorb more input. May be called any number of times. *)

val finalize : ctx -> string
(** The 32-byte digest. The context must not be used afterwards. *)

val digest : string -> string
(** One-shot digest of a full message (32 raw bytes). *)

val digest2 : string -> string -> string
(** [digest2 a b] is [digest (a ^ b)], streamed without building the
    concatenation. *)

val hex_digest : string -> string
(** [Encoding.hex_encode (digest s)]. *)
