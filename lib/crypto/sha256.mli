(** SHA-256 (FIPS 180-4).

    A complete, from-scratch implementation: the DACS signature layer,
    certificate fingerprints and HMACs are all computed over real SHA-256
    digests so that message sizes and verification costs are realistic.

    {b Cost.}  A digest of [n] bytes compresses [(n + 72) / 64] blocks
    (the last one or two carry the padding and the length); a block
    costs about 0.6 µs on a 2-core x86-64 VM shared with other jobs
    ([bench/main.exe micro]: [sha256 (64 B)], two blocks, 1.3 µs).
    Whole blocks are read where they lie in the input; only a partial
    block is copied into the context.  {!digest}, {!digest2_buffer}
    and {!resume} hash in one working context per
    domain, so each allocates only its 32-byte result (6 words with its
    header); {!init} allocates a context of its own (24 words). *)

type ctx
(** Incremental hashing context: the chaining words, one block buffer
    and the byte count.  The 64-word message schedule is one working
    array shared by every context of a domain, so contexts may be
    updated in any interleaving. *)

val init : unit -> ctx

val update : ctx -> string -> unit
(** Absorb more input. May be called any number of times. *)

val resume : ctx -> string -> string
(** [resume ctx s] is the digest of everything [ctx] has absorbed
    followed by [s].  [ctx] itself is left as it was, so a context that
    has absorbed a shared prefix — an HMAC key's pad block — serves any
    number of messages without hashing that prefix again. *)

val digest : string -> string
(** One-shot digest of a full message (32 raw bytes). *)

val digest2_buffer : string -> Buffer.t -> string
(** [digest2_buffer a b] is [digest (a ^ Buffer.contents b)], streamed
    without building the concatenation and read from [b] where it lies. *)

val hex_digest : string -> string
(** [Encoding.hex_encode (digest s)]. *)
