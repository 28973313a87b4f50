(** HMAC-SHA256 (RFC 2104).

    {b Cost.}  A tag is [SHA-256((K ⊕ opad) ‖ SHA-256((K ⊕ ipad) ‖ msg))].
    The two pad blocks depend on the key alone, so a {!key} absorbs them
    once and every {!tag} resumes from those two midstates: a 32-byte
    message (a chain digest) costs 2 block compressions and 12 minor
    words, against 4 compressions and 83 words for the one-shot
    {!sha256}, which prepares the key on every call.  Prepare a key
    wherever one key tags more than one message — a replica's mesh key,
    a stream cipher's keystream — and keep it as long as the key. *)

type key
(** A secret with its inner and outer pad blocks absorbed. *)

val key : string -> key
(** Prepares a secret of any length; one longer than a block (64 bytes)
    is hashed first, as RFC 2104 says. *)

val tag : key -> string -> string
(** [tag key msg] is the 32-byte authentication tag. *)

val check : key -> string -> tag:string -> bool
(** Constant-time comparison of the expected tag against [tag]; it
    allocates only the expected tag. *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] is [tag (key key) msg]. *)

val verify : key:string -> string -> tag:string -> bool
(** [verify ~key msg ~tag] is [check (key key) msg ~tag]. *)
