(** Hash chain: tamper-evident linking of an append-only sequence.

    Each link's digest commits to the whole prefix —
    [digest_i = SHA-256(digest_{i-1} || payload_i)] — so mutating,
    reordering or dropping any earlier payload changes every later
    digest.  The offline event log chains its canonical event bytes this
    way and authenticates each digest with an HMAC, making a forged or
    rewritten log segment detectable at sync time rather than silently
    replayable. *)

val genesis : string
(** The 32-byte digest every chain starts from (a fixed domain-separated
    constant, not a secret). *)

val extend : prev:string -> Buffer.t -> string
(** [extend ~prev payload] is the 32-byte digest of the chain ending in
    the bytes [payload] holds, given the previous link's digest.  They
    are hashed where the buffer holds them: the offline log writes each
    event's canonical bytes into one buffer it reuses, and chains them
    without copying them out. *)

val short : string -> string
(** First 6 bytes of a digest, hex-encoded — the human-readable "log
    head" rendering carried in provenance records. *)
