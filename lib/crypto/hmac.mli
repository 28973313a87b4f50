(** HMAC-SHA256 (RFC 2104). *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] is the 32-byte authentication tag. *)

val verify : key:string -> string -> tag:string -> bool
(** Constant-time comparison of the expected tag against [tag]. *)
