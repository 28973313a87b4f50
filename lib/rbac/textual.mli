(** Line-oriented textual format for RBAC models.

    Administrators author RBAC state as plain text; the CLI compiles it to
    policy XML.  One directive per line, [#] comments:

    {v
      role doctor
      role nurse
      inherit doctor nurse        # doctor inherits nurse's permissions
      grant nurse read vitals
      user alice doctor
      ssd care-vs-billing 2 doctor billing
    v} *)

val parse : string -> (Rbac.t, string) result
(** Parse a whole document.  Errors carry the line number. *)
