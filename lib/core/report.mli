(** Consolidated management view (§3.2).

    The paper: "it is virtually impossible to obtain a consolidated view
    of the safeguards and security controls that are deployed within the
    entire enterprise ... security systems need a way of providing a
    consolidated view of the access control policy that is enforced."

    These functions gather the live state of every component — PAP
    versions, PDP statistics, per-PEP enforcement counters, audit volumes
    — into one human-readable report for a domain or a whole VO. *)

val vo : Vo.t -> string
(** The VO report includes every member domain, the consolidated audit
    summary (grants/denies per domain) and the telemetry section. *)

val attribution : Dacs_ws.Service.t -> string
(** Latency attribution across the serving path: one line per populated
    stage histogram (ladder by stage, queue wait, L2 round trip, live
    tier call, policy evaluation, PIP fetch) with count, interpolated
    p50/p99, and the exemplars linking buckets back to trace ids. *)

val critical_path : Dacs_ws.Service.t -> string
(** The {!Dacs_telemetry.Trace.critical_path} of the first recorded
    trace, rendered with per-span offsets and durations. *)
