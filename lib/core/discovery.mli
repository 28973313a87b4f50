(** Component discovery (§3.2 "Location of Policy Decision Points").

    The paper argues static PEP→PDP binding "does not fit into large
    computing environments": components fail, move and multiply, so "a
    discovery mechanism needs to be employed".  This registry lets
    components advertise themselves under a kind (e.g. ["pdp"]) with a
    lease; advertisements expire unless renewed (the heartbeat), so a
    crashed component disappears from lookups after at most one lease.
    Enforcement points refresh their failover lists from the registry,
    turning timeout-driven failover into proactive rebinding.

    {b Note:} {!advertise} and {!auto_rebind} schedule themselves forever,
    as heartbeats do — drive such simulations with
    [Net.run ~until:…], not the run-to-quiescence form. *)

type t

val create : Dacs_ws.Service.t -> node:Dacs_net.Net.node_id -> ?lease:float -> unit -> t
(** Registry on [node] with services ["register"] and ["discover"].
    [lease] (default 10 s) is how long an advertisement lives without
    renewal. *)

(** {1 Client-side helpers} *)

val advertise :
  t ->
  services:Dacs_ws.Service.t ->
  node:Dacs_net.Net.node_id ->
  kind:string ->
  unit ->
  unit
(** Register [node] under [kind] and keep renewing at half the lease
    period, one attempt per renewal.  Renewals stop automatically while
    the node is crashed (a crashed node cannot send), so its
    advertisement lapses — and resume if it recovers. *)

val auto_rebind :
  t ->
  node:Dacs_net.Net.node_id ->
  tier:Pdp_tier.t ->
  kind:string ->
  ?period:float ->
  unit ->
  unit
(** Poll the registry from [node] every [period] seconds (default: the
    lease), one attempt per poll, and install the discovered endpoints
    as the tier's shards ({!Pdp_tier.set_shards}; on an ordered tier,
    the failover order).  While the registry is unreachable, or lists
    nothing, the tier keeps its last known shards. *)
