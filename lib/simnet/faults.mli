(** Declarative, seeded fault schedules for chaos testing.

    A schedule is a list of fault {!spec}s, each active over a time
    window; {!apply} compiles the schedule onto the {!Engine} as timed
    callbacks that mutate {!Net} state (latencies, drop rate, crashes,
    partitions) when the window opens and restore it when the window
    closes.  Everything is driven by the simulation clock and — for
    {!random_schedule} — an explicit RNG, so a given seed always produces
    the identical fault sequence and the identical trace.

    This is the evaluation instrument behind the dependability claims:
    the chaos suite replays the paper's Fig. 2/Fig. 3 authorisation flows
    under these schedules and checks that enforcement stays safe (no
    permit beyond policy) and becomes live again once faults clear. *)

type window = { from_ : float; until_ : float }
(** Half-open activity interval [\[from_, until_)] in simulation time. *)

type spec =
  | Latency_spike of { a : Net.node_id; b : Net.node_id; latency : float; window : window }
      (** The link [a<->b] runs at [latency] seconds one-way during the
          window, then reverts to its previous setting. *)
  | Drop_burst of { rate : float; window : window }
      (** Global loss probability jumps to [rate] during the window. *)
  | Crash_restart of { node : Net.node_id; at : float; restart : float option }
      (** Fail-stop at [at]; [restart] recovers the node (omit for a
          permanent outage).  Unknown nodes are ignored at fire time. *)
  | Flapping_partition of {
      group_a : Net.node_id list;
      group_b : Net.node_id list;
      period : float;
      window : window;
    }
      (** The two groups are cut for [period] seconds, reconnected for
          [period], and so on; the link is always healed at window end. *)
  | Slow_node of { node : Net.node_id; extra : float; window : window }
      (** Every link touching [node] gains [extra] seconds of latency —
          an overloaded (but correct) service, the slow-PDP fault. *)

val describe : spec -> string
(** One-line human-readable rendering, for logs and bench output. *)

val apply : Net.t -> spec list -> unit
(** Compile the schedule onto the network's engine.  Windows already in
    the past fire immediately.  Overlapping windows compose rather than
    clobber each other's saved state: the harshest active drop burst and
    latency spike win, slow-node extras stack, and a node recovers only
    when its last crash window has closed — once every window has closed,
    the network is back at its pre-schedule baseline.
    @raise Invalid_argument on empty or negative windows, rates outside
    [0,1], non-positive flap periods or restarts not after their crash. *)

val clears_by : spec list -> float option
(** Earliest time by which every fault has cleared, or [None] if some
    crash never restarts.  Tests schedule their liveness probes after
    this instant. *)

val random_schedule :
  rng:Dacs_crypto.Rng.t -> nodes:Net.node_id list -> horizon:float -> spec list
(** Generate 1–5 random fault specs over the given nodes, every one of
    which clears by [horizon] (crashes always restart) — so liveness
    after [horizon] is a fair demand.  Deterministic in the RNG state. *)
