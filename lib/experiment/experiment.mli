(** Gated experiments: each reproduction claim is declared once, as a
    gate, and judged into one exit status.

    When the body returns, the collector prints one
    [<TAG> CHECK <name>: PASS|FAIL|SKIP (detail)] line per declared gate,
    in declaration order.  A declared gate that never produces a verdict
    fails, so deleting a check from a body cannot read as success.  Gate kinds:
    {e exact} (a pass/fail property, {!check}), {e within-run ratio} (two
    measurements of the same run against a declared floor, {!ratio}; the
    only way wall-clock numbers gate) and {e ledger tolerance} (a
    recorded metric against the last entry of [ledger.jsonl], judged by
    the harness after the body). *)

type gate

module Gate : sig
  val exact : string -> gate
  val ratio : string -> at_least:float -> gate

  val no_worse : string -> key:string -> better:[ `Lower | `Higher ] -> gate
  (** Compares the metric [key] this run records against the baseline
      entry's snapshot of this experiment, at [key]: at most 10 % worse
      passes, [SKIP] when the entry has no such value, [FAIL] when the
      ledger's last entry cannot be parsed.  Ledger numbers are read as
      strict JSON decimals: an [inf], [nan], hex or [1_0] makes the entry
      unparseable. *)
end

type t
(** The collector of one experiment run. *)

val check : t -> string -> bool -> string -> unit
(** [check t name ok detail] gives the exact gate [name] its verdict.
    Raises [Invalid_argument] if [name] is not a declared exact gate or
    already has a verdict. *)

val ratio : t -> string -> ?detail:string -> float -> float -> unit
(** [ratio t name num den]: [num /. den] must reach [name]'s floor.  A
    passing CHECK line names the floor; a failing one also the measured
    ratio. *)

val metric : t -> ?digits:int -> string -> float -> unit
(** Records a snapshot metric with [digits] decimals (default 4).
    Raises [Invalid_argument] on a non-finite value, which no ledger
    entry can hold. *)

val count : t -> string -> int -> unit

type experiment

val v : ?gates:gate list -> ?log:out_channel -> string -> (t -> unit) -> experiment
(** [v ~gates name body].  Within {!main} a gated experiment writes
    [BENCH_<name>.json]: its metrics plus [gate_failures].  The CHECK
    lines go to [log] (default [stdout]). *)

val name : experiment -> string
val gate_names : experiment -> string list
(** The declared gates, in declaration order. *)

val run_one : experiment -> int
(** Runs the body in this process and judges its gates: 0 iff every
    declared gate passed.  Writes no snapshot and no ledger entry; a
    ledger gate is [SKIP]. *)

val main : experiment list -> unit
(** Runs the experiments the command line names (all of them when it
    names none), each in its own forked process, and exits 0 iff every
    one passed and every name is known.  Ledger gates compare against
    the last line of [$DACS_HISTORY/ledger.jsonl] (default
    [bench/history]), read once before any experiment runs.  When the
    selection holds every experiment that declares a ledger gate, the
    run then appends one line [{"pr":..,"snapshots":{"<name>":{..},..}}],
    keyed by [$DACS_PR] (default ["local"]), that embeds the snapshot of
    each gated experiment it ran to the end; a partial selection
    appends nothing. *)
