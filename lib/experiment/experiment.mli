(** Gated experiments: each reproduction claim is declared once, as a
    gate, and judged into one exit status.

    A collector prints one [<TAG> CHECK <name>: PASS|FAIL|SKIP (detail)]
    line per gate.  A declared gate that never produces a verdict fails,
    so deleting a check from a body cannot read as success.  Gate kinds:
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
      entry's value for (this experiment, [key]): at most 10 % worse
      passes, [SKIP] when the entry has no such value, [FAIL] when the
      ledger's last entry cannot be parsed. *)
end

type t
(** The collector of one experiment run. *)

val check : t -> string -> bool -> string -> unit
(** [check t name ok detail] gives the exact gate [name] its verdict.
    Raises [Invalid_argument] if [name] is not a declared exact gate or
    already has a verdict. *)

val ratio : t -> string -> ?detail:string -> float -> float -> unit
(** [ratio t name num den]: [num /. den] must reach [name]'s floor. *)

val metric : t -> ?digits:int -> string -> float -> unit
(** Records a snapshot metric with [digits] decimals (default 4). *)

val count : t -> string -> int -> unit

val append_ledger : t -> unit
(** Appends [{"pr":..,"<name>":{<this run's metrics>},"snapshots":{..}}]
    to [ledger.jsonl], embedding the [BENCH_<n>.json] present for every
    other gated experiment of the registry.  Only within {!run}. *)

type experiment

val v : ?gates:gate list -> string -> (t -> unit) -> experiment
(** [v ~gates name body].  A gated experiment writes
    [BENCH_<name>.json]: its metrics plus [gate_failures]. *)

val run : history:string -> pr:string -> experiment list -> string list -> int
(** [run ~history ~pr registry names] runs the named experiments in the
    order given (all of them when [names] is empty), each in its own
    forked child, so no process-global state (interning tables, key
    schemes) leaks from one into the next.  The baseline, the last entry
    of [history/ledger.jsonl], is read once before any experiment runs.
    [pr] keys appended entries.  Returns 0 iff every experiment exited 0
    and every name was known. *)

val checks : ?quiet:bool -> string -> (string * bool * string) list -> int
(** [checks name results] judges one exact gate per [(gate, ok, detail)]
    outside {!run} and returns the exit status (0 iff all passed);
    [quiet] suppresses the lines, not the status. *)

val main : experiment list -> unit
(** {!run} over the command line, with [history] from [$DACS_HISTORY]
    (default [bench/history]) and [pr] from [$DACS_PR] (default
    ["local"]); exits with its status. *)
