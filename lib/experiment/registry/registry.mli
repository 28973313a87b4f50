(** The one experiment registry: E1-E23 (no E13, E20 or E22) and the seven
    gated [dacs] subcommands (tier, cache, explain, slo, offline, load, delta), each
    declared once as an {!Dacs_experiment.Experiment.v} with its gates. *)

val all : Dacs_experiment.Experiment.experiment list
(** Every entry at its default flags, in the order [bench/main.exe] runs
    them when given no names. *)

val commands : int Cmdliner.Cmd.t list
(** The gated subcommands with their flags.  Each runs its entry in
    process through {!Dacs_experiment.Experiment.run_one}: the same
    collector and verdicts as the bench, no snapshot, no ledger line. *)

val sim_seed_arg : int Cmdliner.Term.t
val json_flag : bool Cmdliner.Term.t
(** [--seed] (default 1) and [--json], shared with the ungated
    subcommands. *)
