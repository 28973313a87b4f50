(** Static validation of policies — the pre-deployment checks the paper's
    management section calls for (write → review → {e test} → issue). *)

type problem = {
  location : string;  (** e.g. ["policy p1 / rule r2"] *)
  message : string;
}

val problem_to_string : problem -> string

val check_child : Policy.child -> problem list
(** Duplicate rule ids, empty rule lists, unknown or mis-used expression
    functions, [Only_one_applicable] used as a rule-combining algorithm.
    A set's children are checked recursively, and duplicate child ids
    reported. *)

val shadowed_rules : Policy.t -> (string * string) list
(** Unreachable-rule lint for [first-applicable] policies: pairs
    [(shadowing rule id, shadowed rule id)] where an earlier,
    condition-free rule provably applies whenever the later one does
    (conservative: only wildcard targets and exact target equality are
    recognised), so the later rule can never fire.  Empty for other
    combining algorithms, where later rules still matter. *)
