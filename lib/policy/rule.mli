(** Rules: the smallest evaluatable policy element. *)

type effect = Permit | Deny

type t = {
  id : string;
  description : string;
  effect : effect;
  target : Target.t;  (** {!Target.any} when the rule applies wherever its policy does *)
  condition : Expr.t option;
}

val make : ?description:string -> ?target:Target.t -> ?condition:Expr.t -> effect -> string -> t
(** [make effect id]. *)

val permit : ?description:string -> ?target:Target.t -> ?condition:Expr.t -> string -> t
val deny : ?description:string -> ?target:Target.t -> ?condition:Expr.t -> string -> t

val evaluate : ?resolve:Expr.resolver -> Context.t -> t -> Decision.result
(** Target then condition, per the XACML rule-evaluation table:
    no target match → NotApplicable; condition false → NotApplicable;
    errors → Indeterminate; otherwise the rule's effect, as the shared
    {!Decision.permit}/{!Decision.deny} value. *)

val label : t -> string
(** ["rule <id>"], the rule's name in a combining algorithm's
    Indeterminate message. *)

val effect_decision : effect -> Decision.t
