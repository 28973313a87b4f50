(** Simulated network: named nodes exchanging sized messages over links
    with latency, loss, partitions and crash faults.

    Message sizes are real byte counts of the payloads (XML envelopes in
    the upper layers), so the paper's §3.2 arguments about XML verbosity
    and WS-Security overhead are directly measurable. *)

type node_id = string

type message = {
  src : node_id;
  dst : node_id;
  category : string;  (** e.g. ["authz-query"], for traffic accounting *)
  payload : string;
}

type t

val create : ?seed:int64 -> unit -> t
val engine : t -> Engine.t
val now : t -> float

(** {1 Topology} *)

val add_node : t -> node_id -> unit
(** Idempotent. *)

val has_node : t -> node_id -> bool
val nodes : t -> node_id list

val set_handler : t -> node_id -> (message -> unit) -> unit
(** Called on every message delivered to the node.
    @raise Invalid_argument for unknown nodes. *)

(** {1 Link model} *)

val set_default_latency : t -> float -> unit
(** One-way delay applied to every pair without an override (default
    0.005 s — a LAN).  Cross-domain links typically get overrides. *)

val set_latency : t -> node_id -> node_id -> float -> unit
(** Symmetric per-pair override. *)

val latency : t -> node_id -> node_id -> float

val latency_override : t -> node_id -> node_id -> float option
(** The per-pair override, if one is set ([latency] falls back to the
    default).  Lets fault injectors save and restore link state. *)

val clear_latency : t -> node_id -> node_id -> unit
(** Remove a per-pair override; the pair reverts to the default latency. *)

val set_drop_rate : t -> float -> unit
(** Probability in [0,1] that any message is silently lost. *)

val drop_rate : t -> float
(** Current loss probability. *)

(** {1 Faults} *)

val crash : t -> node_id -> unit
(** A crashed node receives nothing and sends nothing. *)

val recover : t -> node_id -> unit

val partition : t -> node_id list -> node_id list -> unit
(** Messages between the two groups are dropped until a matching
    {!unpartition}. *)

val unpartition : t -> node_id list -> node_id list -> unit
(** Remove the partition between exactly these two groups (in either
    order), leaving any other partitions in place. *)

(** {1 Sending} *)

val send : t -> src:node_id -> dst:node_id -> category:string -> string -> unit
(** Queue a message for delivery after the link latency.  Silently dropped
    when either end is crashed, the pair is partitioned, or the loss model
    fires.  @raise Invalid_argument for unknown nodes. *)

(** {1 Statistics and tracing} *)

type stat = { count : int; bytes : int }

val stats_by_category : t -> (string * stat) list
(** Messages {e sent} per category (sorted by category). *)

val total_sent : t -> stat
val total_delivered : t -> stat
val dropped_count : t -> int
val reset_stats : t -> unit

val set_tracing : t -> bool -> unit
(** When on, delivered messages are recorded (category, src, dst, time). *)

type trace_entry = { t_src : node_id; t_dst : node_id; t_category : string; t_time : float }

val trace : t -> trace_entry list
(** Delivered messages in delivery order. *)

(** {1 Running} *)

val run : ?until:float -> t -> unit
(** Drive the underlying engine. *)
