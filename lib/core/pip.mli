(** Policy Information Point: attribute authority for a domain.

    Stores subject attributes (roles, clearances, organisational data) and
    computes environment attributes on demand; PDPs query it over the
    network when the request context lacks an attribute (Fig. 4). *)

type t

val create : Dacs_ws.Service.t -> node:Dacs_net.Net.node_id -> t
(** Registers the ["attribute-query"] service (single queries and the
    parts of batched B/BT frames dispatch to the same handler) and the
    one-way ["attribute-subscribe"], through which PDP attribute caches
    register for invalidation pushes. *)

val node : t -> Dacs_net.Net.node_id

val subscribers : t -> Dacs_net.Net.node_id list
(** Nodes subscribed for attribute-invalidation pushes. *)

val set_subject_attribute : t -> subject:string -> id:string -> Dacs_policy.Value.bag -> unit
(** Replace the bag for (subject, attribute id). *)

val add_subject_attribute : t -> subject:string -> id:string -> Dacs_policy.Value.t -> unit

val remove_subject_attribute : t -> subject:string -> id:string -> unit
(** Revocation: subsequent queries return an empty bag, and every
    subscribed PDP attribute cache is pushed an explicit invalidation,
    one one-way frame each, so the drop does not wait out a cache TTL. *)

val set_environment : t -> id:string -> (unit -> Dacs_policy.Value.bag) -> unit
(** Computed environment attribute, e.g. the current simulation time. *)

val lookup :
  t -> category:Dacs_policy.Context.category -> id:string -> subject:string -> Dacs_policy.Value.bag
(** Local lookup (also used by the service handler). *)

val lookups_served : t -> int
