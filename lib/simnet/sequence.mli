(** ASCII sequence diagrams from network traces.

    Turns a {!Net.trace} into the message-sequence-chart view the paper's
    figures use — handy for examples and for eyeballing protocol runs:

    {v
      client     pep        pdp
        |---------|          |   access            t=0.000
        |         |----------|   authz-query       t=0.005
        |         |<---------|   authz-query-reply t=0.010
        |<--------|          |   access-reply      t=0.015
    v} *)

val render : Net.trace_entry list -> string
(** Render delivered messages in order, one column per node in
    first-appearance order. *)
