(** E28: the observability subsystem ([recdb bench obs]). *)

val run : smoke:bool -> Bench_row.run
(** Tracing off / 1-in-64 / full on the mixed batch (off and sampled
    within 5% of untraced, with an absolute slack for sub-50ms smoke
    passes), responses byte-identical in every mode, every traced
    request's span ledger summing exactly to its response's questions,
    and a worked budget-tripped trace; then a traced server with a
    metrics listener, driven by the load generator and scraped: the
    [/metrics] exposition well-formed, every [/traces] line a span
    tree, an unknown route a 404, a clean drain. *)
