(** The shared request mixes and the in-process experiments E24 (the
    engine), E25 (resilience), E26 (parallel serving), E29 (the RQL
    planner) and E31 (compiled evaluation), each returning the one
    {!Bench_row.run} shape ([recdb bench NAME [--smoke]]). *)

val build_batch : int -> Request.t list
(** The mixed workload (sentences, queries, a class count every tenth
    request, over five instances) most experiments and the load
    generator serve. *)

val build_rql_batch :
  ?cutoff:int -> planner:Request.planner -> int -> Request.t list
(** A mixed RQL workload — transitive-closure fixpoints, an alpha/ws
    variant sharing a normalized plan, dead bindings, shared [let]s,
    duplicate fixpoints, sentences, plain queries and a tree — cycled
    over five instances. *)

val build_mixed_batch : int -> Request.t list
(** Three quarters {!build_batch}, one quarter cost-planned
    {!build_rql_batch} (ids restart, so they repeat across the two). *)

val bytes : Request.response -> string
(** A response's stats-free wire bytes. *)

val fingerprint : Request.response list -> string
(** The responses' stats-free wire bytes, one per line: equal
    fingerprints are the byte-identity every experiment checks. *)

val questions : Request.stats -> int
(** Def. 3.9 questions: oracle + T_B + ≅_B. *)

val pathological_request : Request.t
(** [tree(paths3, 6)], the most expensive request the parse-time bounds
    admit: the probe budgets and deadlines must trip on. *)

val error_kind : Request.response -> string
(** ["ok"], or the kind of the typed error. *)

val engine : smoke:bool -> Bench_row.run
(** E24: LRU savings on the E17 sentences; the mixed batch on pools of
    1/2/4 domains (more than the host's cores: skipped), each
    byte-identical to the sequential engine. *)

val resilience : smoke:bool -> Bench_row.run
(** E25: budget-guard overhead; deadline and budget probes on
    [tree(paths3, 6)], each returning its own typed error within its
    bound; retry under injected faults (seed 42) deterministic on every
    non-faulted request; worker crashes contained. *)

val parallel : smoke:bool -> Bench_row.run
(** E26: cold/warm shared-memo pools of 1/2/4/8 domains — byte-identical
    to sequential, no more genuine questions than sequential, no worker
    deaths. *)

val rql : smoke:bool -> Bench_row.run
(** E29: planned vs naive questions, a warm re-serve with zero new plans
    and questions, byte-identity across planners; then the committed
    golden file served by a real [recdb serve] child. *)

val compile : smoke:bool -> Bench_row.run
(** E31: interpreter-vs-compiled hot loops (two gated at 5x) and a
    mixed batch byte- and ledger-identical pairwise with compilation
    off and on. *)
