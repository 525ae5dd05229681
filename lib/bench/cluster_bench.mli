(** E32: the cluster serving benchmark ([recdb bench cluster]) —
    byte-identity and ledger containment through the router, the
    router's own hop against a router-less drive, hedged tail latency
    under an injected slow shard, kill -9 recovery via the supervisor,
    and the stats op through the front door.  Forks three real
    [recdb serve] shard processes, so every row exercises genuine
    process boundaries; [smoke] does not change the size. *)

val run : smoke:bool -> Bench_row.run
