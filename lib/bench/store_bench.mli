(** E30: the durability benchmark ([recdb bench store]). *)

val run : smoke:bool -> Bench_row.run
(** Serves the mixed workload (the E24 batch plus RQL requests, so
    plan-cache entries are exercised) cold, snapshots, reloads into a
    fresh memo and serves the same batch warm; then three fault rows —
    truncated snapshot, bit-flipped record, future format version —
    each of which must recover to a correct (possibly colder) state;
    then a real durable [recdb serve] killed with SIGKILL mid-load and
    restarted on its store.  Gates: warm responses byte-identical to
    cold with < 5% of its genuine questions (in process and across the
    crash), every fault row byte-identical, the future-version file
    refused, truncation detected as a torn tail, the bit flip skipped
    as a CRC failure, a snapshot within 10 s, and a clean final drain
    that leaves a snapshot. *)
