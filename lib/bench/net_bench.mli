(** E27: the network serving benchmark ([recdb bench server]). *)

val run : smoke:bool -> Bench_row.run
(** Over loopback: the mixed workload served over a socket is
    byte-identical (sorted by id) to a sequential {!Engine.handle_all};
    closed-loop throughput and p50/p95/p99 at 1/2/4/8 connections (a
    fresh server per row) with nothing lost and no error responses; at
    2x the admission window the server sheds with typed [overloaded]
    errors, never exceeds the window, loses nothing and asks no more
    Def. 3.9 questions than a sequential run of the full batch; and a
    real [recdb serve] child answers a pipelined load with zero errors,
    sheds and losses, then drains cleanly on SIGTERM. *)
