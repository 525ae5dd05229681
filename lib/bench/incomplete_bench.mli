(** E33: incompleteness-aware answering ([recdb bench incomplete]). *)

val run : smoke:bool -> Bench_row.run
(** Mode-triplicated requests over the {!Incomplete.Decl.demo}
    instances (certain ⊆ exact ⊆ possible, legal certificates), the
    closed-world identity batch, the approximate budget sweep, the
    exact-mode overhead pair (identical bytes and ledger, median wall
    overhead under 5% on a fixed size) and the same claims over a real
    socket. *)
