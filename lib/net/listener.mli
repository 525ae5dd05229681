(** The one TCP listener every serving endpoint uses: the JSON-lines
    {!Server}, the cluster router and the {!Expo_server} side-channel.

    {!listen} binds and listens; {!run} starts the accept thread, which
    hands each accepted socket (with [TCP_NODELAY] set) to the handler
    {e on the accept thread} — a handler that must not stall the loop
    spawns its own threads ({!Conn.accept}) or bounds its own work
    (the exposition endpoint's short socket timeouts).  The split lets
    a caller learn the bound port before the first connection is
    handed over. *)

type t

val listen : host:string -> port:int -> t
(** Socket, [SO_REUSEADDR], bind, listen.  [port] 0 picks an ephemeral
    port (read it back with {!port}).  Raises [Unix.Unix_error] when
    the address cannot be bound; the socket is closed first. *)

val port : t -> int
(** The actually-bound port. *)

val run : t -> (Unix.file_descr -> unit) -> unit
(** Start the accept thread.  The handler owns each socket it is
    given.  Call at most once. *)

val stop : t -> unit
(** Stop accepting: the accept thread exits at its next poll (within
    ~50 ms) and is joined, then the listening socket is closed.
    Connections already handed over are untouched.  Idempotent; safe
    without a prior {!run}. *)
