(** Client connections of one serving endpoint ({!Server} or the
    cluster router): per connection, a reader thread and a writer
    thread around a bounded queue of encoded response lines.

    {b Protocol.}  The reader consumes JSON-lines frames
    ({!Request.decode_line} — the same per-line step [serve-batch]
    uses) and hands each request to the endpoint's [submit], which
    answers through a callback with one encoded line.  Lines are
    written as the callbacks fire, so they may go out {e out of request
    order}; the [id] field is the correlation key, exactly as the batch
    ABI documents.  Malformed, oversized and truncated frames are
    answered here with typed [Parse_error] lines (id = line number),
    encoded with {!Request.response_to_json}, and the connection
    {e keeps serving}.  Admission is the endpoint's business: a shed is
    just another line its [submit] hands back.

    {b Backpressure.}  Per connection, the reader pauses while this
    connection is owed [per_conn_window] lines not yet written — it
    simply stops reading the socket, so TCP pushes back on the client.
    The pause also caps the writer queue: a [submit] callback never
    blocks (there is always room), which is what makes it safe to fire
    from a pool worker domain or a shard reader thread.

    {b Disconnects.}  If the peer vanishes mid-request, submitted
    requests are {e not} cancelled: they run to completion, their
    oracle questions accounted exactly as batch mode accounts them
    (Def. 3.9 is about what was asked, not who listened), and their
    lines are dropped on the dead socket.  A connection finishes when
    every owed line has been written or dropped. *)

type config = {
  submit : Request.t -> (string -> unit) -> unit;
      (** Answer a decoded request by calling the callback exactly
          once, from any thread, with the encoded response line. *)
  stats : bool;  (** include the [stats] field in this module's errors *)
  max_line : int;
  per_conn_window : int;  (** >= 1; owed lines before the reader pauses *)
}

val default_window : int
(** 16 — the per-connection window of router clients and the default
    of [Server.start ?per_conn_window]. *)

type group
(** The live connections of one endpoint. *)

val group : config -> group
(** Raises [Invalid_argument] when [per_conn_window < 1]. *)

val accept : group -> Unix.file_descr -> unit
(** Take ownership of an accepted socket and start its two threads;
    finished connections are reaped in passing.  The handler to give
    {!Listener.run}. *)

val accepted : group -> int
(** Connections accepted so far. *)

val drain : timeout_s:float -> group -> [ `Clean | `Forced of int ]
(** Graceful shutdown, once the listener has stopped: half-close every
    connection's receive side, wait until each has written (or dropped)
    every owed line, abort the ones still unfinished at [timeout_s] —
    [`Forced n] — then join every thread and close the sockets. *)
