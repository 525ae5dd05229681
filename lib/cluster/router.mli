(** The cluster front door: a JSON-lines TCP listener that
    consistent-hashes every request by its question scope (instance
    when the payload names one, op otherwise) onto worker shards, with
    per-shard admission windows, failover, optional hedged retries,
    and the cross-process question-ledger merge behind the [stats] op.

    The router never evaluates a payload, so it can never ask a
    Def. 3.9 question: the merged cluster ledger is exactly the sum of
    what the shards report, and shard responses are forwarded
    byte-identical except for the id prefix (rewritten back to the
    client's original id, never re-serialized) — the two facts E32
    asserts.

    Clients are served by the same {!Listener} and {!Conn} core as a
    direct {!Server}: bad frames (malformed, oversized, truncated) get
    the byte-identical [Parse_error] line a shard would send, unknown
    fields are counted, and a client owed {!Conn.default_window}
    responses is not read again until it reads some — so routed bytes
    equal direct bytes on every input, and a client that stops reading
    costs the router a bounded queue. *)

type t

val start :
  ?host:string ->
  ?port:int ->
  ?window:int ->
  ?hedge_after_s:float ->
  ?queue_timeout_s:float ->
  ?max_line:int ->
  ?stats:bool ->
  ?metrics_port:int ->
  shards:(string * int) list ->
  unit ->
  t
(** Bind ([port] 0 picks an ephemeral port) and serve in background
    threads.  [window] (default 64) bounds in-flight requests {e per
    shard}; a flight that cannot admit within [queue_timeout_s]
    (default 0.25s) is shed with a typed [Overloaded].
    [hedge_after_s], when given, arms tail-latency hedging: a flight
    unanswered that long is duplicated to its ring sibling, first
    response wins, the loser's bytes are dropped on arrival — but its
    questions were genuinely asked and stay in the loser shard's
    ledger.  [stats] (default true) controls the stats field of
    {e locally generated} responses only (sheds, parse errors, the
    ledger report); forwarded shard responses pass through untouched.
    [max_line] (default {!Frame.default_max_line}) bounds client
    frames only: a shard's response is forwarded whatever its length.
    [metrics_port] additionally serves the process-wide Prometheus
    exposition ([cluster_shards_up], [cluster_hedges_fired],
    [cluster_hedge_wins], [cluster_router_sheds],
    [cluster_shard_up{shard=...}], ...).

    Raises [Invalid_argument] on an empty shard list; raises on bind
    failure. *)

val port : t -> int
val metrics_port : t -> int option

type counters = {
  routed : int;  (** requests forwarded (hedges not double-counted) *)
  hedges_fired : int;
  hedge_wins : int;
  sheds : int;
  failovers : int;  (** sends re-routed after a dead-shard failure *)
  shards_up : int;
}

val counters : t -> counters

val merged_ledger : t -> Request.ledger * Request.ledger list
(** What the [stats] op answers: ask every shard at once, each on its
    own one-shot connection with a 5 s timeout (so k stalled shards
    cost one timeout, not k), sum with {!Ledger_merge.sum}, include the
    router's own question-free row (served/hedges/sheds).  Shards that
    cannot be reached are omitted from the per-shard list. *)

val drain : ?timeout_s:float -> t -> [ `Clean | `Forced of int ]
(** Stop accepting, then {!Conn.drain} the clients (half-close, wait
    for owed responses to flush up to [timeout_s], default 30s, cut the
    stragglers), then tear down shard connections and join every
    thread.  [`Forced n] means [n] clients were still owed responses
    at the deadline and were cut.
    Idempotent (second call returns [`Clean] immediately). *)
