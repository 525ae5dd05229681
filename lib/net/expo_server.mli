(** The observability side-channel: a tiny HTTP/1.0 GET-only listener
    (plus the matching one-shot client) serving whatever routes the
    caller supplies — in practice the Prometheus text exposition from
    {!Obs.Expo.render_all} and a JSON-lines dump of recent traces.

    It is deliberately not a web server: one request per connection,
    no keep-alive, responses rendered inline on the {!Listener}'s
    accept thread with short socket timeouts, so a stuck scraper is
    dropped rather than served.  The serving front-end proper ({!Server}) never shares a
    port or a thread with this listener — a melted-down metrics page
    can never cost a query its latency budget, and vice versa. *)

type t

type route = string * (unit -> string * string)
(** [(path, render)] where [render ()] returns [(content_type, body)],
    evaluated per scrape on the listener thread — it must be safe to
    run concurrently with the process (read atomics, take only its own
    short-lived locks). *)

val start : ?host:string -> ?port:int -> routes:route list -> unit -> t
(** Bind and start serving ([port] 0, the default, picks an ephemeral
    port — see {!port}).  Raises on bind failure. *)

val port : t -> int

val stop : t -> unit
(** Stop accepting and join the listener thread.  Idempotent. *)

val get :
  ?host:string -> port:int -> path:string -> unit -> (string, string) result
(** One-shot HTTP GET; [Ok body] on a 200, [Error reason] otherwise
    (connect failure, timeout, non-200).  Used by [recdb stats] and the
    obs-smoke check. *)
