(** A real [recdb serve] child process for the experiment legs that
    must cross a process boundary (E27's loopback smoke, E29's golden
    file, E30's kill -9 recovery): spawned on an ephemeral port
    published through [--port-file], its output appended to a log. *)

type t = {
  pid : int;
  port : int;
  metrics_port : int option;  (** when started with [--metrics-port] *)
  log : string;
}

val start : dir:string -> string list -> (t, string) result
(** [start ~dir args] runs [recdb serve --port 0 --port-file
    dir/serve.port args] (the running executable is [recdb]), logging
    to [dir/serve.log] ([dir] is created if missing), and waits for
    the port file.  [Error] (child killed) when no port appears. *)

val stop : t -> bool
(** SIGTERM, then wait: [true] iff the child drained and exited 0. *)

val kill : t -> unit
(** SIGKILL and reap. *)
