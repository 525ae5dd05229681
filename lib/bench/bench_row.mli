(** The one result shape of experiments E24–E33.

    Every experiment produces a {!run}: named rows of
    [{experiment; row; requests; wall_s; detail}] plus the list of
    acceptance-check violations (empty when every check holds).  One
    printer and one JSON writer serve all ten; the writer adds an
    environment stamp so a committed [BENCH_<name>.json] says which
    commit and host produced it. *)

type row = {
  experiment : string;
  row : string;
  requests : int;
  wall_s : float;
  detail : (string * Json.t) list;
}

type run = { experiment : string; rows : row list; violations : string list }

(** {2 Collecting a run} *)

type t
(** A run under construction: rows and violations in the order they
    are added. *)

val create : string -> t
(** [create experiment]. *)

val row :
  t -> string -> requests:int -> wall_s:float -> (string * Json.t) list -> unit

val violation : t -> ('a, unit, string, unit) format4 -> 'a
(** Record one violation (printf-style). *)

val check : t -> bool -> ('a, unit, string, unit) format4 -> 'a
(** [check t ok fmt ...] records the violation unless [ok]. *)

val finish : t -> run

val scratch : string -> string
(** [scratch name] is a fresh path [_bench/name] for an experiment's
    files: [_bench] is created if missing, a leftover [name] removed.
    A leg that fails keeps its child's log there for inspection. *)

val time : (unit -> 'a) -> 'a * float
(** Wall-clock a thunk. *)

(** {2 Output} *)

val print : run -> unit
(** One line per row (scalar detail fields inline), then each
    violation on stderr. *)

val write : smoke:bool -> string -> run -> unit
(** Write the run as one JSON line [{experiment, size, env, rows,
    violations}] to a file, creating its directory if needed.  [env] is
    [{commit, nproc, ocaml, hostname}]: [commit] is the working
    directory's HEAD (suffixed ["-dirty"] when tracked files differ from
    it) and [null] when git is unavailable. *)
