type config = {
  submit : Request.t -> (string -> unit) -> unit;
  stats : bool;
  max_line : int;
  per_conn_window : int;
}

let default_window = 16

type t = {
  cfg : config;
  fd : Unix.file_descr;
  lock : Mutex.t;
  can_read : Condition.t;  (* pending dropped below the window *)
  can_write : Condition.t;  (* queue non-empty, input done, or abort *)
  queue : string Queue.t;  (* encoded response lines, ready to write *)
  mutable pending : int;  (* responses owed: queued + still submitted *)
  mutable input_done : bool;
  mutable dead : bool;  (* write side failed: compute, account, drop *)
  mutable aborted : bool;
  mutable closed : bool;
  mutable live_threads : int;  (* reader + writer still running *)
  mutable reader_thread : Thread.t option;
  mutable writer_thread : Thread.t option;
}

(* [bad_frames] totals every line answered with a frame-level error
   (the server adds its sheds); the next two break out the frame-level
   drop causes so a scrape can tell an oversized flood from garbage
   JSON. *)
let m_bad_frames = Metrics.counter "server.bad_frames"
let m_frames_oversized = Metrics.counter "server.frames_dropped_oversized"
let m_frames_parse = Metrics.counter "server.frames_parse_error"

(* Unknown top-level request fields are warn-and-count, never reject:
   a newer client talking to an older server degrades to a scrapeable
   counter instead of a hard error (the mode/budget rollout story). *)
let m_frames_unknown_field = Metrics.counter "server.frames_unknown_field"
let m_connections = Metrics.counter "server.connections"

let encode t resp =
  Json.to_string (Request.response_to_json ~stats:t.cfg.stats resp)

let parse_error_response id msg =
  {
    Request.id;
    result = Error (Request.Parse_error msg);
    cert = Request.Cert_exact;
    stats = Request.zero_stats;
  }

(* Called with one owed-response slot already taken (see [owe]). *)
let enqueue t line =
  Mutex.lock t.lock;
  Queue.add line t.queue;
  Condition.signal t.can_write;
  Mutex.unlock t.lock

(* Reader side: reserve an owed-response slot before a submit/enqueue,
   so the writer queue's depth is bounded by [per_conn_window] and
   submit callbacks always find room. *)
let owe t =
  Mutex.lock t.lock;
  t.pending <- t.pending + 1;
  Mutex.unlock t.lock

let thread_exited t =
  Mutex.lock t.lock;
  t.live_threads <- t.live_threads - 1;
  Mutex.unlock t.lock

let reader_loop t =
  let reader = Frame.reader ~max_line:t.cfg.max_line t.fd in
  let bad t resp =
    Metrics.incr m_bad_frames;
    owe t;
    enqueue t (encode t resp)
  in
  let rec loop line_no =
    (* Per-connection backpressure: while a full window of responses is
       owed, stop reading the socket and let TCP push back. *)
    Mutex.lock t.lock;
    while
      t.pending >= t.cfg.per_conn_window && (not t.dead) && not t.aborted
    do
      Condition.wait t.can_read t.lock
    done;
    let stop = t.dead || t.aborted in
    Mutex.unlock t.lock;
    if stop then ()
    else
      let line_no = line_no + 1 in
      match Frame.read reader with
      | Frame.Eof -> ()
      | Frame.Truncated partial ->
          (* EOF mid-frame; answer if there were actual bytes, then the
             next read's Eof ends the loop. *)
          if String.trim partial <> "" then begin
            Metrics.incr m_frames_parse;
            bad t
              (parse_error_response line_no
                 "truncated frame: connection closed before newline")
          end
      | Frame.Oversized n ->
          Metrics.incr m_frames_oversized;
          bad t
            (parse_error_response line_no
               (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit"
                  n t.cfg.max_line));
          loop line_no
      | Frame.Line line ->
          (match
             Request.decode_line ~default_id:line_no
               ~on_unknown:(fun _field -> Metrics.incr m_frames_unknown_field)
               line
           with
          | `Empty -> ()
          | `Error resp ->
              Metrics.incr m_frames_parse;
              bad t resp
          | `Request req ->
              owe t;
              (* the callback may run on any thread; enqueue never
                 blocks because the owed slot is already reserved *)
              t.cfg.submit req (enqueue t));
          loop line_no
  in
  loop 0;
  Mutex.lock t.lock;
  t.input_done <- true;
  Condition.signal t.can_write;
  Mutex.unlock t.lock;
  thread_exited t

let writer_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    while
      (not t.aborted)
      && Queue.is_empty t.queue
      && not (t.input_done && t.pending = 0)
    do
      Condition.wait t.can_write t.lock
    done;
    if t.aborted then Mutex.unlock t.lock
    else
      match Queue.take_opt t.queue with
      | None -> Mutex.unlock t.lock (* input done and nothing owed *)
      | Some line ->
          let dead = t.dead in
          Mutex.unlock t.lock;
          (if not dead then
             try Frame.write_line t.fd line
             with Unix.Unix_error _ | Sys_error _ ->
               (* Peer gone mid-request: from here on results are
                  still computed and accounted, just dropped. *)
               Mutex.lock t.lock;
               t.dead <- true;
               Condition.broadcast t.can_read;
               Mutex.unlock t.lock);
          Mutex.lock t.lock;
          t.pending <- t.pending - 1;
          Condition.signal t.can_read;
          if t.input_done && t.pending = 0 then Condition.signal t.can_write;
          Mutex.unlock t.lock;
          loop ()
  in
  loop ();
  (* All owed responses are out (or dropped): close our send side so a
     half-closed client sees EOF now, not at reap time.  The fd itself
     stays open until [join]. *)
  (try Unix.shutdown t.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  thread_exited t

let serve cfg fd =
  let t =
    {
      cfg;
      fd;
      lock = Mutex.create ();
      can_read = Condition.create ();
      can_write = Condition.create ();
      queue = Queue.create ();
      pending = 0;
      input_done = false;
      dead = false;
      aborted = false;
      closed = false;
      live_threads = 2;
      reader_thread = None;
      writer_thread = None;
    }
  in
  t.reader_thread <- Some (Thread.create reader_loop t);
  t.writer_thread <- Some (Thread.create writer_loop t);
  t

(* Graceful drain: half-close the receive side so the reader sees EOF
   after the frames already in flight; owed responses are still
   written. *)
let stop_reading t =
  try Unix.shutdown t.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()

(* Hard stop: both threads exit promptly, owed responses are dropped
   (a late submit callback only fills the dead queue). *)
let abort t =
  Mutex.lock t.lock;
  t.aborted <- true;
  t.dead <- true;
  Condition.broadcast t.can_read;
  Condition.broadcast t.can_write;
  Mutex.unlock t.lock;
  try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let finished t =
  Mutex.lock t.lock;
  let fin = t.live_threads = 0 in
  Mutex.unlock t.lock;
  fin

let join t =
  Option.iter Thread.join t.reader_thread;
  Option.iter Thread.join t.writer_thread;
  t.reader_thread <- None;
  t.writer_thread <- None;
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* The connections of one endpoint *)

type group = {
  g_cfg : config;
  g_lock : Mutex.t;
  mutable g_conns : t list;
  mutable g_accepted : int;
}

let group cfg =
  if cfg.per_conn_window < 1 then invalid_arg "Conn.group: per_conn_window < 1";
  { g_cfg = cfg; g_lock = Mutex.create (); g_conns = []; g_accepted = 0 }

let accept g fd =
  let conn = serve g.g_cfg fd in
  Mutex.lock g.g_lock;
  g.g_accepted <- g.g_accepted + 1;
  (* Reap finished connections in passing so a long-lived endpoint does
     not accumulate one record per client ever served. *)
  let finished, live = List.partition finished g.g_conns in
  g.g_conns <- conn :: live;
  Mutex.unlock g.g_lock;
  List.iter join finished;
  Metrics.incr m_connections

let accepted g =
  Mutex.lock g.g_lock;
  let n = g.g_accepted in
  Mutex.unlock g.g_lock;
  n

let drain ~timeout_s g =
  Mutex.lock g.g_lock;
  let conns = g.g_conns in
  g.g_conns <- [];
  Mutex.unlock g.g_lock;
  (* Half-close every connection: readers see EOF once the frames
     already sent are consumed; submitted requests keep running and
     their responses are still written. *)
  List.iter stop_reading conns;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    if List.for_all finished conns then `Clean
    else if Unix.gettimeofday () > deadline then begin
      let stuck = List.filter (fun c -> not (finished c)) conns in
      List.iter abort stuck;
      `Forced (List.length stuck)
    end
    else begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  let outcome = wait () in
  List.iter join conns;
  outcome
