type t = {
  fd : Unix.file_descr;
  bound_port : int;
  lock : Mutex.t;
  mutable stopped : bool;
  mutable thread : Thread.t option;
}

let listen ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.listen fd 128;
    let bound_port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> assert false
    in
    { fd; bound_port; lock = Mutex.create (); stopped = false; thread = None }
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let port t = t.bound_port

let stopping t =
  Mutex.lock t.lock;
  let s = t.stopped in
  Mutex.unlock t.lock;
  s

(* The loop polls with a short select timeout rather than blocking in
   accept(2): on Linux, closing the listening socket from another
   thread does not wake a blocked accept, so [stop] could never join
   this thread.  The [stopped] flag is checked between polls. *)
let accept_loop t handle =
  let rec loop () =
    if stopping t then ()
    else
      match Unix.select [ t.fd ] [] [] 0.05 with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.accept t.fd with
          | fd, _addr ->
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              handle fd;
              loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (_, _, _) ->
          (* the listening socket was closed or is broken beyond
             accepting: either way the loop is over *)
          ()
  in
  loop ()

let run t handle = t.thread <- Some (Thread.create (accept_loop t) handle)

let stop t =
  Mutex.lock t.lock;
  let already = t.stopped in
  t.stopped <- true;
  Mutex.unlock t.lock;
  if not already then begin
    (match t.thread with
    | Some th ->
        Thread.join th;
        t.thread <- None
    | None -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
