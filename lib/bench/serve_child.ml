type t = { pid : int; port : int; metrics_port : int option; log : string }

let start ~dir args =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let port_file = Filename.concat dir "serve.port" in
  let log = Filename.concat dir "serve.log" in
  (try Sys.remove port_file with Sys_error _ -> ());
  (* lib/bench is linked into recdb itself: the running executable is
     the binary whose serving tiers are under test *)
  let exe = Sys.executable_name in
  let pid =
    Proc.spawn ~log
      (Array.of_list
         ([ exe; "serve"; "--port"; "0"; "--port-file"; port_file ] @ args))
  in
  match Proc.wait_port_file port_file with
  | Ok (port, metrics_port) -> Ok { pid; port; metrics_port; log }
  | Error e ->
      Proc.kill_and_reap pid Sys.sigkill;
      Error (Printf.sprintf "%s (child log: %s)" e log)

let stop c =
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  match Unix.waitpid [] c.pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

let kill c = Proc.kill_and_reap c.pid Sys.sigkill
