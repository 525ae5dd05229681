(* Child processes and what can be read about them from outside:
   spawning the recdb binaries, port files, /proc CPU and memory
   counters, and the Prometheus text on a --metrics-port listener.
   Nothing here links into a server; the servers are the unchanged
   binaries. *)

let spawn ~exe ~log args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv = Array.of_list (exe :: args) in
  let pid = Unix.create_process exe argv Unix.stdin fd fd in
  Unix.close fd;
  pid

(* Read to EOF: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let rec loop () =
        match input ic chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents b
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            loop ()
      in
      loop ())

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Wait until [path] holds at least [lines] non-empty lines; fail if
   [pid] dies first or [timeout] passes. *)
let wait_port_file ?(timeout = 60.0) ~pid ~lines path =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    let got =
      if Sys.file_exists path then
        List.filter_map
          (fun l -> int_of_string_opt (String.trim l))
          (String.split_on_char '\n' (read_file path))
      else []
    in
    if List.length got >= lines then got
    else if not (alive pid) then failwith (Printf.sprintf "process %d exited before writing %s" pid path)
    else if Unix.gettimeofday () > deadline then failwith ("timed out waiting for " ^ path)
    else begin
      Unix.sleepf 0.001;
      loop ()
    end
  in
  loop ()

(* SIGTERM (a graceful drain), then SIGKILL after [grace] seconds;
   always reaps. *)
let stop ?(grace = 30.0) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.005;
          loop ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  loop ()

(* Fields of /proc/<pid>/stat after the parenthesised command name;
   index 0 is field 3 (state). *)
let stat_fields pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let i = String.rindex s ')' in
  String.split_on_char ' ' (String.trim (String.sub s (i + 2) (String.length s - i - 2)))
  |> Array.of_list

(* Linux reports utime/stime in USER_HZ ticks, 100 per second. *)
let clk_tck = 100.0

let cpu_s pid =
  let f = stat_fields pid in
  (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck

let children pid =
  Sys.readdir "/proc"
  |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | Some p -> (
             match stat_fields p with
             | f when int_of_string f.(1) = pid -> Some p
             | _ -> None
             | exception _ -> None)
         | None -> None)
  |> List.sort compare

(* A "Key:   N kB" row of /proc/<pid>/status, in MB. *)
let status_mb pid key =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let row =
    List.find (fun l -> String.length l > String.length key && String.sub l 0 (String.length key + 1) = key ^ ":")
      (String.split_on_char '\n' s)
  in
  let v =
    String.split_on_char ' ' row
    |> List.filter_map int_of_string_opt
    |> List.hd
  in
  float_of_int v /. 1024.0

(* GET /metrics over HTTP/1.0 and parse the unlabelled samples. *)
let scrape port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n" in
      Wire.write_all fd req 0 (String.length req);
      let b = Buffer.create 16384 in
      let chunk = Bytes.create 16384 in
      let rec loop () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      in
      loop ();
      let tbl = Hashtbl.create 128 in
      List.iter
        (fun l ->
          match String.split_on_char ' ' (String.trim l) with
          | [ name; v ] when l <> "" && l.[0] <> '#' && not (String.contains name '{') -> (
              match float_of_string_opt v with
              | Some f -> Hashtbl.replace tbl name f
              | None -> ())
          | _ -> ())
        (String.split_on_char '\n' (Buffer.contents b));
      tbl)

let metric tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:0.0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
