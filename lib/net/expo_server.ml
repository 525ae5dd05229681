(* A minimal HTTP/1.0 side-channel for observability: GET-only, one
   response per connection, close after writing.  Scrapes are rare and
   cheap (render a few kB of text), so requests are served inline on
   the accept thread — no per-connection threads, no keep-alive, no
   chunking.  A stuck client cannot wedge the loop: sockets get short
   send/receive timeouts, and anything that errors is just closed. *)

type route = string * (unit -> string * string)
type t = Listener.t

let m_scrapes = Metrics.counter "server.scrapes"

let http_status = function
  | 200 -> "200 OK"
  | 404 -> "404 Not Found"
  | _ -> "400 Bad Request"

let respond fd ~code ~content_type body =
  let head =
    Printf.sprintf
      "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
       close\r\n\r\n"
      (http_status code) content_type (String.length body)
  in
  let msg = head ^ body in
  let n = String.length msg in
  let rec write_all off =
    if off < n then
      let k = Unix.write_substring fd msg off (n - off) in
      if k > 0 then write_all (off + k)
  in
  write_all 0

(* Read until the header terminator (or 8 KiB, or timeout); only the
   request line matters. *)
let read_request fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    if Buffer.length buf > 8192 then None
    else
      let k = Unix.read fd chunk 0 (Bytes.length chunk) in
      if k = 0 then None
      else begin
        Buffer.add_subbytes buf chunk 0 k;
        let s = Buffer.contents buf in
        (* Tolerate bare-LF clients *)
        let has_terminator sub =
          let rec find i =
            i + String.length sub <= String.length s
            && (String.sub s i (String.length sub) = sub || find (i + 1))
          in
          find 0
        in
        if has_terminator "\r\n\r\n" || has_terminator "\n\n" then Some s
        else go ()
      end
  in
  match go () with
  | exception (Unix.Unix_error _ | Sys_error _) -> None
  | r -> r

let parse_request_line s =
  match String.index_opt s '\n' with
  | None -> None
  | Some i -> (
      let line = String.trim (String.sub s 0 i) in
      match String.split_on_char ' ' line with
      | meth :: target :: _ ->
          (* strip any query string: /metrics?foo=1 is /metrics *)
          let path =
            match String.index_opt target '?' with
            | Some q -> String.sub target 0 q
            | None -> target
          in
          Some (meth, path)
      | _ -> None)

let handle_conn routes fd =
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 2.0
   with Unix.Unix_error _ -> ());
  (try
     match Option.bind (read_request fd) parse_request_line with
     | Some ("GET", path) -> (
         match List.assoc_opt path routes with
         | Some render ->
             let content_type, body = render () in
             Metrics.incr m_scrapes;
             respond fd ~code:200 ~content_type body
         | None -> respond fd ~code:404 ~content_type:"text/plain" "not found\n"
         )
     | Some _ ->
         respond fd ~code:400 ~content_type:"text/plain" "GET only\n"
     | None -> ()
   with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let start ?(host = "127.0.0.1") ?(port = 0) ~routes () =
  let t = Listener.listen ~host ~port in
  Listener.run t (handle_conn routes);
  t

let port = Listener.port
let stop = Listener.stop

(* ------------------------------------------------------------------ *)
(* The matching one-shot client, used by [recdb stats] and the
   experiments' scrapes.  HTTP/1.0 with Connection: close means "read to
   EOF" is the whole framing story. *)

let get ?(host = "127.0.0.1") ~port ~path () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let cleanup () = try Unix.close fd with Unix.Unix_error _ -> () in
  match
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
    ignore (Unix.write_substring fd req 0 (String.length req));
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec drain () =
      let k = Unix.read fd chunk 0 (Bytes.length chunk) in
      if k > 0 then begin
        Buffer.add_subbytes buf chunk 0 k;
        drain ()
      end
    in
    drain ();
    Buffer.contents buf
  with
  | exception (Unix.Unix_error _ | Sys_error _ as e) ->
      cleanup ();
      Error (Printexc.to_string e)
  | raw -> (
      cleanup ();
      let split_at sep =
        let n = String.length sep in
        let rec find i =
          if i + n > String.length raw then None
          else if String.sub raw i n = sep then Some i
          else find (i + 1)
        in
        Option.map (fun i -> String.sub raw (i + n) (String.length raw - i - n))
          (find 0)
      in
      let body =
        match split_at "\r\n\r\n" with
        | Some b -> Some b
        | None -> split_at "\n\n"
      in
      match body with
      | None -> Error "malformed HTTP response (no header terminator)"
      | Some body ->
          let status_ok =
            match String.index_opt raw '\n' with
            | None -> false
            | Some i ->
                let line = String.sub raw 0 i in
                (* "HTTP/1.0 200 ..." *)
                String.length line > 12 && String.sub line 9 3 = "200"
          in
          if status_ok then Ok body
          else
            Error
              (match String.index_opt raw '\n' with
              | Some i -> String.trim (String.sub raw 0 i)
              | None -> "bad status"))
