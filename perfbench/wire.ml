(* The benchmark's client side: at most two connections driven from one
   thread with select(2), closed loop — a connection sends its next
   request only when a response has come back, keeping [depth] in
   flight.  Every recdb caller (CLI, router upstreams, smoke clients)
   waits for its replies, so a closed loop is the faithful load shape.

   The ids sent on a connection are that connection's 1-based line
   numbers, which is also the id a server gives the response to a line
   it cannot parse — so every response, malformed input included,
   correlates by id. *)

type conn = {
  fd : Unix.file_descr;
  mutable next_line : int;
  mutable pending : string;  (* bytes after the last newline *)
  mutable ord_of_line : int array;  (* line number -> request ordinal *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Unix.close fd;
     raise e);
  { fd; next_line = 1; pending = ""; ord_of_line = Array.make 1024 (-1) }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

(* The id of a response line: it always starts {"id":<int>. *)
let id_of_line line =
  let p = 6 in
  if String.length line > p && String.sub line 0 p = "{\"id\":" then begin
    let i = ref p and v = ref 0 in
    while !i < String.length line && line.[!i] >= '0' && line.[!i] <= '9' do
      v := (!v * 10) + Char.code line.[!i] - 48;
      incr i
    done;
    if !i > p then Some !v else None
  end
  else None

let chunk = Bytes.create 65536

(* Read what is available and return the complete lines. *)
let read_lines c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "connection closed by server"
  | n ->
      let s = c.pending ^ Bytes.sub_string chunk 0 n in
      let parts = String.split_on_char '\n' s in
      let rec split acc = function
        | [ last ] ->
            c.pending <- last;
            List.rev acc
        | l :: rest -> split (l :: acc) rest
        | [] -> List.rev acc
      in
      split [] parts
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* A run records the send and receive time of each request, by
   ordinal; responses are handed to the caller as they arrive and are
   not kept, so the client's heap stays small while it measures. *)
type record = { sent_t : float array; recv_t : float array }

let make_record n = { sent_t = Array.make n 0.0; recv_t = Array.make n 0.0 }

let register c ord =
  let line = c.next_line in
  if line >= Array.length c.ord_of_line then begin
    let a = Array.make (2 * line) (-1) in
    Array.blit c.ord_of_line 0 a 0 (Array.length c.ord_of_line);
    c.ord_of_line <- a
  end;
  c.ord_of_line.(line) <- ord;
  c.next_line <- line + 1;
  line

(* Send stream positions [first, first + n) over [conns], each keeping
   [depth] requests in flight, and wait for every response, passing
   each to [on_response pos line].  Requests go out in stream order to
   whichever connection has room.  Returns the wall time from the first
   send to the last response. *)
let run ?(spin = false) ~conns ~depth ~keys ~(stream : int array) ~first ~n (r : record) ~ord0
    ~on_response =
  let conns = Array.of_list conns in
  let inflight = Array.make (Array.length conns) 0 in
  let next = ref 0 and done_ = ref 0 in
  let fill ci =
    let c = conns.(ci) in
    let b = Buffer.create 4096 in
    let now = Clock.now () in
    while inflight.(ci) < depth && !next < n do
      let ord = ord0 + !next in
      let pos = first + !next in
      let id = register c ord in
      r.sent_t.(ord) <- now;
      Buffer.add_string b (Gen.line_of keys.(stream.(pos)) ~id);
      inflight.(ci) <- inflight.(ci) + 1;
      incr next
    done;
    if Buffer.length b > 0 then
      write_all c.fd (Buffer.contents b) 0 (Buffer.length b)
  in
  let t0 = Clock.now () in
  Array.iteri (fun ci _ -> fill ci) conns;
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  while !done_ < n do
    let ready =
      if spin then begin
        (* poll without sleeping: the client's own wakeup latency stays
           out of the measured time *)
        let deadline = Clock.now () +. 30.0 in
        let rec poll () =
          match Unix.select fds [] [] 0.0 with
          | [], _, _ ->
              if Clock.now () > deadline then failwith "no response for 30 s";
              poll ()
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
        in
        poll ()
      end
      else
        match Unix.select fds [] [] 30.0 with
        | [], _, _ -> failwith "no response for 30 s"
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    Array.iteri
      (fun ci c ->
        if List.mem c.fd ready then begin
          let lines = read_lines c in
          let now = Clock.now () in
          List.iter
            (fun line ->
              match id_of_line line with
              | Some id when id < c.next_line && c.ord_of_line.(id) >= 0 ->
                  let ord = c.ord_of_line.(id) in
                  c.ord_of_line.(id) <- -1;
                  r.recv_t.(ord) <- now;
                  on_response (first + ord - ord0) line;
                  inflight.(ci) <- inflight.(ci) - 1;
                  incr done_
              | _ -> failwith ("uncorrelated response: " ^ line))
            lines;
          fill ci
        end)
      conns
  done;
  Clock.now () -. t0

(* One request/response exchange on an otherwise idle connection. *)
let exchange c key =
  let id = register c (-2) in
  let line = Gen.line_of key ~id in
  write_all c.fd line 0 (String.length line);
  let rec wait () =
    match List.find_opt (fun l -> id_of_line l = Some id) (read_lines c) with
    | Some l -> l
    | None -> wait ()
  in
  let l = wait () in
  c.ord_of_line.(id) <- -1;
  l

(* What the benchmark reads from a stats op: the node's cumulative
   Def. 3.9 questions and, behind a router, each shard's served count. *)
type ledger = { questions : int; shard_served : int list }

let ledger c =
  let line = exchange c Gen.stats_key in
  let j =
    match Json.parse line with Ok j -> j | Error e -> failwith ("stats: " ^ e)
  in
  let int_of name o =
    match Option.bind (Json.member name o) Json.to_int with
    | Some v -> v
    | None -> failwith ("stats: missing " ^ name)
  in
  match Option.bind (Json.member "ok" j) (Json.member "cluster") with
  | None -> failwith ("stats: unexpected " ^ line)
  | Some cl ->
      let shards =
        match
          Option.bind (Option.bind (Json.member "ok" j) (Json.member "shards")) Json.to_list_opt
        with
        | Some l -> List.map (int_of "served") l
        | None -> []
      in
      { questions = int_of "questions" cl; shard_served = shards }
