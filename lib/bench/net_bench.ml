(* E27: the TCP front-end.  The wire changes nothing about serving
   semantics (identity), it carries load (throughput rows), it sheds
   overload with typed errors and without asking questions (shed), and
   a real served process behaves the same (child). *)

module R = Bench_row

let identity b ~requests =
  let batch = Engine_bench.build_batch requests in
  let reference =
    Proc.sort_by_id
      (String.split_on_char '\n'
         (Engine_bench.fingerprint (Engine.handle_all (Engine.create ()) batch)))
  in
  let server = Server.start ~stats:false ~window:256 ~per_conn_window:64 () in
  let served, wall_s =
    R.time (fun () ->
        Proc.send_and_collect ~port:(Server.port server)
          (List.map (fun r -> Json.to_string (Request.to_json r)) batch))
  in
  ignore (Server.drain ~timeout_s:30.0 server);
  let identical =
    match served with
    | Ok lines -> Proc.sort_by_id lines = reference
    | Error _ -> false
  in
  R.check b identical "socket-served responses differ from serve-batch";
  R.row b "identity" ~requests ~wall_s [ ("identical", Json.Bool identical) ]

let throughput b ~requests conns =
  (* A fresh server per row: every row cold, rows comparable. *)
  let server = Server.start ~window:256 ~per_conn_window:64 () in
  let r =
    Loadgen.run ~port:(Server.port server) ~connections:conns ~requests
      ~pipeline:4 ()
  in
  ignore (Server.drain ~timeout_s:30.0 server);
  R.check b (r.Loadgen.errors = 0) "%d conns: %d error responses" conns
    r.Loadgen.errors;
  R.check b (r.Loadgen.lost = 0) "%d conns: %d requests lost" conns
    r.Loadgen.lost;
  R.row b (Printf.sprintf "conns_%d" conns) ~requests ~wall_s:r.Loadgen.wall_s
    (Loadgen.report_fields r)

let shed b ~requests =
  let window = 8 in
  let offered = 2 * window in
  let batch = Engine_bench.build_batch requests in
  let seq_questions =
    let e = Engine.create () in
    ignore (Engine.handle_all e batch);
    Engine.question_count e
  in
  (* per_conn_window must exceed the offered load, or per-connection
     backpressure would pace the client instead of letting the
     admission window shed. *)
  let server = Server.start ~window ~per_conn_window:(4 * offered) () in
  let arr = Array.of_list batch in
  let r =
    Loadgen.run ~port:(Server.port server) ~connections:1 ~requests
      ~pipeline:offered
      ~build:(fun i -> arr.(i mod Array.length arr))
      ()
  in
  let pool_questions = Pool.oracle_questions (Server.pool server) in
  let high_water = Admission.high_water (Server.admission server) in
  ignore (Server.drain ~timeout_s:30.0 server);
  R.check b (r.Loadgen.shed > 0) "no sheds at %dx offered load (window %d)"
    (offered / window) window;
  R.check b (high_water <= window)
    "in-flight high water %d exceeded the window %d" high_water window;
  R.check b
    (pool_questions <= seq_questions)
    "shed run asked %d questions > sequential full batch %d" pool_questions
    seq_questions;
  R.check b (r.Loadgen.lost = 0) "shed run lost %d requests" r.Loadgen.lost;
  R.check b (r.Loadgen.errors = 0) "shed run saw %d error responses"
    r.Loadgen.errors;
  R.row b "shed" ~requests ~wall_s:r.Loadgen.wall_s
    ([
       ("window", Json.Int window);
       ("offered_inflight", Json.Int offered);
       ("high_water", Json.Int high_water);
       ("pool_questions", Json.Int pool_questions);
       ("seq_questions", Json.Int seq_questions);
     ]
    @ Loadgen.report_fields r)

let child b ~requests =
  let dir = R.scratch "server-child" in
  match
    Serve_child.start ~dir [ "--window"; "256"; "--per-conn-window"; "64" ]
  with
  | Error e -> R.violation b "child: %s" e
  | Ok c ->
      let r =
        Loadgen.run ~port:c.Serve_child.port ~connections:4 ~requests
          ~pipeline:4 ()
      in
      let clean = Serve_child.stop c in
      R.check b clean
        "child: did not drain cleanly on SIGTERM (nonzero exit; log %s)"
        c.Serve_child.log;
      R.check b (r.Loadgen.errors = 0) "child: %d error responses"
        r.Loadgen.errors;
      R.check b (r.Loadgen.shed = 0) "child: %d sheds under nominal load"
        r.Loadgen.shed;
      R.check b (r.Loadgen.lost = 0) "child: %d requests lost" r.Loadgen.lost;
      if clean then Proc.rm_rf dir;
      R.row b "child" ~requests ~wall_s:r.Loadgen.wall_s
        (Loadgen.report_fields r)

let run ~smoke =
  let requests = if smoke then 100 else 400 in
  let b = R.create "server" in
  identity b ~requests;
  List.iter (throughput b ~requests) [ 1; 2; 4; 8 ];
  shed b ~requests;
  child b ~requests:300;
  R.finish b
