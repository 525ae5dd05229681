(* E30: durability.  Cold vs warm start on the mixed workload: serve
   cold, snapshot, then reload into a fresh memo and serve the same
   batch warm.  The gates are the durability contract itself — warm
   responses byte-identical to cold, warm genuine-question count < 5%
   of cold — plus fault rows (truncated snapshot, bit-flipped record,
   future format version) that must each recover to a correct,
   possibly colder, state; and a real served process kill -9'd mid-load
   after a snapshot, restarted on the same store, must answer
   byte-identically while asking < 5% of the cold questions. *)

module R = Bench_row

(* Serve [batch] on a fresh single-domain pool over [memo], returning
   the ledger and the response bytes.  One domain keeps the ledger
   deterministic on any host (no cross-worker cold-key races). *)
let serve memo batch =
  let pool = Pool.create ~domains:1 ~shared:memo () in
  let t0 = Unix.gettimeofday () in
  let first =
    match batch with
    | [] -> []
    | r :: _ -> Pool.run_batch pool [ r ]
  in
  let first_s = Unix.gettimeofday () -. t0 in
  let rest = match batch with [] -> [] | _ :: rs -> Pool.run_batch pool rs in
  let wall = Unix.gettimeofday () -. t0 in
  let questions = Pool.oracle_questions pool in
  Pool.shutdown ~timeout_s:10. pool;
  (List.map Engine_bench.bytes (first @ rest), questions, wall, first_s)

let load_into_fresh_memo ~dir =
  let memo = Shared_memo.create () in
  let t0 = Unix.gettimeofday () in
  let store, report = Store.open_store ~write_behind:false ~dir memo in
  let load_s = Unix.gettimeofday () -. t0 in
  (memo, store, report, load_s)

(* Flip one byte well inside the snapshot body (past the header and
   first frame header, so the damage lands in a record payload). *)
let corrupt_snapshot ~dir =
  let path = Filename.concat dir "snapshot.rdb" in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  let off = Store_codec.header_len + 8 + 2 in
  if off < n then
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let truncate_snapshot ~dir =
  let path = Filename.concat dir "snapshot.rdb" in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let keep = max Store_codec.header_len (n - (n / 3)) in
  let b = Bytes.create keep in
  really_input ic b 0 keep;
  close_in ic;
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let future_version_snapshot ~dir =
  let path = Filename.concat dir "snapshot.rdb" in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  (* bump the u32 LE version field at offset 4 *)
  Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) + 1));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let copy_dir src dst =
  Proc.rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat src f) in
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      close_in ic;
      let oc = open_out_bin (Filename.concat dst f) in
      output_bytes oc b;
      close_out oc)
    (Sys.readdir src)

let fault_row b ~golden ~scratch ~batch ~cold_bytes name damage =
  let dir = scratch ^ "." ^ name in
  copy_dir golden dir;
  damage ~dir;
  let memo, store, report, load_s = load_into_fresh_memo ~dir in
  let bytes, questions, wall_s, _ = serve memo batch in
  Store.close store;
  Proc.rm_rf dir;
  let identical = bytes = cold_bytes in
  R.check b identical "fault %s produced non-identical responses" name;
  R.row b name ~requests:(List.length batch) ~wall_s
    [
      ("load_s", Json.Float load_s);
      ("entries_loaded", Json.Int report.Store.entries_loaded);
      ("entries_skipped", Json.Int report.Store.entries_skipped);
      ("torn_tail", Json.Bool report.Store.torn_tail);
      ("refused", Json.Bool (report.Store.refused <> None));
      ("questions", Json.Int questions);
      ("identical", Json.Bool identical);
    ];
  report

let in_process b ~batch =
  let dir = R.scratch "store" in
  let requests = List.length batch in
  (* --- cold ------------------------------------------------------- *)
  let memo = Shared_memo.create () in
  let store, _ = Store.open_store ~write_behind:false ~dir memo in
  let cold_bytes, cold_questions, cold_wall, cold_first = serve memo batch in
  let snap = Store.snapshot_now store in
  Store.close store;
  R.row b "cold" ~requests ~wall_s:cold_wall
    [
      ("questions", Json.Int cold_questions);
      ("first_response_s", Json.Float cold_first);
      ("snapshot_entries", Json.Int snap.Store.entries_written);
      ("snapshot_bytes", Json.Int snap.Store.bytes_written);
    ];
  (* --- warm ------------------------------------------------------- *)
  let golden = dir ^ ".golden" in
  copy_dir dir golden;
  let memo2, store2, report2, load_s = load_into_fresh_memo ~dir in
  let warm_bytes, warm_questions, warm_wall, warm_first = serve memo2 batch in
  Store.close store2;
  let ratio =
    if cold_questions = 0 then 0.
    else float_of_int warm_questions /. float_of_int cold_questions
  in
  R.check b (warm_bytes = cold_bytes)
    "warm responses not byte-identical to cold";
  R.check b (ratio < 0.05) "warm questions %d not < 5%% of cold %d (ratio %.3f)"
    warm_questions cold_questions ratio;
  R.row b "warm" ~requests ~wall_s:warm_wall
    [
      ("questions", Json.Int warm_questions);
      ("question_ratio", Json.Float ratio);
      ("first_response_s", Json.Float warm_first);
      ("load_s", Json.Float load_s);
      ("entries_loaded", Json.Int report2.Store.entries_loaded);
      ("identical", Json.Bool (warm_bytes = cold_bytes));
    ];
  (* --- fault rows -------------------------------------------------- *)
  let fault = fault_row b ~golden ~scratch:dir ~batch ~cold_bytes in
  let truncated = fault "truncated" truncate_snapshot in
  R.check b truncated.Store.torn_tail "truncated snapshot not detected as torn";
  let flipped = fault "bit_flip" corrupt_snapshot in
  R.check b
    (flipped.Store.entries_skipped > 0)
    "bit-flipped snapshot skipped no record";
  let future = fault "future_version" future_version_snapshot in
  R.check b (future.Store.refused <> None)
    "future-version snapshot was not refused";
  Proc.rm_rf golden;
  Proc.rm_rf dir

let scrape_gauge ~port name =
  match Expo_server.get ~port ~path:"/metrics" () with
  | Error _ -> None
  | Ok body ->
      let prefix = name ^ " " in
      let n = String.length prefix in
      List.find_map
        (fun line ->
          if String.length line > n && String.sub line 0 n = prefix then
            float_of_string_opt (String.sub line n (String.length line - n))
          else None)
        (String.split_on_char '\n' body)

(* A real durable [recdb serve], so kill -9 exercises genuine crash
   recovery, not an in-process fake. *)
let crash b ~batch =
  let dir = R.scratch "store-crash" in
  let store = Filename.concat dir "store" in
  let lines = List.map (fun r -> Json.to_string (Request.to_json r)) batch in
  let reference =
    Proc.sort_by_id
      (List.map Engine_bench.bytes (Engine.handle_all (Engine.create ()) batch))
  in
  let start () =
    Serve_child.start ~dir
      [
        "-j"; "1"; "--no-stats"; "--metrics-port"; "0"; "--store"; store;
        "--snapshot-interval"; "0.4";
      ]
  in
  let exchange (c : Serve_child.t) =
    match Proc.send_and_collect ~port:c.port lines with
    | Ok responses -> Proc.sort_by_id responses
    | Error e ->
        R.violation b "crash: workload send failed: %s" e;
        []
  in
  let gauge (c : Serve_child.t) name =
    Option.bind c.metrics_port (fun port -> scrape_gauge ~port name)
  in
  let t0 = Unix.gettimeofday () in
  match start () with
  | Error e -> R.violation b "crash: %s" e
  | Ok cold -> (
      R.check b (exchange cold = reference)
        "crash: cold responses differ from sequential";
      let cold_q = gauge cold "pool_oracle_questions" in
      (* wait for a write-behind snapshot to land, then kill -9 mid-load:
         re-send the workload and shoot the server while it answers *)
      let deadline = Unix.gettimeofday () +. 10. in
      let rec wait_snapshot () =
        match gauge cold "store_snapshot_last_entries" with
        | Some n when n > 0. -> ()
        | _ when Unix.gettimeofday () > deadline ->
            R.violation b "crash: no snapshot within 10s of serving"
        | _ ->
            Unix.sleepf 0.1;
            wait_snapshot ()
      in
      wait_snapshot ();
      let killer =
        Thread.create
          (fun () ->
            Unix.sleepf 0.05;
            Unix.kill cold.pid Sys.sigkill)
          ()
      in
      (* the crash drops the connection mid-stream; whatever arrives
         before EOF is noise — the contract is about the restart *)
      ignore (Proc.send_and_collect ~port:cold.port lines);
      Thread.join killer;
      Serve_child.kill cold;
      match start () with
      | Error e -> R.violation b "crash: restart: %s" e
      | Ok warm ->
          R.check b (exchange warm = reference)
            "crash: warm responses differ from sequential";
          let warm_q = gauge warm "pool_oracle_questions" in
          (match (cold_q, warm_q) with
          | Some c, Some w ->
              R.check b
                (c = 0. || w < 0.05 *. c)
                "crash: warm questions %.0f not < 5%% of cold %.0f" w c
          | _ -> R.violation b "crash: pool_oracle_questions missing from /metrics");
          R.check b
            (gauge warm "store_last_flush_age_seconds" <> None)
            "crash: store_last_flush_age_seconds missing from /metrics";
          (* a clean SIGTERM drain flushes a final snapshot *)
          let clean = Serve_child.stop warm in
          R.check b clean "crash: warm server did not exit cleanly on SIGTERM";
          R.check b
            (Sys.file_exists (Filename.concat store "snapshot.rdb"))
            "crash: no snapshot after clean drain";
          R.row b "crash" ~requests:(List.length lines)
            ~wall_s:(Unix.gettimeofday () -. t0)
            [
              ( "cold_questions",
                Option.fold ~none:Json.Null ~some:(fun q -> Json.Int (int_of_float q)) cold_q );
              ( "warm_questions",
                Option.fold ~none:Json.Null ~some:(fun q -> Json.Int (int_of_float q)) warm_q );
            ];
          if clean then Proc.rm_rf dir)

let run ~smoke =
  let requests = if smoke then 120 else 160 in
  let b = R.create "store" in
  let batch = Engine_bench.build_mixed_batch requests in
  in_process b ~batch;
  crash b ~batch:(Engine_bench.build_mixed_batch 120);
  R.finish b
