(* E28: the observability subsystem.  Three claims in process: (1)
   tracing is cheap — off costs nothing (it is the absence of a ctx),
   1-in-64 sampling stays within a few percent on the mixed batch; (2)
   tracing is inert — responses are byte-identical with tracing on,
   because span ledgers only *read* counters; (3) the ledger is exact —
   on every traced request the question slots of the span tree sum to
   precisely the response's stats, and a budget-tripped request's
   trace shows where every question went.  A fourth over the wire: a
   traced server's exposition endpoint serves what an operator
   scrapes. *)

module R = Bench_row

let modes b ~requests ~trials =
  let batch = Engine_bench.build_batch requests in
  let ctx_of = function
    | "off" -> None
    | "sampled" ->
        Some (Obs.Trace.make ~capacity:256 ~sampling:(Obs.Trace.Every 64) ())
    | _ ->
        (* full: ring sized to the batch so the ledger check sees every
           request, not just the last 256 *)
        Some (Obs.Trace.make ~capacity:requests ~sampling:Obs.Trace.All ())
  in
  (* Best-of-trials wall clock per mode on a fresh engine (cold memo
     tables make the runs comparable); responses and traces from the
     last trial (they are deterministic across trials anyway). *)
  let measure mode =
    List.fold_left
      (fun (w, _, _) _ ->
        let engine = Engine.create ?trace:(ctx_of mode) () in
        let r, w' = R.time (fun () -> Engine.handle_all engine batch) in
        (Float.min w w', r, Engine.traces engine))
      (Float.infinity, [], [])
      (Prelude.Ints.range 0 trials)
  in
  let runs = List.map (fun m -> (m, measure m)) [ "off"; "sampled"; "full" ] in
  let off_wall, off_responses, _ = List.assoc "off" runs in
  let reference = Engine_bench.fingerprint off_responses in
  List.iter
    (fun (mode, (wall, responses, traces)) ->
      let frac = if mode = "off" then 0.0 else (wall /. off_wall) -. 1.0 in
      let identical =
        String.equal reference (Engine_bench.fingerprint responses)
      in
      (* an absolute slack for sub-50ms smoke passes, where one
         scheduler hiccup dwarfs the work *)
      R.check b
        (mode = "full" || frac < 0.05 || wall -. off_wall < 0.05)
        "%s tracing overhead %.1f%% (>= 5%%, +%.3fs)" mode (100. *. frac)
        (wall -. off_wall);
      R.check b identical "%s responses differ from untraced run" mode;
      R.row b mode ~requests ~wall_s:wall
        [
          ("trials", Json.Int trials);
          ("overhead_frac", Json.Float frac);
          ("identical", Json.Bool identical);
          ("traced", Json.Int (List.length traces));
        ])
    runs;
  (* Ledger exactness, on the full run. *)
  let _, full_responses, full_traces = List.assoc "full" runs in
  let stats_by_id = Hashtbl.create (List.length full_responses) in
  List.iter
    (fun (r : Request.response) ->
      Hashtbl.replace stats_by_id r.Request.id
        (Engine_bench.questions r.Request.stats))
    full_responses;
  let checked = ref 0 and exact = ref true in
  List.iter
    (fun tr ->
      match Hashtbl.find_opt stats_by_id tr.Obs.Trace.req_id with
      | None -> ()
      | Some q ->
          incr checked;
          if Obs.Trace.trace_questions tr <> q then exact := false)
    full_traces;
  R.check b !exact "a traced request's ledger did not sum to its stats";
  R.check b (!checked > 0) "no traced request could be checked";
  R.row b "ledger" ~requests:!checked ~wall_s:0.
    [ ("checked", Json.Int !checked); ("exact", Json.Bool !exact) ]

(* The worked example: a budget-tripped tree expansion, fully traced,
   so the Budget_exceeded error comes with an exact breakdown of where
   its quota went. *)
let budget_trip b =
  let quota = 200 in
  let config =
    {
      Engine.default_config with
      limits = { Resilience.max_oracle_calls = Some quota; deadline_s = None };
    }
  in
  let trace = Obs.Trace.make ~capacity:4 ~sampling:Obs.Trace.All () in
  let engine = Engine.create ~config ~trace () in
  let r = Engine.handle engine Engine_bench.pathological_request in
  let kind = Engine_bench.error_kind r in
  let questions, tree =
    match Engine.traces engine with
    | tr :: _ ->
        ( Obs.Trace.trace_questions tr,
          match Json.parse (Obs.Trace.to_json_string tr) with
          | Ok j -> j
          | Error _ -> Json.Null )
    | [] -> (0, Json.Null)
  in
  R.check b (kind = "budget_exceeded")
    "budget probe returned %s, not budget_exceeded" kind;
  R.check b (questions <= quota)
    "budget-tripped trace shows %d questions > quota %d" questions quota;
  R.row b "budget_trip" ~requests:1 ~wall_s:r.Request.stats.Request.wall_s
    [
      ("error", Json.String kind);
      ("quota", Json.Int quota);
      ("questions", Json.Int questions);
      ("trace", tree);
    ]

(* The exposition checks against a scrape body: every family the
   serving stack is known to register must be present, and within one
   histogram the cumulative le-ladder never decreases. *)
let required_families =
  [
    "engine_requests_total";
    "engine_plans_compiled_total";
    "engine_compile_ns_total";
    "engine_latency_seconds";
    "server_frames_dropped_oversized_total";
    "server_frames_parse_error_total";
    "server_scrapes_total";
    "admission_window";
    "admission_admitted_total";
    "pool_oracle_questions";
    "pool_cache_hits";
  ]

let check_exposition b body =
  let lines = String.split_on_char '\n' body in
  List.iter
    (fun name ->
      let n = String.length name in
      R.check b
        (List.exists
           (fun l ->
             String.length l > n
             && String.sub l 0 n = name
             && (l.[n] = ' ' || l.[n] = '_' || l.[n] = '{'))
           lines)
        "/metrics: missing metric family %s" name)
    required_families;
  let bucket_of l =
    match (String.index_opt l '{', String.rindex_opt l ' ') with
    | Some i, Some sp when String.length l > 7 && l.[0] <> '#' ->
        Option.map
          (fun v -> (String.sub l 0 i, v))
          (int_of_string_opt (String.sub l (sp + 1) (String.length l - sp - 1)))
    | _ -> None
  in
  ignore
    (List.fold_left
       (fun last l ->
         match bucket_of l with
         | Some (name, v) ->
             (match last with
             | Some (prev_name, prev_v) when prev_name = name ->
                 R.check b (v >= prev_v)
                   "/metrics: histogram %s: bucket count %d < previous %d" name
                   v prev_v
             | _ -> ());
             Some (name, v)
         | None -> None)
       None lines)

let scrape b ~requests =
  let server =
    Server.start ~window:256 ~per_conn_window:64
      ~tracing:(Obs.Trace.Every 4) ~metrics_port:0 ()
  in
  let report =
    Loadgen.run ~port:(Server.port server) ~connections:4 ~requests
      ~pipeline:4 ()
  in
  (match Server.metrics_port server with
  | None -> R.violation b "no metrics listener came up"
  | Some port -> (
      (match Expo_server.get ~port ~path:"/metrics" () with
      | Error e -> R.violation b "/metrics scrape failed: %s" e
      | Ok body -> check_exposition b body);
      (match Expo_server.get ~port ~path:"/traces" () with
      | Error e -> R.violation b "/traces scrape failed: %s" e
      | Ok body ->
          let lines =
            List.filter
              (fun l -> String.trim l <> "")
              (String.split_on_char '\n' body)
          in
          R.check b (lines <> []) "/traces: no sampled traces collected";
          List.iter
            (fun l ->
              match Json.parse l with
              | Ok (Json.Obj kvs)
                when List.mem_assoc "root" kvs && List.mem_assoc "questions" kvs
                ->
                  ()
              | Ok _ -> R.violation b "/traces: not a span tree: %s" l
              | Error e -> R.violation b "/traces: unparseable line (%s)" e)
            lines);
      match Expo_server.get ~port ~path:"/nonsense" () with
      | Error _ -> ()
      | Ok _ -> R.violation b "/nonsense answered 200; expected 404"));
  (match Server.drain ~timeout_s:30.0 server with
  | `Clean -> ()
  | `Forced n -> R.violation b "scrape: drain aborted %d connection(s)" n);
  R.check b (report.Loadgen.lost = 0) "scrape: %d requests lost"
    report.Loadgen.lost;
  R.check b (report.Loadgen.errors = 0) "scrape: %d error responses"
    report.Loadgen.errors;
  R.row b "scrape" ~requests ~wall_s:report.Loadgen.wall_s
    (Loadgen.report_fields report)

let run ~smoke =
  let requests, trials = if smoke then (300, 2) else (2000, 3) in
  let b = R.create "obs" in
  modes b ~requests ~trials;
  budget_trip b;
  scrape b ~requests:200;
  R.finish b
