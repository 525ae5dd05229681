(* perfbench: the end-to-end and per-layer benchmark of the recdb
   serving stack.  See perfbench/README.md for the workloads, the
   metrics and why each is measured where it is.

   One run = one workload, one seed:
     setup     spawn the unchanged recdb binaries, then warm them (or
               restart them on a prefilled store); timed as setup_s,
               several times, median reported
     saturate  2 connections, pipeline depth 16, closed loop
     probe     1 connection, pipeline 1 — the latency percentiles
   Every response is checked byte-for-byte (id and stats stripped)
   against the sequential in-process replay, and the servers' stats
   ledger against the replay's Def. 3.9 question count.  With
   --trace 1 the run also replays the stream in-process with a span
   around each layer call and reports the per-layer metrics instead. *)

let depth = 16
let rounds = 15
let setups_untraced = 5
let snapshot_interval = 3.0

(* Journal fsync batching of lib/store (Store.open_store's default);
   recdb serve does not expose it, so it is recorded, not set. *)
let fsync_every = 8

type workload = Hot_mixed | Routed_hot | Unique_durable

let workload_of_string = function
  | "hot_mixed" -> Hot_mixed
  | "routed_hot" -> Routed_hot
  | "unique_durable" -> Unique_durable
  | w -> failwith ("unknown workload " ^ w)

let workload_name = function
  | Hot_mixed -> "hot_mixed"
  | Routed_hot -> "routed_hot"
  | Unique_durable -> "unique_durable"

(* ------------------------------------------------------------------ *)
(* Sizing.  Phases are sized in requests, not seconds, so a seed fixes
   the exact stream and the question counts repeat; the sizes come from
   --seconds and the rates this stack sustains on a 2-core host, so a
   run measures for about that long. *)

type sizes = { n_sat : int; n_probe : int; n_prefill : int }

let sizes workload ~seconds ~tiny =
  if tiny then { n_sat = 400; n_probe = 300; n_prefill = 300 }
  else
    let s = float_of_int seconds in
    let sat_rate, probe_rate =
      match workload with
      | Hot_mixed -> (13_000., 4_000.)
      | Routed_hot -> (8_000., 2_000.)
      | Unique_durable -> (2_000., 1_800.)
    in
    {
      n_sat = int_of_float (sat_rate *. s);
      n_probe = max 12_000 (int_of_float (probe_rate *. s));
      n_prefill = 12_000;
    }

type plan = {
  keys : Gen.key array;
  warm : int array;  (* hot: the warm pass; durable: the prefill *)
  stream : int array;  (* the timed phases: saturate, then probe *)
  fresh : int;  (* timed keys never served before *)
}

let make_plan workload ~seed sz =
  let rng = Random.State.make [| seed; 0x7065; Hashtbl.hash (workload_name workload) |] in
  let n = sz.n_sat + sz.n_probe in
  match workload with
  | Hot_mixed | Routed_hot ->
      (* both draw the same stream for a seed, so routing is the only
         difference between them *)
      let rng = Random.State.make [| seed; 0x686f74 |] in
      let keys = Gen.hot_set rng in
      let stream = Gen.zipf_stream rng ~n:(Array.length keys) ~len:n in
      { keys; warm = Array.init (Array.length keys) Fun.id; stream; fresh = 0 }
  | Unique_durable ->
      let prefill = Array.init sz.n_prefill (fun i -> Gen.fresh_key rng (i + 1)) in
      let extra = ref [] and nk = ref sz.n_prefill and fresh = ref 0 in
      let stream =
        Array.init n (fun _ ->
            if Random.State.int rng 4 = 0 then Random.State.int rng sz.n_prefill
            else begin
              extra := Gen.fresh_key rng (1_000_000 + !nk) :: !extra;
              incr fresh;
              incr nk;
              !nk - 1
            end)
      in
      {
        keys = Array.append prefill (Array.of_list (List.rev !extra));
        warm = Array.init sz.n_prefill Fun.id;
        stream;
        fresh = !fresh;
      }

(* ------------------------------------------------------------------ *)
(* Process bookkeeping: every child is stopped on every exit path. *)

let live = ref []

let stop_pid pid =
  Procs.stop pid;
  live := List.filter (( <> ) pid) !live

let stop_all () = List.iter stop_pid (List.rev !live)

let spawn ~exe ~log args =
  let pid = Procs.spawn ~exe ~log args in
  live := pid :: !live;
  pid

type topology = {
  front_port : int;  (* where clients connect *)
  metrics_port : int option;
  front_pid : int;  (* serve, or the router *)
  sup_pid : int option;  (* the shard supervisor *)
  shard_ports : int list;
}

let serving_pids topo =
  match topo.sup_pid with
  | None -> [ topo.front_pid ]
  | Some sup -> Procs.children sup

let stop_topology topo =
  stop_pid topo.front_pid;
  Option.iter stop_pid topo.sup_pid

let start_topology workload ~exe ~dir ~store_dir ~tag =
  let pf name = Filename.concat dir (Printf.sprintf "%s-%s" name tag) in
  match workload with
  | Hot_mixed | Unique_durable ->
      let store_args =
        match store_dir with
        | None -> []
        | Some d ->
            [ "--store"; d; "--snapshot-interval"; Printf.sprintf "%g" snapshot_interval; "--open-world" ]
      in
      let port_file = pf "port" in
      let pid =
        spawn ~exe ~log:(pf "serve.log")
          ([ "serve"; "-p"; "0"; "-j"; "1"; "--metrics-port"; "0"; "--port-file"; port_file ] @ store_args)
      in
      (match Procs.wait_port_file ~pid ~lines:2 port_file with
      | [ p; mp ] | p :: mp :: _ ->
          { front_port = p; metrics_port = Some mp; front_pid = pid; sup_pid = None; shard_ports = [] }
      | _ -> failwith "bad port file")
  | Routed_hot ->
      let shard_file = pf "shards" and router_file = pf "router" in
      let sup =
        spawn ~exe ~log:(pf "shard.log")
          [ "shard"; "2"; "-j"; "1"; "--dir"; pf "shard-dir"; "--port-file"; shard_file ]
      in
      let shard_ports = Procs.wait_port_file ~pid:sup ~lines:2 shard_file in
      let router =
        spawn ~exe ~log:(pf "router.log")
          [ "router"; "--shards-file"; shard_file; "--port"; "0"; "--metrics-port"; "0";
            "--port-file"; router_file ]
      in
      (match Procs.wait_port_file ~pid:router ~lines:2 router_file with
      | p :: mp :: _ ->
          { front_port = p; metrics_port = Some mp; front_pid = router; sup_pid = Some sup; shard_ports }
      | _ -> failwith "bad port file")

(* ------------------------------------------------------------------ *)
(* Checking. *)

type check = {
  mutable attempted : int;
  mutable failed : int;
  mutable timed_attempted : int;
  mutable timed_ok : int;
  mutable notes : string list;
}

let note ck msg =
  if List.length ck.notes < 20 then begin
    ck.notes <- msg :: ck.notes;
    prerr_endline ("perfbench: " ^ msg)
  end

(* The response check of a phase: each response must equal the
   replay's bytes for its key. *)
let verify ck ~timed ~(expected : string array) ~(stream : int array) pos line =
  let ki = stream.(pos) in
  let got = Replay.strip line in
  ck.attempted <- ck.attempted + 1;
  if timed then ck.timed_attempted <- ck.timed_attempted + 1;
  if got = expected.(ki) && got <> "" then (if timed then ck.timed_ok <- ck.timed_ok + 1)
  else begin
    ck.failed <- ck.failed + 1;
    note ck (Printf.sprintf "response mismatch on key %d: got %s, want %s" ki got expected.(ki))
  end

(* ------------------------------------------------------------------ *)
(* Statistics. *)

let fi = float_of_int

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The value at rank ceil(q·n) of the sorted samples. *)
let quantile (a : float array) q =
  let n = Array.length a in
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (r - 1)))

let latencies (r : Wire.record) ~ord0 ~n =
  let a = Array.init n (fun i -> r.Wire.recv_t.(ord0 + i) -. r.Wire.sent_t.(ord0 + i)) in
  Array.sort compare a;
  a

(* ------------------------------------------------------------------ *)
(* The stamp. *)

let command_output cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let l = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with Unix.WEXITED 0 when l <> "" -> Some l | _ -> None
  with _ -> None

(* A digest of the serving code, for checkouts that are not git
   repositories. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p
               else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
               else [])
    | exception Sys_error _ -> []
  in
  let ds = List.map (fun p -> p ^ Digest.to_hex (Digest.file p)) (files "lib" @ files "bin") in
  Digest.to_hex (Digest.string (String.concat "\n" ds))

let stamp workload ~seed ~seconds ~trace ~store_dir ~sizes =
  let open Json in
  Obj
    [
      ("workload", String (workload_name workload));
      ("commit", String (Option.value (command_output "git rev-parse HEAD") ~default:"unknown"));
      ("source_digest", String (source_digest ()));
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("ocaml", String Sys.ocaml_version);
      ("hostname", String (Unix.gethostname ()));
      ("seed", Int seed);
      ("seconds", Int seconds);
      ("trace", Int trace);
      ("pipeline_depth", Int depth);
      ("connections", Int 2);
      ("saturate_requests", Int sizes.n_sat);
      ("probe_requests", Int sizes.n_probe);
      ( "store",
        match store_dir with
        | None -> Null
        | Some d ->
            Obj
              [
                ("dir", String d);
                ( "filesystem",
                  String
                    (Option.value ~default:"unknown"
                       (command_output ("stat -f -c %T " ^ Filename.quote (Filename.dirname d)))) );
                ("fsync_every", Int fsync_every);
                ("snapshot_interval_s", Float snapshot_interval);
                ("prefill_keys", Int sizes.n_prefill);
              ] );
    ]

(* ------------------------------------------------------------------ *)
(* Engine configuration matching the served processes. *)

let engine_config workload =
  match workload with
  | Hot_mixed | Routed_hot -> Engine.default_config
  | Unique_durable ->
      let decls =
        List.map
          (fun (name, spec) ->
            match Incomplete.Decl.parse spec with
            | Ok d -> (name, d)
            | Error e -> failwith e)
          Incomplete.Decl.demo
      in
      { Engine.default_config with decls }

(* The router's colocation key (lib/cluster/router.ml, key_of). *)
let route_key (k : Gen.key) = if k.Gen.instance <> "" then "i:" ^ k.Gen.instance else "o:" ^ k.Gen.op

(* ------------------------------------------------------------------ *)
(* The replay passes. *)

let counter name = Metrics.counter_value (Metrics.counter name)

type inproc = {
  acc : Replay.acc;
  expected : string array;  (* per key, id and stats stripped *)
  questions : int;  (* over what the measured server asked *)
  prefill_questions : int;  (* durable: what the prefill server asked *)
  ledger : int * int * int;  (* raw, tb, equiv over the timed stream *)
  wall_s : float;  (* the timed stream *)
  memo0 : Shared_memo.stats;
  memo1 : Shared_memo.stats;
  cache0 : Oracle_cache.stats;
  cache1 : Oracle_cache.stats;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  plans_compiled : int;
  compile_ns : int;
  rql_hits : int;
  rql_compiles : int;
  load_s : float;
  load : Store.load_report option;
}

let run_replay workload plan ~spans ~dir ~journal =
  let config = engine_config workload in
  let nkeys = Array.length plan.keys in
  let memo = Shared_memo.create () in
  let r0, store, load_s, load, prefill_questions =
    match workload with
    | Hot_mixed | Routed_hot ->
        let r = Replay.create ~spans ~config ~memo ~nkeys () in
        Array.iter (Replay.serve r ~measure:false plan.keys) plan.warm;
        (r, None, 0.0, None, 0)
    | Unique_durable ->
        (* the prefill, snapshotted and reloaded as a restarted server
           does *)
        Procs.rm_rf dir;
        let s1, _ = Store.open_store ~write_behind:false ~dir memo in
        let r1 = Replay.create ~spans ~config ~memo ~nkeys () in
        Array.iter (Replay.serve r1 ~measure:false plan.keys) plan.warm;
        Store.close s1;
        let memo2 = Shared_memo.create () in
        let a = Clock.now () in
        let s2, report = Store.open_store ~write_behind:false ~dir memo2 in
        let b = Clock.now () in
        Spans.add spans ~rid:0 ~parent:(-1) Spans.open_store a b;
        let load_s = b -. a in
        let r2 =
          Replay.create ?store:(if journal then Some s2 else None) ~snapshot_interval
            ~spans ~config ~memo:memo2 ~nkeys ()
        in
        Array.blit r1.Replay.expected 0 r2.Replay.expected 0 nkeys;
        (r2, Some s2, load_s, Some report, Engine.question_count r1.Replay.engine)
  in
  let q0 = Engine.question_count r0.Replay.engine in
  let raw0, tb0, eq0, _ = Engine.ledger_counts r0.Replay.engine in
  let memo0 = Shared_memo.stats r0.Replay.memo and cache0 = Engine.cache_stats r0.Replay.engine in
  let pc0 = counter "engine.plans_compiled" and cn0 = counter "engine.compile_ns" in
  let rh0 = counter "engine.rql_plan_raw_hits" + counter "engine.rql_plan_norm_hits" in
  let rc0 = counter "engine.rql_plan_compiles" in
  let gc0 = Gc.quick_stat () in
  let a = Clock.now () in
  Array.iter (Replay.serve r0 ~measure:true plan.keys) plan.stream;
  let wall_s = Clock.now () -. a in
  let gc1 = Gc.quick_stat () in
  let raw1, tb1, eq1, _ = Engine.ledger_counts r0.Replay.engine in
  let q1 = Engine.question_count r0.Replay.engine in
  let res =
    {
      acc = r0.Replay.acc;
      expected = r0.Replay.expected;
      questions = (match workload with Unique_durable -> q1 - q0 | _ -> q1);
      prefill_questions;
      ledger = (raw1 - raw0, tb1 - tb0, eq1 - eq0);
      wall_s;
      memo0;
      memo1 = Shared_memo.stats r0.Replay.memo;
      cache0;
      cache1 = Engine.cache_stats r0.Replay.engine;
      gc0;
      gc1;
      plans_compiled = counter "engine.plans_compiled" - pc0;
      compile_ns = counter "engine.compile_ns" - cn0;
      rql_hits = counter "engine.rql_plan_raw_hits" + counter "engine.rql_plan_norm_hits" - rh0;
      rql_compiles = counter "engine.rql_plan_compiles" - rc0;
      load_s;
      load;
    }
  in
  Option.iter (fun s -> Store.close s) store;
  Procs.rm_rf dir;
  res

(* Pool dispatch cost on memo hits: Pool.submit to its callback, minus
   Engine.handle on an equally warm engine, for the same requests. *)
let pool_dispatch_us workload plan =
  let config = engine_config workload in
  let sample = Array.sub plan.warm 0 (min 2000 (Array.length plan.warm)) in
  let reqs =
    Array.to_list sample
    |> List.filter_map (fun ki ->
           let line = Gen.line_of plan.keys.(ki) ~id:1 in
           match Request.decode_line ~default_id:1 (String.sub line 0 (String.length line - 1)) with
           | `Request r -> Some r
           | _ -> None)
  in
  let pool = Pool.create ~domains:1 ~engine_config:config () in
  ignore (Pool.run_batch pool reqs);
  let engine = Engine.create ~config ~shared:(Shared_memo.create ()) () in
  List.iter (fun r -> ignore (Engine.handle engine r)) reqs;
  let pool_s = ref 0.0 and handle_s = ref 0.0 in
  for _ = 1 to 3 do
    List.iter
      (fun r ->
        let flag = Atomic.make false in
        let a = Clock.now () in
        Pool.submit pool r (fun _ -> Atomic.set flag true);
        while not (Atomic.get flag) do
          Domain.cpu_relax ()
        done;
        pool_s := !pool_s +. (Clock.now () -. a);
        let a = Clock.now () in
        ignore (Engine.handle engine r);
        handle_s := !handle_s +. (Clock.now () -. a))
      reqs
  done;
  Pool.shutdown pool;
  let n = float_of_int (3 * List.length reqs) in
  ((!pool_s -. !handle_s) /. n) *. 1e6

(* ------------------------------------------------------------------ *)
(* The served run. *)

type served = {
  setup_s : float list;
  per_round : (float * float * float) list;  (* throughput, p50, p99 *)
  prefill_questions : int;
  ledger : Wire.ledger;  (* the measured server's, after the timed phases *)
  hwm_mb : float;
  server_cpu_s : float;  (* serving processes, saturate phase *)
  router_cpu_s : float;
  scrape0 : (string, float) Hashtbl.t;
  scrape1 : (string, float) Hashtbl.t;
  retained_kb_per_key : float;
  direct_p50_s : float;  (* routed: the same probes sent straight to their shard *)
}

let sum_f f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* [check ~timed ~stream pos line] verifies one response. *)
let served_run workload plan sz ~exe ~dir ~store_dir ~setups ~direct ~check =
  (* durable: the untimed prefill, drained to a snapshot *)
  let prefill_questions =
    match workload with
    | Unique_durable ->
        let topo = start_topology workload ~exe ~dir ~store_dir ~tag:"prefill" in
        let conns = [ Wire.connect topo.front_port; Wire.connect topo.front_port ] in
        let n = Array.length plan.warm in
        let r = Wire.make_record n in
        ignore
          (Wire.run ~conns ~depth ~keys:plan.keys ~stream:plan.warm ~first:0 ~n r ~ord0:0
             ~on_response:(check ~timed:false ~stream:plan.warm));
        let q = (Wire.ledger (List.hd conns)).Wire.questions in
        List.iter Wire.close conns;
        stop_topology topo;
        q
    | _ -> 0
  in
  let setup_s = ref [] and last = ref None and rss_gain = ref 0.0 in
  for i = 1 to setups do
    Option.iter (fun (topo, conns) -> List.iter Wire.close conns; stop_topology topo) !last;
    let t0 = Clock.now () in
    let topo = start_topology workload ~exe ~dir ~store_dir ~tag:(string_of_int i) in
    let conns = [ Wire.connect topo.front_port; Wire.connect topo.front_port ] in
    (match workload with
    | Hot_mixed | Routed_hot ->
        let rss0 = sum_f (fun p -> Procs.status_mb p "VmRSS") (serving_pids topo) in
        let n = Array.length plan.warm in
        let r = Wire.make_record n in
        ignore
          (Wire.run ~conns ~depth ~keys:plan.keys ~stream:plan.warm ~first:0 ~n r ~ord0:0
             ~on_response:(check ~timed:false ~stream:plan.warm));
        let rss1 = sum_f (fun p -> Procs.status_mb p "VmRSS") (serving_pids topo) in
        rss_gain := (rss1 -. rss0) *. 1024.0 /. float_of_int n
    | Unique_durable -> ());
    setup_s := (Clock.now () -. t0) :: !setup_s;
    last := Some (topo, conns)
  done;
  let topo, conns = Option.get !last in
  let pids = serving_pids topo in
  let mport = Option.get topo.metrics_port in
  let scrape0 = Procs.scrape mport in
  let rss0 = sum_f (fun p -> Procs.status_mb p "VmRSS") pids in
  let n = sz.n_sat + sz.n_probe in
  let r = Wire.make_record n in
  let on_response = check ~timed:true ~stream:plan.stream in
  let probe_conn = List.hd conns in
  (* The phases alternate in [rounds] blocks, so that both sample the
     whole measured span of a host whose speed drifts.  The probe client
     polls instead of sleeping only when one server process does the
     serving: the router and its shards, or the store's flusher, need
     both cores, and a polling client starves them. *)
  let cpu_s = ref 0.0 and rcpu_s = ref 0.0 and per_round = ref [] in
  for k = 0 to rounds - 1 do
    let block n i = (n * i / rounds, (n * (i + 1) / rounds) - (n * i / rounds)) in
    let first, n = block sz.n_sat k in
    let cpu0 = sum_f Procs.cpu_s pids and rcpu0 = Procs.cpu_s topo.front_pid in
    let dt =
      Wire.run ~conns ~depth ~keys:plan.keys ~stream:plan.stream ~first ~n r ~ord0:first
        ~on_response
    in
    cpu_s := !cpu_s +. sum_f Procs.cpu_s pids -. cpu0;
    rcpu_s := !rcpu_s +. Procs.cpu_s topo.front_pid -. rcpu0;
    let rps = fi n /. dt in
    let first, n = block sz.n_probe k in
    ignore
      (Wire.run ~spin:(workload = Hot_mixed) ~conns:[ probe_conn ] ~depth:1 ~keys:plan.keys ~stream:plan.stream
         ~first:(sz.n_sat + first) ~n r ~ord0:(sz.n_sat + first) ~on_response);
    let lat = latencies r ~ord0:(sz.n_sat + first) ~n in
    per_round := (rps, quantile lat 0.5, quantile lat 0.99) :: !per_round
  done;
  let ledger = Wire.ledger probe_conn in
  let scrape1 = Procs.scrape mport in
  let rss1 = sum_f (fun p -> Procs.status_mb p "VmRSS") pids in
  let retained =
    match workload with
    | Unique_durable -> (rss1 -. rss0) *. 1024.0 /. float_of_int (max 1 plan.fresh)
    | _ -> !rss_gain
  in
  let direct_p50_s =
    match (workload, direct) with
    | Routed_hot, true ->
        let names = List.map (Printf.sprintf "127.0.0.1:%d") topo.shard_ports in
        let ring = Ring.create names in
        let m = min sz.n_probe 6000 in
        let lat = ref [] in
        List.iter2
          (fun name port ->
            let sub =
              Array.of_list
                (List.filter
                   (fun ki -> Ring.node ring (route_key plan.keys.(ki)) = name)
                   (Array.to_list (Array.sub plan.stream sz.n_sat m)))
            in
            let k = Array.length sub in
            if k > 0 then begin
              let c = Wire.connect port in
              let dr = Wire.make_record k in
              ignore
                (Wire.run ~conns:[ c ] ~depth:1 ~keys:plan.keys ~stream:sub ~first:0 ~n:k dr ~ord0:0
                   ~on_response:(check ~timed:false ~stream:sub));
              Wire.close c;
              lat := Array.to_list (latencies dr ~ord0:0 ~n:k) @ !lat
            end)
          names topo.shard_ports;
        quantile (Array.of_list (List.sort compare !lat)) 0.5
    | _ -> 0.0
  in
  (* peak RSS of everything that serves: the router and its shards, or
     the one server *)
  let hwm =
    sum_f (fun p -> Procs.status_mb p "VmHWM")
      (if topo.sup_pid = None then pids else topo.front_pid :: pids)
  in
  List.iter Wire.close conns;
  stop_topology topo;
  {
    setup_s = !setup_s;
    per_round = List.rev !per_round;
    prefill_questions;
    ledger;
    hwm_mb = hwm;
    server_cpu_s = !cpu_s;
    router_cpu_s = (match workload with Routed_hot -> !rcpu_s | _ -> 0.0);
    scrape0;
    scrape1;
    retained_kb_per_key = retained;
    direct_p50_s;
  }

(* ------------------------------------------------------------------ *)

let metric name unit v = (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ])

let div a b = if b = 0.0 then 0.0 else a /. b

let frac (a : Shared_memo.table_stats) (b : Shared_memo.table_stats) =
  let h = b.Shared_memo.hits - a.Shared_memo.hits and m = b.Shared_memo.misses - a.Shared_memo.misses in
  div (fi h) (fi (h + m))

(* Each timing is the median over the rounds of that round's value: a
   round the host stalled, or a write-behind snapshot landed in, moves
   it only if it is the typical round. *)
let round_medians (s : served) =
  let m f = median (List.map f s.per_round) in
  (m (fun (r, _, _) -> r), m (fun (_, p, _) -> p), m (fun (_, _, p) -> p))

let end_to_end plan sz (s : served) ck =
  (* over every request the workload served: the warm pass or the
     prefill, then the timed phases *)
  let served_total = fi (Array.length plan.warm + sz.n_sat + sz.n_probe) in
  let tput, p50, _ = round_medians s in
  [
    metric "throughput_rps" "req/s" tput;
    metric "latency_p50_ms" "ms" (p50 *. 1e3);
    metric "ok_frac" "1" (div (fi ck.timed_ok) (fi ck.timed_attempted));
    metric "questions_per_req" "questions/req"
      (fi (s.prefill_questions + s.ledger.Wire.questions) /. served_total);
    metric "rss_peak_mb" "MB" s.hwm_mb;
    metric "setup_s" "s" (median s.setup_s);
  ]

let per_layer workload sz (s : served) (tr : inproc) (untraced : inproc) ~dispatch_us ~ring_ns =
  let acc = tr.acc in
  let nreq = fi acc.Replay.requests in
  let us x = x *. 1e6 in
  let inproc_p50 =
    (* the probe part of the timed stream: the last n_probe requests *)
    let l = List.filteri (fun i _ -> i < sz.n_probe) !(acc.Replay.inproc) in
    quantile (Array.of_list (List.sort compare l)) 0.5
  in
  let _, p50, p99 = round_medians s in
  let d name = Procs.metric s.scrape1 name -. Procs.metric s.scrape0 name in
  let admitted = d "server_admitted_total" and shed = d "server_shed_total" in
  let shed_frac =
    match workload with
    | Routed_hot -> div (d "cluster_router_sheds") (fi (sz.n_sat + sz.n_probe))
    | _ -> div shed (admitted +. shed)
  in
  let raw, tb, eq = tr.ledger in
  let store_on = workload = Unique_durable in
  let load = tr.load in
  let skew =
    match s.ledger.Wire.shard_served with
    | [] -> 0.0
    | l ->
        let tot = List.fold_left ( + ) 0 l in
        div (fi (List.fold_left max 0 l)) (fi tot /. fi (List.length l))
  in
  let deep a b =
    let open Shared_memo in
    let sum x = x.children.hits + x.equiv.hits + x.rels.hits and tot x =
      x.children.hits + x.equiv.hits + x.rels.hits + x.children.misses + x.equiv.misses + x.rels.misses
    in
    div (fi (sum b - sum a)) (fi (tot b - tot a))
  in
  let ch = tr.cache1.Oracle_cache.hits - tr.cache0.Oracle_cache.hits
  and cm = tr.cache1.Oracle_cache.misses - tr.cache0.Oracle_cache.misses in
  [
    metric "latency_p99_ms" "ms" (p99 *. 1e3);
    metric "net.wire_overhead_us" "us" (us (p50 -. inproc_p50));
    metric "net.server_cpu_us_per_req" "us/req" (us (s.server_cpu_s /. fi sz.n_sat));
    metric "net.admission_high_water" "count" (Procs.metric s.scrape1 "admission_high_water");
    metric "net.shed_frac" "1" shed_frac;
    metric "request.decode_us" "us" (us (div acc.Replay.decode_s nreq));
    metric "request.encode_us" "us" (us (div acc.Replay.encode_s nreq));
    metric "request.response_bytes" "bytes" (div (fi acc.Replay.resp_bytes) nreq);
    metric "pool.dispatch_us" "us" dispatch_us;
    metric "engine.hit_handle_us" "us" (us (div acc.Replay.hit_s (fi acc.Replay.hits)));
    metric "engine.miss_handle_us" "us" (us (div acc.Replay.miss_s (fi acc.Replay.misses)));
    metric "memo.result_hit_frac" "1" (frac tr.memo0.Shared_memo.results tr.memo1.Shared_memo.results);
    metric "memo.plan_hit_frac" "1" (frac tr.memo0.Shared_memo.plans tr.memo1.Shared_memo.plans);
    metric "memo.deep_hit_frac" "1" (deep tr.memo0 tr.memo1);
    metric "oracle_cache.hit_frac" "1" (div (fi ch) (fi (ch + cm)));
    metric "engine.questions_raw_per_req" "questions/req" (div (fi raw) nreq);
    metric "engine.questions_tb_per_req" "questions/req" (div (fi tb) nreq);
    metric "engine.questions_equiv_per_req" "questions/req" (div (fi eq) nreq);
    metric "engine.plans_compiled_per_req" "plans/req" (div (fi tr.plans_compiled) nreq);
    metric "engine.compile_us_per_req" "us/req" (div (fi tr.compile_ns /. 1e3) nreq);
    metric "rql.plan_us" "us" (us (div acc.Replay.rql_plan_s (fi acc.Replay.rql_plans)));
    metric "rql.plan_cache_hit_frac" "1" (div (fi tr.rql_hits) (fi (tr.rql_hits + tr.rql_compiles)));
    metric "incomplete.mode_handle_us" "us" (us (div acc.Replay.mode_s (fi acc.Replay.moded)));
    metric "incomplete.nonexact_cert_frac" "1" (div (fi acc.Replay.nonexact) (fi acc.Replay.moded));
    metric "store.load_s" "s" (if store_on then tr.load_s else 0.0);
    metric "store.entries_loaded" "count"
      (match load with Some l -> fi l.Store.entries_loaded | None -> 0.0);
    metric "store.plans_recompiled" "count"
      (match load with Some l -> fi l.Store.plans_recompiled | None -> 0.0);
    metric "store.journal_us_per_req" "us/req" (us (div acc.Replay.journal_s (fi acc.Replay.journaled)));
    metric "store.snapshot_s" "s" (div acc.Replay.snapshot_s (fi acc.Replay.snapshots));
    metric "store.snapshot_bytes_per_entry" "bytes"
      (div (fi acc.Replay.snapshot_bytes) (fi acc.Replay.snapshot_entries));
    metric "store.snapshots_written" "count" (d "store_snapshots_written_total");
    metric "memo.retained_kb_per_key" "KB" s.retained_kb_per_key;
    metric "gc.minor_mb_per_req" "MB/req"
      (div ((tr.gc1.Gc.minor_words -. tr.gc0.Gc.minor_words) *. fi (Sys.word_size / 8) /. 1e6) nreq);
    metric "gc.major_per_kreq" "1/kreq"
      (div (fi (tr.gc1.Gc.major_collections - tr.gc0.Gc.major_collections)) (nreq /. 1000.0));
    metric "cluster.router_hop_us" "us"
      (match workload with Routed_hot -> us (p50 -. s.direct_p50_s) | _ -> 0.0);
    metric "cluster.router_cpu_us_per_req" "us/req" (us (s.router_cpu_s /. fi sz.n_sat));
    metric "cluster.ring_node_ns" "ns" ring_ns;
    metric "cluster.shard_skew" "1" skew;
    (* the traced replay also runs the planner on each RQL text, outside
       the request spans; that time is not tracing overhead *)
    metric "obs.trace_overhead_frac" "1"
      (div (tr.wall_s -. acc.Replay.rql_plan_s -. untraced.wall_s) untraced.wall_s);
    metric "unattributed_frac" "1" (div acc.Replay.root_self_s acc.Replay.root_s);
  ]

(* Ring.node over the timed stream's routing keys, on a ring of the
   same two shard names a router would build. *)
let ring_node_ns plan spans =
  let ring = Ring.create [ "127.0.0.1:1"; "127.0.0.1:2" ] in
  let keys = Array.map (fun ki -> route_key plan.keys.(ki)) plan.stream in
  let a = Clock.now () in
  Array.iter (fun k -> ignore (Sys.opaque_identity (Ring.node ring k))) keys;
  let b = Clock.now () in
  Spans.add spans ~rid:0 ~parent:(-1) Spans.ring_node a b;
  (b -. a) *. 1e9 /. fi (Array.length keys)

(* ------------------------------------------------------------------ *)

type opts = {
  workload : workload;
  seed : int;
  seconds : int;
  trace : int;
  exe : string;
  tiny : bool;
  corrupt : bool;  (* flip one expected byte: the gate must trip *)
}

let run_once o =
  let sz = sizes o.workload ~seconds:o.seconds ~tiny:o.tiny in
  let name = workload_name o.workload in
  let base = Filename.concat "perfbench" "_run" in
  let dir = Filename.concat base (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  Procs.rm_rf dir;
  Procs.mkdir_p dir;
  Fun.protect ~finally:(fun () -> stop_all (); Procs.rm_rf dir) @@ fun () ->
  let plan = make_plan o.workload ~seed:o.seed sz in
  let store_dir = match o.workload with Unique_durable -> Some (Filename.concat dir "store") | _ -> None in
  (* The in-process passes come first, so that the client's heap is
     small and quiet while the servers are measured. *)
  let off = Spans.create ~enabled:false () in
  let reference =
    run_replay o.workload plan ~spans:off ~dir:(Filename.concat dir "ref") ~journal:(o.trace = 1)
  in
  let layers =
    if o.trace = 1 then begin
      (* about seven spans per served request *)
      let capacity = 7 * (Array.length plan.warm + Array.length plan.stream) in
      let spans = Spans.create ~capacity ~enabled:true () in
      let traced = run_replay o.workload plan ~spans ~dir:(Filename.concat dir "traced") ~journal:true in
      let dispatch_us = pool_dispatch_us o.workload plan in
      let ring_ns = ring_node_ns plan spans in
      let out = Filename.concat "perfbench" "_out" in
      Procs.mkdir_p out;
      Spans.write spans (Filename.concat out (Printf.sprintf "spans-%s-seed%d.tsv" name o.seed));
      Some (traced, dispatch_us, ring_ns)
    end
    else None
  in
  Gc.compact ();
  let expected = Array.copy reference.expected in
  if o.corrupt then begin
    let i = plan.stream.(0) in
    let e = Bytes.of_string expected.(i) in
    Bytes.set e (Bytes.length e - 2) (if Bytes.get e (Bytes.length e - 2) = 'x' then 'y' else 'x');
    expected.(i) <- Bytes.to_string e
  end;
  let ck = { attempted = 0; failed = 0; timed_attempted = 0; timed_ok = 0; notes = [] } in
  let s =
    served_run o.workload plan sz ~exe:o.exe ~dir ~store_dir
      ~setups:(if o.trace = 1 then 1 else setups_untraced)
      ~direct:(o.trace = 1)
      ~check:(verify ck ~expected)
  in
  (* the ledger gate: equal for one serving process, no greater
     through the router (hedges could only add, and none are armed) *)
  let served_questions = s.ledger.Wire.questions in
  let ledger_ok =
    match o.workload with
    | Routed_hot -> served_questions <= reference.questions
    | _ ->
        served_questions = reference.questions
        && s.prefill_questions = reference.prefill_questions
  in
  if not ledger_ok then begin
    ck.failed <- ck.failed + 1;
    note ck
      (Printf.sprintf "ledger mismatch: served %d (+%d in prefill) questions, reference %d (+%d)"
         served_questions s.prefill_questions reference.questions reference.prefill_questions)
  end;
  let metrics =
    match layers with
    | Some (traced, dispatch_us, ring_ns) ->
        per_layer o.workload sz s traced reference ~dispatch_us ~ring_ns
    | None -> end_to_end plan sz s ck
  in
  let stamp =
    Json.Obj
      [
        ("stamp", stamp o.workload ~seed:o.seed ~seconds:o.seconds ~trace:o.trace ~store_dir ~sizes:sz);
        ("rounds", Json.Int rounds);
        ("probe_samples_per_round", Json.Int (sz.n_probe / rounds));
        ( "per_round",
          Json.List
            (List.map
               (fun (rps, p50, p99) ->
                 Json.List [ Json.Float rps; Json.Float (p50 *. 1e3); Json.Float (p99 *. 1e3) ])
               s.per_round) );
        ( "samples_beyond_p99_per_round",
          let n = sz.n_probe / rounds in
          Json.Int (n - int_of_float (Float.ceil (0.99 *. fi n))) );
        ("setup_s_samples", Json.List (List.map (fun x -> Json.Float x) (List.rev s.setup_s)));
        ("served_questions", Json.List [ Json.Int s.prefill_questions; Json.Int served_questions ]);
        ("reference_questions",
          Json.List [ Json.Int reference.prefill_questions; Json.Int reference.questions ]);
        ( "server_counters",
          Json.Obj
            (List.map
               (fun n -> (n, Json.Float (Procs.metric s.scrape1 n -. Procs.metric s.scrape0 n)))
               [ "server_admitted_total"; "server_shed_total"; "engine_plans_compiled_total";
                 "engine_rql_plan_raw_hits_total"; "engine_rql_plan_norm_hits_total";
                 "engine_rql_plan_compiles_total"; "store_journal_appends_total";
                 "store_snapshots_written_total"; "cluster_routed"; "cluster_router_sheds" ]) );
        ("keys", Json.Int (Array.length plan.keys));
        ("fresh_keys", Json.Int plan.fresh);
        ("failures", Json.List (List.rev_map (fun s -> Json.String s) ck.notes));
      ]
  in
  print_endline (Json.to_string stamp);
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (ck.failed = 0));
        ("attempted", Json.Int ck.attempted);
        ("failed", Json.Int ck.failed);
        ("metrics", Json.Obj metrics);
      ]
  in
  (plan, ck, result)

(* ------------------------------------------------------------------ *)
(* The benchmark's own tests: a tiny pass of every workload, traced and
   untraced, checked against the metric lists in BENCHMARK.json. *)

let declared_metrics section =
  let j =
    match Json.parse (Procs.read_file "BENCHMARK.json") with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  match Option.bind (Json.member section j) Json.to_list_opt with
  | Some l ->
      List.map
        (fun m ->
          match
            ( Option.bind (Json.member "name" m) Json.to_string_opt,
              Option.bind (Json.member "unit" m) Json.to_string_opt )
          with
          | Some n, Some u -> (n, u)
          | _ -> failwith ("BENCHMARK.json: bad entry in " ^ section))
        l
  | None -> failwith ("BENCHMARK.json: no " ^ section)

let self_test exe =
  let failures = ref 0 in
  let expect what ok =
    Printf.eprintf "perfbench self-test: %s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  let metrics_of result =
    match Json.member "metrics" result with Some (Json.Obj l) -> l | _ -> []
  in
  let check_metrics what result section =
    let got = metrics_of result in
    List.iter
      (fun (name, unit) ->
        let ok =
          match List.assoc_opt name got with
          | Some m -> (
              Option.bind (Json.member "unit" m) Json.to_string_opt = Some unit
              &&
              match Json.member "value" m with
              | Some (Json.Float v) -> Float.is_finite v
              | Some (Json.Int _) -> true
              | _ -> false)
          | None -> false
        in
        expect (Printf.sprintf "%s emits %s [%s]" what name unit) ok)
      (declared_metrics section);
    expect (Printf.sprintf "%s emits no undeclared metric" what)
      (List.length got = List.length (declared_metrics section))
  in
  let value result name =
    match Option.bind (List.assoc_opt name (metrics_of result)) (Json.member "value") with
    | Some (Json.Float v) -> v
    | _ -> nan
  in
  let opts workload trace = { workload; seed = 1; seconds = 1; trace; exe; tiny = true; corrupt = false } in
  List.iter
    (fun w ->
      let name = workload_name w in
      let plan, ck, result = run_once (opts w 0) in
      check_metrics (name ^ " untraced") result "end_to_end";
      expect (name ^ " ok_frac = 1") (value result "ok_frac" = 1.0 && ck.failed = 0);
      let _, ck1, traced = run_once (opts w 1) in
      check_metrics (name ^ " traced") traced "per_layer";
      expect (name ^ " traced run correct") (ck1.failed = 0);
      (match w with
      | Hot_mixed | Routed_hot ->
          let distinct = Hashtbl.create 64 in
          Array.iter (fun k -> Hashtbl.replace distinct k ()) plan.stream;
          expect (name ^ " repeats keys") (Hashtbl.length distinct < Array.length plan.stream)
      | Unique_durable ->
          let seen = Hashtbl.create 1024 and dup = ref 0 in
          Array.iter
            (fun (k : Gen.key) ->
              if Hashtbl.mem seen k.Gen.body then incr dup else Hashtbl.add seen k.Gen.body ())
            plan.keys;
          expect (name ^ " keys pairwise distinct") (!dup = 0);
          expect (name ^ " has fresh keys") (plan.fresh > 0)))
    [ Hot_mixed; Routed_hot; Unique_durable ];
  (* the gate can trip *)
  let _, ck, result = run_once { (opts Hot_mixed 0) with corrupt = true } in
  expect "a corrupted reference byte is a failure"
    (ck.failed > 0 && Json.member "correct" result = Some (Json.Bool false));
  (* another seed: another stream, the same metric set *)
  let sz = sizes Unique_durable ~seconds:1 ~tiny:true in
  let p1 = make_plan Unique_durable ~seed:1 sz and p2 = make_plan Unique_durable ~seed:2 sz in
  expect "a second seed changes the stream"
    (Array.map (fun (k : Gen.key) -> k.Gen.body) p1.keys <> Array.map (fun (k : Gen.key) -> k.Gen.body) p2.keys);
  let _, _, r2 = run_once { (opts Hot_mixed 0) with seed = 2 } in
  check_metrics "hot_mixed seed 2" r2 "end_to_end";
  if !failures > 0 then begin
    Printf.eprintf "perfbench self-test: %d failure(s)\n%!" !failures;
    exit 1
  end;
  prerr_endline "perfbench self-test: all passed"

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let exe = ref "_build/default/bin/recdb.exe" and test = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME hot_mixed | routed_hot | unique_durable");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measurement length");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--recdb", Arg.Set_string exe, "PATH the recdb binary under test");
      ("--self-test", Arg.Set test, " run the benchmark's own tests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let on_signal _ =
    stop_all ();
    exit 2
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  try
    if !test then self_test !exe
    else begin
      if !trace <> 0 && !trace <> 1 then failwith "--trace must be 0 or 1";
      if !seconds < 1 then failwith "--seconds must be >= 1";
      let o =
        {
          workload = workload_of_string !workload;
          seed = !seed;
          seconds = !seconds;
          trace = !trace;
          exe = !exe;
          tiny = false;
          corrupt = false;
        }
      in
      let _, ck, result = run_once o in
      print_endline (Json.to_string result);
      if ck.failed > 0 then exit 1
    end
  with e ->
    stop_all ();
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    exit 2
