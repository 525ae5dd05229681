(* The shared request mixes and the in-process experiments: E24 (the
   engine), E25 (resilience), E26 (parallel serving), E29 (the RQL
   planner) and E31 (compiled evaluation).  Each experiment is one
   function [smoke:bool -> Bench_row.run] whose two sizes are the
   constants at its top. *)

module R = Bench_row

(* All five instances are graphs (db type (2)), so the same sentences
   and queries are well-formed on each. *)
let batch_instances = [ "triangles"; "mod2"; "mod3"; "paths3"; "clique" ]

let batch_sentences =
  [
    "forall x. forall y. R1(x, y) -> (exists z. R1(x, z) && R1(y, z))";
    "exists x. forall y. y != x -> R1(x, y)";
    "forall x. exists y. forall z. exists w. R1(x, y) || z = w";
    "exists x. exists y. exists z. R1(x, y) && R1(y, z) && R1(x, z)";
  ]

(* Queries dominate the batch cost: eval_upto sweeps cutoff² concrete
   tuples through the ≅_B oracle, a few hundred µs each, which keeps
   the pool's per-job dispatch overhead well under 1%. *)
let batch_queries =
  [
    "{(x,y) | R1(x,y) && x != y}";
    "{(x,y) | exists z. R1(x,z) && R1(z,y)}";
    "{(x) | forall y. R1(x,y) -> (exists z. R1(y,z))}";
    "{(x,y) | R1(x,y) || R1(y,x)}";
  ]

let build_batch n =
  let ninst = List.length batch_instances in
  let nsent = List.length batch_sentences in
  let nquer = List.length batch_queries in
  List.map
    (fun i ->
      let instance = List.nth batch_instances (i mod ninst) in
      let payload =
        match i mod 10 with
        | 9 ->
            (* an instance-free CPU-bound request for variety *)
            Request.Classes { db_type = [| 2; 1 |]; rank = 2 }
        | 0 | 1 | 2 | 3 ->
            let sentence = List.nth batch_sentences (i / ninst mod nsent) in
            Request.Sentence { instance; sentence }
        | _ ->
            let query = List.nth batch_queries (i / ninst mod nquer) in
            Request.Query { instance; query; cutoff = 10 }
      in
      Request.make ~id:(i + 1) payload)
    (Prelude.Ints.range 0 n)

let rql_instances = [ "triangles"; "mod2"; "paths3"; "arrows"; "bipartite" ]

(* Query targets carry no inline cutoff, so the request-level cutoff
   applies — E29's warm pass shrinks it by one, forcing a fresh
   whole-request evaluation whose member window is a subset of the cold
   pass's (hence answerable entirely from warm memos). *)
let rql_texts =
  [
    "fix conn(x, y) = R1(x, y) || exists z. (R1(x, z) && conn(z, y)); \
     query {(x, y) | conn(x, y)}";
    (* whitespace/alpha variant of the previous query: same normalized
       text, so the cold pass already shares its compiled plan *)
    "fix r(u,v)=R1(u,v)||exists w.(R1(u,w)&&r(w,v));query {(u,v)|r(u,v)}";
    "fix dead(x, y) = R1(x, y) || exists z. (R1(x, z) && dead(z, y)); \
     let live(x) = exists y. R1(x, y); query {(x) | live(x)}";
    "let e(x, y) = R1(x, y) || R1(y, x); let ee(x, y) = e(x, y); \
     sentence exists x. exists y. ee(x, y)";
    "fix p(x, y) = R1(x, y) || exists z. (R1(x, z) && p(z, y)); \
     fix q(u, v) = R1(u, v) || exists w. (R1(u, w) && q(w, v)); \
     sentence exists x. exists y. (p(x, y) && q(y, x))";
    "sentence forall x. forall y. (R1(x, y) -> exists z. R1(y, z))";
    "query {(x, y) | R1(x, y) && x != y}";
    "tree 2";
  ]

let build_rql_batch ?(cutoff = 4) ~planner n =
  let ninst = List.length rql_instances in
  let ntext = List.length rql_texts in
  List.map
    (fun i ->
      let instance = List.nth rql_instances (i mod ninst) in
      let text = List.nth rql_texts (i / ninst mod ntext) in
      Request.make ~id:(i + 1)
        (Request.Rql { instance; text; cutoff; planner }))
    (Prelude.Ints.range 0 n)

(* The E24 batch with a quarter of RQL requests, so plan-cache entries
   and op-scoped routing keys are exercised too (E30, E32). *)
let build_mixed_batch n =
  build_batch (max 1 (n * 3 / 4))
  @ build_rql_batch ~planner:Request.Plan_cost (max 1 (n / 4))

let bytes r = Json.to_string (Request.response_to_json ~stats:false r)
let fingerprint responses = String.concat "\n" (List.map bytes responses)

let questions (s : Request.stats) =
  s.Request.oracle_calls + s.Request.tb_calls + s.Request.equiv_calls

(* More domains than cores measures scheduler thrash, not the pool:
   such a row is reported as skipped instead of as a bogus slowdown. *)
let skipped_row b name ~domains =
  R.row b name ~requests:0 ~wall_s:0.
    [
      ("domains", Json.Int domains);
      ("skipped", Json.String "insufficient cores");
    ]

(* ------------------------------------------------------------------ *)
(* E24: oracle-call savings from the LRU on repeated evaluation of the
   E17 workload (Theorem 6.3's representative-based FO evaluation,
   four sentences on triangles), and the mixed batch on pools of
   1/2/4 domains, each byte-identical to the sequential engine. *)

let e17_sentences =
  [
    "forall x. forall y. x != y -> R1(x, y)";
    "exists x. exists y. R1(x, y)";
    "forall x. forall y. R1(x, y) -> (exists z. R1(x, z) && R1(y, z))";
    "exists x. forall y. y != x -> R1(x, y)";
  ]

let cache_row b ~repeats =
  (* Uncached: a fresh instance, atoms hit the raw oracles every time. *)
  let base =
    match Engine.build_instance "triangles" with
    | Some b -> b
    | None -> failwith "triangles not registered"
  in
  let formulas = List.map Rlogic.Parser.formula e17_sentences in
  Rdb.Database.reset_oracle_calls (Hs.Hsdb.db base);
  let (), uncached_s =
    R.time (fun () ->
        for _ = 1 to repeats do
          List.iter (fun f -> ignore (Hs.Fo_eval.eval_sentence base f)) formulas
        done)
  in
  let uncached = Rdb.Database.oracle_calls (Hs.Hsdb.db base) in
  (* Cached: the same traffic as engine requests; raw questions are the
     LRU misses only. *)
  let reqs =
    List.concat_map
      (fun _ ->
        List.map
          (fun sentence ->
            Request.make ~id:0
              (Request.Sentence { instance = "triangles"; sentence }))
          e17_sentences)
      (Prelude.Ints.range 0 repeats)
  in
  let responses, cached_s =
    R.time (fun () -> Engine.handle_all (Engine.create ()) reqs)
  in
  let sum f =
    List.fold_left (fun acc r -> acc + f r.Request.stats) 0 responses
  in
  let cached = sum (fun s -> s.Request.oracle_calls) in
  R.row b "cache" ~requests:(List.length reqs)
    ~wall_s:(uncached_s +. cached_s)
    [
      ("repeats", Json.Int repeats);
      ("uncached_oracle_calls", Json.Int uncached);
      ("cached_oracle_calls", Json.Int cached);
      ("cache_hits", Json.Int (sum (fun s -> s.Request.cache_hits)));
      ( "reduction_factor",
        Json.Float
          (if cached = 0 then Float.infinity
           else float_of_int uncached /. float_of_int cached) );
    ]

let engine ~smoke =
  let repeats = 25 and requests = if smoke then 200 else 1000 in
  let b = R.create "engine" in
  cache_row b ~repeats;
  let batch = build_batch requests in
  let cores = Domain.recommended_domain_count () in
  let sequential, sequential_s =
    R.time (fun () -> Engine.handle_all (Engine.create ()) batch)
  in
  let reference = fingerprint sequential in
  R.row b "sequential" ~requests ~wall_s:sequential_s
    [ ("recommended_domain_count", Json.Int cores) ];
  List.iter
    (fun domains ->
      let name = Printf.sprintf "pool_%d" domains in
      if domains > cores then skipped_row b name ~domains
      else begin
        let pool = Pool.create ~domains () in
        let responses, wall_s = R.time (fun () -> Pool.run_batch pool batch) in
        Pool.shutdown pool;
        let identical = String.equal reference (fingerprint responses) in
        R.check b identical "%d domains: responses differ from sequential"
          domains;
        R.row b name ~requests ~wall_s
          [
            ("domains", Json.Int domains);
            ("speedup", Json.Float (sequential_s /. wall_s));
            ("identical", Json.Bool identical);
          ]
      end)
    [ 1; 2; 4 ];
  R.finish b

(* ------------------------------------------------------------------ *)
(* E25: the resilience layer.  What does the per-question budget guard
   cost on the mixed batch; do budgets and deadlines turn a
   pathologically expensive request into a fast typed error; does
   bounded retry absorb injected faults without changing any answer;
   and does a worker domain killed mid-request stay contained — one
   response per request, a typed worker_crash for exactly the killed
   ones, bytes identical to a sequential run for the rest. *)

(* Generous enough that nothing trips: the guard runs, the limits
   never bind — this is the steady-state cost a budgeted production
   configuration pays on every question. *)
let generous_limits =
  Resilience.
    { max_oracle_calls = Some 1_000_000_000; deadline_s = Some 3600.0 }

(* The most expensive request the parse-time bounds still admit:
   expanding paths3's characteristic tree (|T¹| = 2, |T²| = 9) to the
   maximum depth asks thousands of T_B questions.  Nothing truly
   diverging is expressible any more — {!Request.Bounds} caps every
   scalar field precisely so that unboundedness can only arise from
   evaluation, where budgets and deadlines catch it; this request is
   the probe that shows they do. *)
let pathological_request =
  Request.make ~id:0 (Request.Tree { instance = "paths3"; depth = 6 })

let error_kind (r : Request.response) =
  match r.Request.result with
  | Error (Request.Deadline_exceeded _) -> "deadline_exceeded"
  | Error (Request.Budget_exceeded _) -> "budget_exceeded"
  | Error e -> Request.error_to_string e
  | Ok _ -> "ok"

let overhead_row b ~requests ~trials =
  (* fresh engine per run: memo tables cold, so every run asks the
     same (substantial) number of questions; best of [trials] *)
  let best config =
    List.fold_left
      (fun acc _ ->
        let reqs = build_batch requests in
        let engine = Engine.create ?config () in
        Float.min acc
          (snd (R.time (fun () -> ignore (Engine.handle_all engine reqs)))))
      Float.infinity
      (Prelude.Ints.range 0 trials)
  in
  let plain_s = best None in
  let guarded_s =
    best (Some { Engine.default_config with limits = generous_limits })
  in
  R.row b "overhead" ~requests ~wall_s:(plain_s +. guarded_s)
    [
      ("trials", Json.Int trials);
      ("plain_s", Json.Float plain_s);
      ("guarded_s", Json.Float guarded_s);
      ("overhead_frac", Json.Float ((guarded_s /. plain_s) -. 1.0));
    ]

(* Each probe must return its own typed error and stay within its
   bound: the deadline within generous slack (the clock is probed
   every few questions, and a single question can be slow), the budget
   exactly (the cost ledger never exceeds the quota). *)
let probe_row b ~name ~limits ~expect ~within =
  let config = { Engine.default_config with limits } in
  let r = Engine.handle (Engine.create ~config ()) pathological_request in
  let kind = error_kind r in
  let spent = questions r.Request.stats in
  let ok = within r.Request.stats in
  R.check b (kind = expect) "%s probe returned %s, not %s" name kind expect;
  R.check b ok "%s probe overran its bound (%.3fs, %d questions)" name
    r.Request.stats.Request.wall_s spent;
  R.row b name ~requests:1 ~wall_s:r.Request.stats.Request.wall_s
    [
      ("error_kind", Json.String kind);
      ("questions_spent", Json.Int spent);
      ("within_bound", Json.Bool ok);
    ]

let fault_row b ~requests =
  let seed = 42 and fault_period = 150 in
  let batch = build_batch requests in
  let reference = List.map bytes (Engine.handle_all (Engine.create ()) batch) in
  let config =
    {
      Engine.default_config with
      retry = { Resilience.max_retries = 3; backoff_s = 0.0 };
      faults = Some (Faulty_oracle.config ~seed ~fault_period ());
    }
  in
  let engine = Engine.create ~config () in
  let responses, wall_s = R.time (fun () -> Engine.handle_all engine batch) in
  let lost (r : Request.response) =
    match r.result with
    | Error (Request.Oracle_unavailable _) -> true
    | _ -> false
  in
  (* requests lost to Oracle_unavailable are exempt; every other
     response must be byte-identical to the clean run *)
  let deterministic =
    List.for_all2
      (fun r ref_line -> lost r || String.equal (bytes r) ref_line)
      responses reference
  in
  R.check b deterministic
    "faults: a non-faulted response differs from the clean run";
  R.row b "faults" ~requests ~wall_s
    [
      ("seed", Json.Int seed);
      ("fault_period", Json.Int fault_period);
      ("faults_injected", Json.Int (Engine.faults_injected engine));
      ( "retries",
        Json.Int
          (List.fold_left
             (fun acc (r : Request.response) -> acc + r.stats.Request.retries)
             0 responses) );
      ("failures", Json.Int (List.length (List.filter lost responses)));
      ("deterministic", Json.Bool deterministic);
    ]

let crash_row b ~requests =
  let jobs = 3 and every = 20 in
  let batch = build_batch requests in
  let reference = Engine.handle_all (Engine.create ()) batch in
  let pool =
    Pool.create ~domains:jobs ~crash_on:(fun r -> r.Request.id mod every = 0) ()
  in
  let responses, wall_s = R.time (fun () -> Pool.run_batch pool batch) in
  let deaths = Pool.worker_deaths pool in
  Pool.shutdown pool;
  let crashed (r : Request.response) =
    match r.result with Error (Request.Worker_crash _) -> true | _ -> false
  in
  if List.length responses <> requests then
    R.violation b "crash: %d responses for %d requests"
      (List.length responses) requests
  else
    List.iter2
      (fun (r : Request.response) (ref_r : Request.response) ->
        if r.id <> ref_r.id then
          R.violation b "crash: response id %d out of order (expected %d)"
            r.id ref_r.id
        else if r.id mod every = 0 then
          R.check b (crashed r)
            "crash: request %d should have died with worker_crash" r.id
        else
          R.check b
            (String.equal (bytes r) (bytes ref_r))
            "crash: request %d differs from the sequential run" r.id)
      responses reference;
  R.row b "crash" ~requests ~wall_s
    [
      ("domains", Json.Int jobs);
      ("crash_every", Json.Int every);
      ("worker_deaths", Json.Int deaths);
      ("crashed", Json.Int (List.length (List.filter crashed responses)));
    ]

let resilience ~smoke =
  let trials, requests, fault_requests, crash_requests =
    if smoke then (2, 500, 100, 100) else (3, 2000, 200, 200)
  in
  let b = R.create "resilience" in
  overhead_row b ~requests ~trials;
  let deadline_s = 0.02 and quota = 500 in
  probe_row b ~name:"deadline"
    ~limits:{ Resilience.max_oracle_calls = None; deadline_s = Some deadline_s }
    ~expect:"deadline_exceeded"
    ~within:(fun s -> s.Request.wall_s < (10.0 *. deadline_s) +. 1.0);
  probe_row b ~name:"budget"
    ~limits:{ Resilience.max_oracle_calls = Some quota; deadline_s = None }
    ~expect:"budget_exceeded"
    ~within:(fun s -> questions s <= quota);
  fault_row b ~requests:fault_requests;
  crash_row b ~requests:crash_requests;
  R.finish b

(* ------------------------------------------------------------------ *)
(* E26: parallel serving with the shared memo layer.  Per domain count:
   wall-clock on a cache-cold and a cache-warm batch; byte-identity of
   every pool response to the sequential reference; Def. 3.9 honesty —
   genuine questions across all workers never exceed what one
   sequential engine asks for the same cold batch; no worker lost. *)

let parallel ~smoke =
  let requests = if smoke then 120 else 600 in
  let b = R.create "parallel" in
  let batch = build_batch requests in
  let cores = Domain.recommended_domain_count () in
  let engine = Engine.create () in
  let sequential, seq_cold_s =
    R.time (fun () -> Engine.handle_all engine batch)
  in
  let seq_questions = Engine.question_count engine in
  (* Same engine, second pass: the memo-warm serving regime. *)
  let (), seq_warm_s =
    R.time (fun () -> ignore (Engine.handle_all engine batch))
  in
  let reference = fingerprint sequential in
  R.row b "sequential" ~requests ~wall_s:(seq_cold_s +. seq_warm_s)
    [
      ("recommended_domain_count", Json.Int cores);
      ("cold_s", Json.Float seq_cold_s);
      ("warm_s", Json.Float seq_warm_s);
      ("questions", Json.Int seq_questions);
    ];
  List.iter
    (fun domains ->
      let name = Printf.sprintf "pool_%d" domains in
      if domains > cores then skipped_row b name ~domains
      else begin
        let pool = Pool.create ~domains () in
        let cold, cold_s = R.time (fun () -> Pool.run_batch pool batch) in
        let pool_questions = Pool.oracle_questions pool in
        let warm, warm_s = R.time (fun () -> Pool.run_batch pool batch) in
        let deaths = Pool.worker_deaths pool in
        Pool.shutdown pool;
        let identical =
          String.equal reference (fingerprint cold)
          && String.equal reference (fingerprint warm)
        in
        R.check b identical "%d domains: results differ from sequential"
          domains;
        R.check b
          (pool_questions <= seq_questions)
          "%d domains: %d questions > sequential %d" domains pool_questions
          seq_questions;
        R.check b (deaths = 0) "%d domains: %d worker death(s)" domains deaths;
        R.row b name ~requests ~wall_s:(cold_s +. warm_s)
          [
            ("domains", Json.Int domains);
            ("cold_s", Json.Float cold_s);
            ("warm_s", Json.Float warm_s);
            ("cold_speedup", Json.Float (seq_cold_s /. cold_s));
            ("warm_speedup", Json.Float (seq_warm_s /. warm_s));
            ("identical", Json.Bool identical);
            ("questions", Json.Int pool_questions);
            ("worker_deaths", Json.Int deaths);
          ]
      end)
    [ 1; 2; 4; 8 ];
  R.finish b

(* ------------------------------------------------------------------ *)
(* E29: the RQL front-end.  The cost-based planner asks measurably
   fewer Def. 3.9 questions than naive evaluation of the same queries;
   a plan-cache-warm re-serve skips parsing and planning entirely (zero
   new plan-table misses) and, with the shared definition memo, asks
   zero new genuine questions; every mode returns byte-identical
   answers.  Over the wire, a real [recdb serve] answers the committed
   golden request file exactly as the committed expected file says
   (regenerate it with [recdb serve-batch --no-stats
   test/golden/rql_requests.jsonl > test/golden/rql_expected.jsonl]
   after a deliberate wire-format change, and review the diff). *)

let golden_requests = "test/golden/rql_requests.jsonl"
let golden_expected = "test/golden/rql_expected.jsonl"

(* A missing file reads as empty: the checks below then say so. *)
let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | line -> go (if String.trim line = "" then acc else line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let golden_row b =
  let dir = R.scratch "rql-golden" in
  let requests = read_lines golden_requests in
  R.check b (requests <> []) "golden: no requests in %s" golden_requests;
  match
    Serve_child.start ~dir
      [ "--no-stats"; "--window"; "64"; "--per-conn-window"; "32" ]
  with
  | Error e -> R.violation b "golden: %s" e
  | Ok child ->
      let sent, wall_s =
        R.time (fun () -> Proc.send_and_collect ~port:child.port requests)
      in
      let clean = Serve_child.stop child in
      R.check b clean "golden: child did not drain cleanly on SIGTERM (log: %s)"
        child.log;
      (* the server may answer out of order across the pipeline; the
         expected file is sorted by id *)
      let observed =
        match sent with
        | Ok responses -> Proc.sort_by_id responses
        | Error e ->
            R.violation b "golden: workload send failed: %s" e;
            []
      in
      let rec diff i e o =
        match (e, o) with
        | [], [] -> ()
        | e :: es, o :: os ->
            R.check b (String.equal e o)
              "golden: line %d:\n  expected: %s\n  got:      %s" i e o;
            diff (i + 1) es os
        | e :: es, [] ->
            R.violation b "golden: line %d missing (expected %s)" i e;
            diff (i + 1) es []
        | [], o :: os ->
            R.violation b "golden: line %d unexpected: %s" i o;
            diff (i + 1) [] os
      in
      diff 1 (read_lines golden_expected) observed;
      if clean then Proc.rm_rf dir;
      R.row b "golden" ~requests:(List.length requests) ~wall_s
        [ ("responses", Json.Int (List.length observed)) ]

let rql ~smoke =
  let requests = if smoke then 80 else 120 in
  let b = R.create "rql" in
  let serve () =
    let engine = Engine.create ~shared:(Shared_memo.create ()) () in
    (engine, fun batch -> R.time (fun () -> Engine.handle_all engine batch))
  in
  let naive_engine, naive_serve = serve () in
  let planned_engine, planned_serve = serve () in
  let batch ?cutoff planner = build_rql_batch ?cutoff ~planner requests in
  let rn, naive_s = naive_serve (batch Request.Plan_naive) in
  let naive_questions = Engine.question_count naive_engine in
  let rp, planned_s = planned_serve (batch Request.Plan_cost) in
  let planned_questions = Engine.question_count planned_engine in
  let plan_stats () =
    match Engine.shared_stats planned_engine with
    | Some s -> s.Shared_memo.plans
    | None -> { Shared_memo.hits = 0; misses = 0 }
  in
  let cold = plan_stats () in
  let wn, warm_naive_s = naive_serve (batch ~cutoff:3 Request.Plan_naive) in
  let wp, warm_planned_s = planned_serve (batch ~cutoff:3 Request.Plan_cost) in
  let warm = plan_stats () in
  let warm_misses = warm.Shared_memo.misses - cold.Shared_memo.misses in
  let warm_new_questions =
    Engine.question_count planned_engine - planned_questions
  in
  let identical_cold = String.equal (fingerprint rn) (fingerprint rp) in
  let identical_warm = String.equal (fingerprint wn) (fingerprint wp) in
  (match
     List.filter
       (fun (r : Request.response) -> Result.is_error r.Request.result)
       (rn @ rp @ wn @ wp)
   with
  | [] -> ()
  | ({ Request.result = Error err; _ } :: _ as errors) ->
      R.violation b "%d error responses in an all-valid workload (first: %s)"
        (List.length errors)
        (Request.error_to_string err)
  | _ -> ());
  R.check b identical_cold "planned cold responses differ from naive";
  R.check b identical_warm "planned warm responses differ from naive";
  R.check b
    (planned_questions < naive_questions)
    "planner saved nothing: %d planned vs %d naive questions"
    planned_questions naive_questions;
  R.check b (warm_misses <= 0) "warm pass re-planned: %d new plan-table misses"
    warm_misses;
  R.check b (warm_new_questions <= 0) "warm pass asked %d new genuine questions"
    warm_new_questions;
  R.row b "planner" ~requests:(2 * requests) ~wall_s:(naive_s +. planned_s)
    [
      ("naive_questions", Json.Int naive_questions);
      ("planned_questions", Json.Int planned_questions);
      ( "question_ratio",
        Json.Float
          (if planned_questions = 0 then Float.infinity
           else float_of_int naive_questions /. float_of_int planned_questions)
      );
      ("identical", Json.Bool identical_cold);
    ];
  R.row b "warm_reserve" ~requests:(2 * requests)
    ~wall_s:(warm_naive_s +. warm_planned_s)
    [
      ("cold_plan_misses", Json.Int cold.Shared_memo.misses);
      ("cold_plan_hits", Json.Int cold.Shared_memo.hits);
      ("warm_plan_misses", Json.Int warm_misses);
      ("warm_plan_hits", Json.Int (warm.Shared_memo.hits - cold.Shared_memo.hits));
      ("warm_new_questions", Json.Int warm_new_questions);
      ("identical", Json.Bool identical_warm);
    ];
  golden_row b;
  R.finish b

(* ------------------------------------------------------------------ *)
(* E31: the closure-compiled hot path.  Two layers of evidence.

   Raw-evaluator hot runs time an interpreter loop against its
   compiled counterpart.  The >= 5x gate sits on the two
   interpretation-dominated workloads of the paper's own experiments —
   deep Eq-heavy tree quantification (the E17 representative-based
   evaluator) and bounded-domain enumeration (the E9/E17 naive
   baseline) — where the tree walk itself (AST re-matching, assoc-list
   environments, per-binding allocation) is the cost being removed.
   The RQL and QL rows are reported ungated: their hot loops are
   dominated by work identical in both modes (≅-probe memo lookups and
   Tupleset membership for RQL fixpoints, whole-set algebra for QL),
   so compilation only removes the thin control walk around it — the
   measured ratio is evidence of overhead removed, not a gate.

   The engine pairwise check is the correctness half: the same mixed
   batch (FO sentences and queries, class counts, QL programs, RQL
   fixpoints) served by a compile-off and a compile-on engine, fresh
   and memo-private, asserting per request that the response bytes
   (stats stripped) AND the Def. 3.9 ledger — oracle_calls, tb_calls,
   equiv_calls, cache_hits — are identical.  Compilation that changed
   either would be a wrong answer, not a speedup. *)

type hot_run = {
  h_name : string;
  h_gated : bool;  (* counts toward the >= 5x acceptance gate *)
  h_interp_s : float;  (* best of trials *)
  h_compiled_s : float;  (* best of trials, compile once outside *)
  h_identical : bool;  (* same outcome from both evaluators *)
}

(* Rank 4, triangles: each quantifier level iterates memoized
   [children] lists; the innermost body is a wide Eq/relation boolean
   so per-visit cost is interpretation, not oracle traffic. *)
let e31_fo_sentence =
  "forall x. exists y. forall z. exists w. \
   ((x = y || y = z || z = w || (x != w && R1(x, y))) && \
    (w = x || x != z || R1(z, w) || (y = w && x = z)) && \
    (y != z || x = w || R1(y, z) || w != x) && \
    (x = w || w != y || R1(x, z) || (z = y && y != x)))"

(* Bounded-domain sweep: three nested quantifiers over {0..cutoff-1},
   cutoff^3 visits of a wide boolean body. *)
let e31_qf_sentence =
  "forall x. exists y. forall z. \
   ((x = y || y = z || R1(x, y) || z != x) && \
    (y != z || R1(x, z) || x = z || z = y) && \
    (z = x || R1(y, z) || x != y || y = z))"

let e31_rql_text =
  "fix p(x, y) = R1(x, y) || exists z. (R1(x, z) && p(z, y)); \
   query {(x, y) | p(x, y)}"

let e31_ql_program = "Y1 <- E; Y2 <- Y1^; Y3 <- Y2!%; Y4 <- ~(Rel1 & Y3)"

let best_of trials f =
  let best = ref Float.infinity in
  for _ = 1 to trials do
    let _, s = R.time f in
    if s < !best then best := s
  done;
  !best

let hot_run ~name ~gated ~trials ~interp ~compiled ~equal =
  (* Warm both paths first: the instance memos (children lists, tree
     levels) fill on the first evaluation and are shared state — both
     timed loops must run against the same warm tables. *)
  let a = interp () and b = compiled () in
  let h_interp_s = best_of trials interp in
  let h_compiled_s = best_of trials compiled in
  { h_name = name; h_gated = gated; h_interp_s; h_compiled_s;
    h_identical = equal a b }

let fo_hot_run ~repeats ~trials =
  let t =
    match Engine.build_instance "triangles" with
    | Some t -> t
    | None -> failwith "triangles not registered"
  in
  let f = Rlogic.Parser.formula e31_fo_sentence in
  let interp () =
    let r = ref false in
    for _ = 1 to repeats do
      r := Hs.Fo_eval.eval_sentence t f
    done;
    !r
  in
  let body = Hs.Fo_compile.sentence t f in
  let compiled () =
    let r = ref false in
    for _ = 1 to repeats do
      r := body ()
    done;
    !r
  in
  hot_run ~name:"fo_deep" ~gated:true ~trials ~interp ~compiled
    ~equal:Bool.equal

let qf_hot_run ~repeats ~trials ~cutoff =
  let db =
    match Engine.build_instance "triangles" with
    | Some t -> Hs.Hsdb.db t
    | None -> failwith "triangles not registered"
  in
  let f = Rlogic.Parser.formula e31_qf_sentence in
  let interp () =
    let r = ref false in
    for _ = 1 to repeats do
      r := Rlogic.Qf_eval.eval_bounded db ~cutoff ~env:[] f
    done;
    !r
  in
  let cf = Rlogic.Qf_compile.compile_bounded db ~cutoff ~vars:[] f in
  let compiled () =
    let r = ref false in
    for _ = 1 to repeats do
      r := cf Prelude.Tuple.empty
    done;
    !r
  in
  hot_run ~name:"qf_bounded" ~gated:true ~trials ~interp ~compiled
    ~equal:Bool.equal

let rql_hot_run ~repeats ~trials =
  let t =
    match Engine.build_instance "paths3" with
    | Some t -> t
    | None -> failwith "paths3 not registered"
  in
  (* Naive mode: every fixpoint round re-tests the full path set
     through the definition body — the interpretation-heaviest RQL
     schedule, identical in both modes. *)
  let plan = Rql.Rql_plan.plan_of_text ~mode:Rql.Rql_plan.Naive e31_rql_text in
  let interp () =
    let r = ref (Rql.Rql_eval.Bool false) in
    for _ = 1 to repeats do
      r := Rql.Rql_eval.run ~cutoff:6 t plan
    done;
    !r
  in
  let pr = Rql.Rql_compile.prepare t plan in
  let compiled () =
    let r = ref (Rql.Rql_eval.Bool false) in
    for _ = 1 to repeats do
      r := Rql.Rql_compile.run ~cutoff:6 pr
    done;
    !r
  in
  (* Ungated: naive derived-atom probes are ≅-scans against warm memo
     tables — hashtable traffic identical in both modes dominates. *)
  hot_run ~name:"rql_fixpoint" ~gated:false ~trials ~interp ~compiled
    ~equal:(fun a b -> a = b)

let ql_hot_run ~repeats ~trials ~fuel =
  let t =
    match Engine.build_instance "triangles" with
    | Some t -> t
    | None -> failwith "triangles not registered"
  in
  let p = Ql.Ql_parser.program e31_ql_program in
  let interp () =
    let r = ref Ql.Ql_interp.Timeout in
    for _ = 1 to repeats do
      r := Ql.Ql_hs.run t ~fuel p
    done;
    !r
  in
  let cp = Ql.Ql_compile.compile ~algebra:(Ql.Ql_hs.algebra t) p in
  let compiled () =
    let r = ref Ql.Ql_interp.Timeout in
    for _ = 1 to repeats do
      r := Ql.Ql_compile.run cp ~fuel
    done;
    !r
  in
  let equal a b =
    match (a, b) with
    | Ql.Ql_interp.Halted u, Ql.Ql_interp.Halted v ->
        Array.length u = Array.length v
        && Array.for_all2 Ql.Ql_hs.equal_value u v
    | Ql.Ql_interp.Timeout, Ql.Ql_interp.Timeout -> true
    | Ql.Ql_interp.Ill_formed a, Ql.Ql_interp.Ill_formed b ->
        String.equal a b
    | _ -> false
  in
  (* Ungated: QL cost is Tupleset algebra — the identical set closures
     run in both modes, compilation only removes the control walk. *)
  hot_run ~name:"ql_program" ~gated:false ~trials ~interp ~compiled ~equal

let e31_ql_batch_programs =
  [
    "Y1 <- ~(Rel1 & E)";
    "Y1 <- E; Y2 <- Y1^; Y3 <- Y2!%";
    "Y1 <- Rel1; while |Y2| = 0 do { Y2 <- E^ }";
  ]

let build_compile_batch n =
  (* The mixed E24 batch, every seventh request replaced by an RQL
     fixpoint and every eleventh by a QL program, so all four compiled
     evaluators serve inside one pairwise-checked batch. *)
  let nprog = List.length e31_ql_batch_programs in
  let nrql = List.length rql_texts in
  List.map
    (fun (r : Request.t) ->
      let i = r.Request.id in
      let instance = List.nth batch_instances (i mod List.length batch_instances) in
      if i mod 11 = 5 then
        { r with
          Request.payload =
            Request.Program
              {
                instance;
                program = List.nth e31_ql_batch_programs (i / 11 mod nprog);
                fuel = 1000;
                cutoff = 4;
              } }
      else if i mod 7 = 3 then
        { r with
          Request.payload =
            Request.Rql
              {
                instance = List.nth rql_instances (i mod List.length rql_instances);
                text = List.nth rql_texts (i / 7 mod nrql);
                cutoff = 4;
                planner = Request.Plan_cost;
              } }
      else r)
    (build_batch n)

let compile ~smoke =
  let requests = if smoke then 150 else 200 in
  let min_speedup = 5.0 and trials = 3 in
  let b = R.create "compile" in
  List.iter
    (fun h ->
      let speedup =
        if h.h_compiled_s > 0. then h.h_interp_s /. h.h_compiled_s
        else Float.infinity
      in
      R.check b h.h_identical "%s: compiled outcome differs from interpreted"
        h.h_name;
      R.check b
        ((not h.h_gated) || speedup >= min_speedup)
        "%s: speedup %.2fx < %.1fx gate (%.4fs vs %.4fs)" h.h_name speedup
        min_speedup h.h_interp_s h.h_compiled_s;
      R.row b h.h_name ~requests:0 ~wall_s:(h.h_interp_s +. h.h_compiled_s)
        [
          ("gated", Json.Bool h.h_gated);
          ("min_speedup", Json.Float min_speedup);
          ("interpreted_s", Json.Float h.h_interp_s);
          ("compiled_s", Json.Float h.h_compiled_s);
          ("speedup", Json.Float speedup);
          ("identical", Json.Bool h.h_identical);
        ])
    [
      fo_hot_run ~repeats:2000 ~trials;
      qf_hot_run ~repeats:40 ~trials ~cutoff:12;
      rql_hot_run ~repeats:25 ~trials;
      ql_hot_run ~repeats:300 ~trials ~fuel:1000;
    ];
  (* Pairwise identity: fresh engines, no shared memo, same batch. *)
  let batch = build_compile_batch requests in
  let serve compile =
    let config = { Engine.default_config with Engine.compile } in
    R.time (fun () -> Engine.handle_all (Engine.create ~config ()) batch)
  in
  let interp_rs, interp_s = serve false in
  let compiled_rs, compiled_s = serve true in
  let ledger (r : Request.response) =
    ( r.Request.stats.Request.oracle_calls,
      r.Request.stats.Request.tb_calls,
      r.Request.stats.Request.equiv_calls,
      r.Request.stats.Request.cache_hits )
  in
  let byte_bad = ref 0 and ledger_bad = ref 0 in
  List.iter2
    (fun (a : Request.response) (c : Request.response) ->
      if not (String.equal (bytes a) (bytes c)) then begin
        incr byte_bad;
        if !byte_bad = 1 then
          R.violation b "request %d: compiled response bytes differ"
            a.Request.id
      end;
      if ledger a <> ledger c then begin
        incr ledger_bad;
        if !ledger_bad = 1 then
          let oa, ta, ea, ca = ledger a and oc, tc, ec, cc = ledger c in
          R.violation b
            "request %d: ledger differs — interpreted %d/%d/%d/%d vs \
             compiled %d/%d/%d/%d (oracle/tb/equiv/hits)"
            a.Request.id oa ta ea ca oc tc ec cc
      end)
    interp_rs compiled_rs;
  let checked = List.length interp_rs in
  R.check b (!byte_bad <= 1) "%d responses differ in bytes" !byte_bad;
  R.check b (!ledger_bad <= 1) "%d responses differ in ledger" !ledger_bad;
  R.check b (checked > 0) "no responses compared";
  R.row b "engine_batch" ~requests ~wall_s:(interp_s +. compiled_s)
    [
      ("interpreted_s", Json.Float interp_s);
      ("compiled_s", Json.Float compiled_s);
      ( "speedup",
        Json.Float
          (if compiled_s > 0. then interp_s /. compiled_s else Float.infinity)
      );
      ("checked", Json.Int checked);
      ("bytes_identical", Json.Bool (!byte_bad = 0));
      ("ledger_identical", Json.Bool (!ledger_bad = 0));
    ];
  R.finish b
