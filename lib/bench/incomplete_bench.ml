(* E33: incompleteness-aware answering.  Four claims, each a row:

   - subset: on open-world instances (the {!Incomplete.Decl.demo}
     declarations), per request, certain ⊆ exact ⊆ possible — Bool
     answers by implication, Rel answers by member containment — and
     every certificate kind is legal for its mode.
   - closed_world: on instances whose relations are all total (no
     declaration, or an explicit all-total one), the three modes serve
     byte-identical responses with no cert field: requests that never
     touch an open relation certify exact for free.
   - approximate: approximate answers converge to the certain answer
     (byte-identically) as the consult budget grows, every
     [budget_spent] stays within its budget, and an untripped
     approximate response already equals the certain one.
   - overhead: an engine with declarations configured serves an
     exact-mode workload with the identical Def. 3.9 question ledger
     and identical bytes as a plain engine — certificates are computed
     structurally, never by asking oracles. *)

module R = Bench_row

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

let parse_decl name spec =
  match Incomplete.Decl.parse spec with
  | Ok d -> (name, d)
  | Error msg -> failwith (Printf.sprintf "decl %s: %s" name msg)

let demo_decls () =
  List.map (fun (name, spec) -> parse_decl name spec) Incomplete.Decl.demo

(* The open-world payload pool: every demo instance, every op kind the
   incomplete evaluator supports (sentences, FO queries, RQL with and
   without fixpoints), plus one colored sentence over the total colour
   relation R1 — the exact-for-free probe. *)
let open_payloads =
  let s inst sentence = Request.Sentence { instance = inst; sentence } in
  let q inst query = Request.Query { instance = inst; query; cutoff = 3 } in
  let rq inst text =
    Request.Rql { instance = inst; text; cutoff = 3; planner = Request.Plan_cost }
  in
  [
    s "rado" "exists x. exists y. R1(x, y)";
    s "rado" "forall x. exists y. R1(x, y)";
    q "rado" "{(x, y) | R1(x, y)}";
    q "rado" "{(x) | exists y. R1(x, y)}";
    rq "rado" "query {(x, y) | R1(x, y)} cutoff 3";
    s "mod3" "exists x. exists y. R1(x, y)";
    s "mod3" "forall x. exists y. R1(x, y)";
    q "mod3" "{(x, y) | R1(x, y)}";
    rq "mod3"
      "fix p(x, y) = R1(x, y) || exists z. (R1(x, z) && p(z, y)); query \
       {(x, y) | p(x, y)} cutoff 3";
    s "unary012" "exists x. R1(x)";
    s "unary012" "forall x. R1(x)";
    q "unary012" "{(x) | R1(x)}";
    rq "unary012" "query {(x) | R1(x)} cutoff 3";
    s "colored" "exists x. R1(x)";
    s "colored" "exists x. exists y. R2(x, y)";
    q "colored" "{(x, y) | R2(x, y)}";
    q "colored" "{(x) | exists y. R2(x, y)}";
  ]

let closed_payloads =
  let s inst sentence = Request.Sentence { instance = inst; sentence } in
  let q inst query = Request.Query { instance = inst; query; cutoff = 3 } in
  [
    s "triangles" "exists x. exists y. R1(x, y)";
    s "triangles" "forall x. exists y. R1(x, y)";
    q "triangles" "{(x, y) | R1(x, y)}";
    s "mod2" "exists x. exists y. R1(x, y)";
    q "mod2" "{(x) | exists y. R1(x, y)}";
  ]

let cycle pool n = List.init n (fun i -> List.nth pool (i mod List.length pool))

let tuples_subset small big =
  List.for_all (fun t -> List.exists (Prelude.Tuple.equal t) big) small

(* ------------------------------------------------------------------ *)
(* Row 1: certain ⊆ exact ⊆ possible                                   *)

let subset_row b ~requests =
  let engine =
    Engine.create
      ~config:{ Engine.default_config with decls = demo_decls () }
      ()
  in
  let payloads = cycle open_payloads requests in
  let next_id = ref 0 in
  let serve mode payload =
    incr next_id;
    Engine.handle engine (Request.make ?mode ~id:!next_id payload)
  in
  let certain_lower = ref 0 and exact_free = ref 0 in
  let possible_upper = ref 0 in
  let violate fmt = R.violation b fmt in
  let check i payload =
    let rc = serve (Some Request.M_certain) payload in
    let re = serve None payload in
    let rp = serve (Some Request.M_possible) payload in
    (match rc.Request.cert with
    | Request.Cert_exact -> incr exact_free
    | Request.Cert_certain_lower -> incr certain_lower
    | _ -> violate "subset: request %d: illegal certificate in certain mode" i);
    (match rp.Request.cert with
    | Request.Cert_exact | Request.Cert_possible_upper -> incr possible_upper
    | _ -> violate "subset: request %d: illegal certificate in possible mode" i);
    if re.Request.cert <> Request.Cert_exact then
      violate "subset: request %d: exact mode served a non-exact certificate" i;
    match (rc.Request.result, re.Request.result, rp.Request.result) with
    | Ok (Request.Bool c), Ok (Request.Bool e), Ok (Request.Bool p) ->
        if (c && not e) || (e && not p) then
          violate "subset: request %d: certain ⇒ exact ⇒ possible fails" i
    | ( Ok (Request.Rel { members = mc; _ }),
        Ok (Request.Rel { members = me; _ }),
        Ok (Request.Rel { members = mp; _ }) ) ->
        if not (tuples_subset mc me && tuples_subset me mp) then
          violate "subset: request %d: member containment fails" i
    | Ok _, Ok _, Ok _ ->
        violate "subset: request %d: modes disagree on outcome shape" i
    | _ -> violate "subset: request %d: a mode returned an error" i
  in
  let (), wall = R.time (fun () -> List.iteri check payloads) in
  R.row b "subset" ~requests ~wall_s:wall
    [
      ("certain_lower_certs", Json.Int !certain_lower);
      ("exact_certs_in_certain_mode", Json.Int !exact_free);
      ("possible_mode_certs", Json.Int !possible_upper);
    ]

(* ------------------------------------------------------------------ *)
(* Row 2: closed world — all three modes byte-identical                *)

let closed_world_row b ~requests =
  (* triangles gets an explicit all-total declaration, mod2 none at
     all: both paths must downgrade every mode to exact. *)
  let decls = demo_decls () @ [ parse_decl "triangles" "R1 total" ] in
  let engine = Engine.create ~config:{ Engine.default_config with decls } () in
  let payloads = cycle closed_payloads requests in
  let next_id = ref 0 in
  let serve mode payload =
    incr next_id;
    Engine.handle engine (Request.make ?mode ~id:!next_id payload)
  in
  let violate fmt = R.violation b fmt in
  let check i payload =
    let re = serve None payload in
    let rc = serve (Some Request.M_certain) payload in
    let rp = serve (Some Request.M_possible) payload in
    let ra =
      serve
        (Some (Request.M_approximate { budget = Request.default_budget }))
        payload
    in
    let reference = Engine_bench.bytes { re with Request.id = 0 } in
    List.iter
      (fun (mode, r) ->
        if Engine_bench.bytes { r with Request.id = 0 } <> reference then
          violate "closed_world: request %d: %s mode differs from exact" i mode;
        if r.Request.cert <> Request.Cert_exact then
          violate "closed_world: request %d: %s mode attached a certificate" i
            mode)
      [ ("certain", rc); ("possible", rp); ("approximate", ra) ]
  in
  let (), wall = R.time (fun () -> List.iteri check payloads) in
  R.row b "closed_world" ~requests ~wall_s:wall
    [ ("modes_compared", Json.Int 4) ]

(* ------------------------------------------------------------------ *)
(* Row 3: approximate converges to certain as the budget grows         *)

let approximate_row b =
  let engine =
    Engine.create
      ~config:{ Engine.default_config with decls = demo_decls () }
      ()
  in
  let next_id = ref 0 in
  let serve mode payload =
    incr next_id;
    Engine.handle engine (Request.make ?mode ~id:!next_id payload)
  in
  let violate fmt = R.violation b fmt in
  let reference =
    List.map
      (fun p -> Engine_bench.bytes { (serve (Some Request.M_certain) p) with Request.id = 0 })
      open_payloads
  in
  let total = List.length open_payloads in
  let sweep = ref [] in
  let budget = ref 1 in
  let matched = ref 0 in
  let cap = 10_000_000 in
  let run_budget quota =
    let n = ref 0 in
    List.iteri
      (fun i p ->
        let r = serve (Some (Request.M_approximate { budget = quota })) p in
        let bytes = Engine_bench.bytes { r with Request.id = 0 } in
        let ref_bytes = List.nth reference i in
        (match r.Request.cert with
        | Request.Cert_approximate { budget_spent; _ } ->
            if budget_spent > quota then
              violate
                "approximate: request %d: budget_spent %d exceeds budget %d" i
                budget_spent quota
        | _ ->
            (* did not trip: the answer must already be the certain one *)
            if bytes <> ref_bytes then
              violate
                "approximate: request %d: untripped at budget %d but differs \
                 from certain"
                i quota);
        if bytes = ref_bytes then incr n)
      open_payloads;
    !n
  in
  let (), wall =
    R.time (fun () ->
        matched := run_budget !budget;
        sweep := (!budget, !matched) :: !sweep;
        while !matched < total && !budget < cap do
          budget := !budget * 8;
          matched := run_budget !budget;
          sweep := (!budget, !matched) :: !sweep
        done)
  in
  if !matched < total then
    violate "approximate: %d/%d requests still differ from certain at budget %d"
      (total - !matched) total !budget;
  R.row b "approximate" ~requests:total ~wall_s:wall
    [
      ("converged_at_budget", Json.Int !budget);
      ( "sweep",
        Json.List
          (List.rev_map
             (fun (q, n) ->
               Json.Obj
                 [ ("budget", Json.Int q); ("matching_certain", Json.Int n) ])
             !sweep) );
    ]

(* ------------------------------------------------------------------ *)
(* Row 4: the certificate machinery costs no oracle questions and no
   time.  An engine with declarations configured serves an exact-mode
   workload with the plain engine's bytes and question ledger, and the
   median over rounds of its time ratio to the plain engine stays
   under 1.05.  The size is fixed, whatever --smoke says, so each
   engine's share of a round lasts about 200 ms and a real 5% overhead
   is larger than the noise. *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let overhead_row b =
  let requests = 20_000 and rounds = 5 in
  let payloads = cycle open_payloads requests in
  let serve_all engine =
    List.map
      (fun p -> Engine_bench.bytes (Engine.handle engine (Request.make ~id:0 p)))
      payloads
  in
  let plain = Engine.create () in
  let declared =
    Engine.create
      ~config:{ Engine.default_config with decls = demo_decls () }
      ()
  in
  (* the untimed first passes pay the oracle evaluation; the timed
     rounds measure the warm per-request serving path, where a
     certificate scan would show up if exact mode ever ran one *)
  let plain_bytes = serve_all plain in
  let declared_bytes = serve_all declared in
  R.check b
    (plain_bytes = declared_bytes)
    "overhead: declared engine served different bytes in exact mode";
  (* one round serves every payload on both engines back to back,
     alternating which goes first, and sums each engine's time: host
     speed drift lands on both sides of every pair instead of on whole
     passes *)
  let round () =
    let plain_s = ref 0. and declared_s = ref 0. in
    let serve engine acc payload =
      let t0 = Unix.gettimeofday () in
      ignore (Engine_bench.bytes (Engine.handle engine (Request.make ~id:0 payload)));
      acc := !acc +. (Unix.gettimeofday () -. t0)
    in
    List.iteri
      (fun i p ->
        if i mod 2 = 0 then begin
          serve plain plain_s p;
          serve declared declared_s p
        end
        else begin
          serve declared declared_s p;
          serve plain plain_s p
        end)
      payloads;
    (!plain_s, !declared_s)
  in
  let timings = List.init rounds (fun _ -> round ()) in
  let plain_s = median (List.map fst timings) in
  let declared_s = median (List.map snd timings) in
  let frac = median (List.map (fun (p, d) -> d /. p) timings) -. 1. in
  let pq = Engine.question_count plain in
  let dq = Engine.question_count declared in
  R.check b (pq = dq) "overhead: question ledgers differ (plain %d, declared %d)"
    pq dq;
  R.check b (frac < 0.05) "overhead: median wall overhead %.1f%% >= 5%%"
    (100. *. frac);
  R.row b "overhead" ~requests
    ~wall_s:(List.fold_left (fun acc (p, d) -> acc +. p +. d) 0. timings)
    [
      ("rounds", Json.Int rounds);
      ("plain_s", Json.Float plain_s);
      ("declared_s", Json.Float declared_s);
      ("overhead_frac", Json.Float frac);
      ("questions", Json.Int pq);
    ]

(* ------------------------------------------------------------------ *)
(* Row 5: the same claims over a real socket — the mode field and the
   RQL 'mode' prefix, the typed certificates, no cert field on an exact
   response, closed-world identity, an unknown top-level field (a
   "mod" typo) warned and counted on /metrics, and a server-wide
   default mode for modeless requests. *)

let wire b =
  let t0 = Unix.gettimeofday () in
  let decls = demo_decls () in
  let violate fmt = R.violation b fmt in
  let sentence inst mode_fields id =
    Printf.sprintf
      {|{"id":%d,"op":"sentence","instance":"%s","sentence":"exists x. exists y. R1(x, y)"%s}|}
      id inst mode_fields
  in
  let exchange server lines =
    match Proc.send_and_collect ~port:(Server.port server) lines with
    | Error e ->
        violate "wire: exchange failed: %s" e;
        []
    | Ok raw ->
        List.filter_map
          (fun l -> Result.to_option (Json.parse l))
          (Proc.sort_by_id raw)
  in
  let drain name server =
    match Server.drain ~timeout_s:30.0 server with
    | `Clean -> ()
    | `Forced n -> violate "wire: %s drain aborted %d connection(s)" name n
  in
  let cert_kind j =
    match Option.bind (Json.member "cert" j) (Json.member "kind") with
    | Some (Json.String k) -> Some k
    | _ -> None
  in
  let ok_bool j =
    match Option.bind (Json.member "ok" j) (Json.member "value") with
    | Some (Json.Bool v) -> Some v
    | _ -> None
  in
  let expect_cert name j kind =
    if cert_kind j <> Some kind then violate "wire: %s: expected a %s cert" name kind
  in
  (* server 1: demo declarations, default mode exact *)
  let server =
    Server.start ~window:64 ~per_conn_window:16 ~metrics_port:0
      ~engine_config:{ Engine.default_config with decls }
      ()
  in
  let lines =
    [
      sentence "rado" {|,"mode":"certain"|} 1;
      sentence "rado" "" 2;
      sentence "rado" {|,"mode":"possible"|} 3;
      sentence "rado" {|,"mode":"approximate","budget":1|} 4;
      sentence "triangles" {|,"mode":"certain"|} 5;
      sentence "triangles" "" 6;
      (* "mod" is a typo'd "mode": warn-and-count, served exact *)
      sentence "triangles" {|,"mod":"possible"|} 7;
      {|{"id":8,"op":"rql","instance":"mod3","text":"mode possible query {(x, y) | R1(x, y)} cutoff 3","cutoff":3}|};
    ]
  in
  (match exchange server lines with
  | [ r1; r2; r3; r4; r5; r6; r7; r8 ] ->
      (* open world: certain false ⊆ exact true ⊆ possible true *)
      if ok_bool r1 <> Some false then
        violate "wire: rado certain: expected false (unknown served as lower)";
      if ok_bool r2 <> Some true then violate "wire: rado exact: expected true";
      if ok_bool r3 <> Some true then
        violate "wire: rado possible: expected true (unknown served as upper)";
      expect_cert "rado certain" r1 "certain_lower_bound";
      if cert_kind r2 <> None then
        violate "wire: rado exact: response must carry no cert field";
      expect_cert "rado possible" r3 "possible_upper_bound";
      (match Option.bind (Json.member "cert" r4) (Json.member "budget_spent") with
      | Some (Json.Int n) when cert_kind r4 = Some "approximate" ->
          if n > 1 then violate "wire: rado approximate: budget_spent exceeds budget 1"
      | _ -> violate "wire: rado approximate at budget 1: expected to trip");
      (* closed world: every mode = exact bytes, no certs *)
      List.iter
        (fun (name, r) ->
          if ok_bool r <> ok_bool r6 then
            violate "wire: triangles %s: differs from exact" name;
          if cert_kind r <> None then
            violate "wire: triangles %s: unexpected cert" name)
        [ ("certain", r5); ("exact", r6); ("typo'd-mode", r7) ];
      (* RQL text prefix: mode travels in the query text *)
      expect_cert "rql 'mode possible' prefix" r8 "possible_upper_bound"
  | rs -> violate "wire: expected 8 responses, got %d" (List.length rs));
  (* the typo'd field must be scrapeable *)
  (match Server.metrics_port server with
  | None -> violate "wire: no metrics listener came up"
  | Some port -> (
      match Expo_server.get ~port ~path:"/metrics" () with
      | Error e -> violate "wire: /metrics scrape failed: %s" e
      | Ok body ->
          let counter_at_least name n =
            List.exists
              (fun l ->
                match String.index_opt l ' ' with
                | Some i when String.sub l 0 i = name -> (
                    match
                      int_of_string_opt
                        (String.trim
                           (String.sub l (i + 1) (String.length l - i - 1)))
                    with
                    | Some v -> v >= n
                    | None -> false)
                | _ -> false)
              (String.split_on_char '\n' body)
          in
          List.iter
            (fun name ->
              if not (counter_at_least name 1) then
                violate "wire: metrics: %s did not count" name)
            [ "server_frames_unknown_field_total"; "engine_mode_certain_total" ]));
  drain "server 1" server;
  (* server 2: a default mode of certain applies to modeless requests *)
  let server2 =
    Server.start ~window:64 ~per_conn_window:16
      ~engine_config:
        { Engine.default_config with decls; default_mode = Request.M_certain }
      ()
  in
  (match exchange server2 [ sentence "rado" "" 1 ] with
  | [ r ] ->
      if ok_bool r <> Some false then
        violate "wire: default-mode certain: expected false";
      expect_cert "default-mode certain" r "certain_lower_bound"
  | rs -> violate "wire: default-mode: expected 1 response, got %d" (List.length rs));
  drain "server 2" server2;
  R.row b "wire" ~requests:(List.length lines + 1)
    ~wall_s:(Unix.gettimeofday () -. t0)
    []

(* ------------------------------------------------------------------ *)

let run ~smoke =
  let requests = if smoke then 60 else 120 in
  let b = R.create "incomplete" in
  subset_row b ~requests;
  closed_world_row b ~requests;
  approximate_row b;
  overhead_row b;
  wire b;
  R.finish b
