(* The in-process replay: the workload's stream served sequentially
   through the layers' public functions — Request.decode_line, the
   store journal, Engine.handle, Request.response_to_json +
   Json.to_string — on an engine with its own shared memo, as a
   one-domain server would.

   Untraced, it is the correctness reference: every response the
   servers send must equal the replay's bytes for the same key (ids and
   stats stripped), and its Def. 3.9 question count is what the servers'
   stats ledgers are checked against.  Traced, the same code records a
   span around each call; the per-layer numbers come from those spans. *)

(* The part of a response that must be byte-identical: drop the id
   (it is the connection's line number) and the trailing stats object
   (wall times and cache counts vary run to run). *)
let strip line =
  let n = String.length line in
  let body =
    match String.index_opt line ',' with
    | Some i when String.length line > 6 && String.sub line 0 6 = "{\"id\":" ->
        String.sub line i (n - i)
    | _ -> line
  in
  let marker = ",\"stats\":{" in
  let m = String.length marker in
  let rec find i =
    if i < 0 then None
    else if String.sub body i m = marker then Some i
    else find (i - 1)
  in
  match find (String.length body - m) with
  | Some i when String.length body >= 2 && String.sub body (String.length body - 2) 2 = "}}" ->
      String.sub body 0 i ^ "}"
  | _ -> body

type acc = {
  mutable requests : int;
  mutable decode_s : float;
  mutable encode_s : float;
  mutable journal_s : float;
  mutable journaled : int;
  mutable resp_bytes : int;
  mutable hit_s : float;
  mutable hits : int;
  mutable miss_s : float;
  mutable misses : int;
  mutable mode_s : float;
  mutable moded : int;
  mutable nonexact : int;
  mutable root_s : float;
  mutable root_self_s : float;
  mutable rql_plan_s : float;
  mutable rql_plans : int;
  mutable snapshot_s : float;
  mutable snapshots : int;
  mutable snapshot_entries : int;
  mutable snapshot_bytes : int;
  inproc : float list ref;  (* decode + handle + encode, per request *)
}

let new_acc () =
  {
    requests = 0; decode_s = 0.; encode_s = 0.; journal_s = 0.; journaled = 0;
    resp_bytes = 0; hit_s = 0.; hits = 0; miss_s = 0.; misses = 0; mode_s = 0.;
    moded = 0; nonexact = 0; root_s = 0.; root_self_s = 0.; rql_plan_s = 0.;
    rql_plans = 0; snapshot_s = 0.; snapshots = 0; snapshot_entries = 0;
    snapshot_bytes = 0; inproc = ref [];
  }

type t = {
  spans : Spans.t;
  engine : Engine.t;
  memo : Shared_memo.t;
  store : Store.t option;
  expected : string array;  (* per key; "" until first served *)
  mutable rid : int;
  mutable last_snapshot : float;
  snapshot_interval : float;
  acc : acc;
}

let create ?store ?(snapshot_interval = 0.0) ~spans ~config ~memo ~nkeys () =
  {
    spans;
    engine = Engine.create ~config ~shared:memo ();
    memo;
    store;
    expected = Array.make nkeys "";
    rid = 0;
    last_snapshot = Clock.now ();
    snapshot_interval;
    acc = new_acc ();
  }

let result_hits memo = (Shared_memo.stats memo).Shared_memo.results.Shared_memo.hits

(* Serve one key.  [measure] adds the request to the per-layer sums.
   Each layer call is timed once; the same timestamps feed the sums and,
   when tracing, the spans. *)
let serve t ~measure (keys : Gen.key array) ki =
  let key = keys.(ki) in
  let sp = t.spans in
  t.rid <- t.rid + 1;
  let rid = t.rid in
  let line = Gen.line_of key ~id:0 in
  let line = String.sub line 0 (String.length line - 1) in
  let hits0 = result_hits t.memo in
  let now = Clock.now in
  let t_root = now () in
  let root = Spans.enter sp ~rid ~parent:(-1) Spans.request t_root in
  let span name a b = Spans.add sp ~rid ~parent:root name a b in
  let t0 = now () in
  let decoded = Request.decode_line ~default_id:0 line in
  let t1 = now () in
  span Spans.decode t0 t1;
  let resp, handle_s, journal_s =
    match decoded with
    | `Request req ->
        let seq, ja_s =
          match t.store with
          | None -> (0, 0.0)
          | Some store ->
              let a = now () in
              let seq = Store.journal_admit store ~line:(Json.to_string (Request.to_json req)) in
              let b = now () in
              span Spans.journal_admit a b;
              (seq, b -. a)
        in
        let a = now () in
        let resp = Engine.handle t.engine req in
        let b = now () in
        span Spans.handle a b;
        let jc_s =
          match t.store with
          | None -> 0.0
          | Some store ->
              let c = now () in
              Store.journal_complete store seq;
              let d = now () in
              span Spans.journal_complete c d;
              d -. c
        in
        (resp, b -. a, ja_s +. jc_s)
    | `Error resp -> (resp, 0.0, 0.0)
    | `Empty -> failwith "empty request line"
  in
  let a = now () in
  let bytes = Json.to_string (Request.response_to_json ~stats:true resp) in
  let b = now () in
  span Spans.encode a b;
  let t_end = now () in
  Spans.leave sp root t_end;
  if t.expected.(ki) = "" then t.expected.(ki) <- strip bytes;
  if measure then begin
    let acc = t.acc in
    acc.requests <- acc.requests + 1;
    acc.decode_s <- acc.decode_s +. (t1 -. t0);
    acc.encode_s <- acc.encode_s +. (b -. a);
    acc.resp_bytes <- acc.resp_bytes + String.length bytes + 1;
    if t.store <> None && journal_s > 0.0 then begin
      acc.journal_s <- acc.journal_s +. journal_s;
      acc.journaled <- acc.journaled + 1
    end;
    acc.inproc := (t1 -. t0 +. handle_s +. (b -. a)) :: !(acc.inproc);
    (match decoded with
    | `Request _ ->
        if result_hits t.memo > hits0 then begin
          acc.hit_s <- acc.hit_s +. handle_s;
          acc.hits <- acc.hits + 1
        end
        else begin
          acc.miss_s <- acc.miss_s +. handle_s;
          acc.misses <- acc.misses + 1
        end;
        if key.Gen.moded then begin
          acc.mode_s <- acc.mode_s +. handle_s;
          acc.moded <- acc.moded + 1;
          if resp.Request.cert <> Request.Cert_exact then acc.nonexact <- acc.nonexact + 1
        end
    | _ -> ());
    (* the root's self time: what no layer span covers *)
    let total = t_end -. t_root in
    acc.root_s <- acc.root_s +. total;
    acc.root_self_s <-
      acc.root_self_s +. (total -. (t1 -. t0) -. handle_s -. journal_s -. (b -. a))
  end;
  (* Outside the request's span: the RQL planner on the key's text (a
     fresh text's parse + normalize + compile), and the write-behind
     snapshot the server's flusher would take on its interval. *)
  (match key.Gen.rql_text with
  | Some text when measure && sp.Spans.enabled ->
      let a = Clock.now () in
      (try ignore (Rql.Rql_plan.plan_of_text ~mode:Rql.Rql_plan.Planned text) with _ -> ());
      let b = Clock.now () in
      Spans.add sp ~rid ~parent:(-1) Spans.rql_plan a b;
      t.acc.rql_plan_s <- t.acc.rql_plan_s +. (b -. a);
      t.acc.rql_plans <- t.acc.rql_plans + 1
  | _ -> ());
  match t.store with
  | Some store when t.snapshot_interval > 0.0 && Clock.now () -. t.last_snapshot >= t.snapshot_interval ->
      let a = Clock.now () in
      let r = Store.snapshot_now store in
      let b = Clock.now () in
      Spans.add sp ~rid ~parent:(-1) Spans.snapshot a b;
      t.last_snapshot <- b;
      if measure then begin
        t.acc.snapshot_s <- t.acc.snapshot_s +. (b -. a);
        t.acc.snapshots <- t.acc.snapshots + 1;
        t.acc.snapshot_entries <- t.acc.snapshot_entries + r.Store.entries_written;
        t.acc.snapshot_bytes <- t.acc.snapshot_bytes + r.Store.bytes_written
      end
  | _ -> ()
