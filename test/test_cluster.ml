(* lib/cluster: the consistent-hash ring (QCheck-tested spread and
   stability), the question-ledger merge, the stats wire op at the
   serving door, and the router's survival of abruptly dying shards
   (the SIGPIPE/kill -9 regression: a dead shard is a typed error,
   never a dead router). *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Ring: unit                                                          *)

let test_fnv_vectors () =
  (* the standard FNV-1a 64 test vectors — the hash must be exactly
     this function on every process, or a rebuilt router would send
     instances to shards that never memoized them *)
  check Alcotest.int64 "offset basis" 0xcbf29ce484222325L (Ring.fnv1a64 "");
  check Alcotest.int64 "fnv1a64 \"a\"" 0xaf63dc4c8601ec8cL (Ring.fnv1a64 "a");
  check Alcotest.int64 "fnv1a64 \"foobar\"" 0x85944171f73967e8L
    (Ring.fnv1a64 "foobar")

let test_ring_basics () =
  let r = Ring.create [ "a"; "b"; "c" ] in
  check Alcotest.(list string) "nodes in insertion order" [ "a"; "b"; "c" ]
    (Ring.nodes r);
  let owner = Ring.node r "i:pods" in
  check Alcotest.bool "owner is a member" true
    (List.mem owner (Ring.nodes r));
  check Alcotest.string "node is deterministic" owner (Ring.node r "i:pods");
  let succ = Ring.successors r "i:pods" in
  check Alcotest.string "successors start at the owner" owner (List.hd succ);
  check Alcotest.(list string) "successors cover every node once"
    (List.sort compare [ "a"; "b"; "c" ])
    (List.sort compare succ);
  (match Ring.create [ "a"; "a" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate nodes must be rejected");
  match Ring.create [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty ring must be rejected"

(* ------------------------------------------------------------------ *)
(* Ring: QCheck properties                                             *)

let keys_for m = List.init m (fun i -> Printf.sprintf "i:inst-%d" i)

let qcheck_spread =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:40
       ~name:"every node's share is within 2x of fair (128 vnodes)"
       ~print:Print.(pair int int)
       Gen.(pair (int_range 2 8) (int_range 500 1500))
       (fun (n, m) ->
         let names = List.init n (Printf.sprintf "shard-%d") in
         let r = Ring.create names in
         let counts = Hashtbl.create n in
         List.iter
           (fun k ->
             let o = Ring.node r k in
             Hashtbl.replace counts o
               (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)))
           (keys_for m);
         let fair = float_of_int m /. float_of_int n in
         List.for_all
           (fun name ->
             let c = Option.value ~default:0 (Hashtbl.find_opt counts name) in
             float_of_int c <= 2.0 *. fair)
           names))

let qcheck_remove_stability =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:40
       ~name:
         "removing one node remaps only its own keys (and about 1/N of \
          the population)"
       ~print:Print.(triple int int int)
       Gen.(triple (int_range 2 8) (int_range 400 1200) (int_range 0 7))
       (fun (n, m, victim_ix) ->
         let names = List.init n (Printf.sprintf "shard-%d") in
         let victim = List.nth names (victim_ix mod n) in
         let r = Ring.create names in
         let r' = Ring.remove r victim in
         let keys = keys_for m in
         let moved =
           List.fold_left
             (fun moved k ->
               let before = Ring.node r k and after = Ring.node r' k in
               if String.equal before after then moved
               else if String.equal before victim then moved + 1
               else
                 QCheck2.Test.fail_reportf
                   "key %s moved %s -> %s though %s was removed" k before
                   after victim)
             0 keys
         in
         (* everything the victim owned moved somewhere... *)
         let owned_by_victim =
           List.length
             (List.filter (fun k -> String.equal (Ring.node r k) victim) keys)
         in
         moved = owned_by_victim
         (* ...and with n >= 2 that is well under half the population
            (~1/n in expectation; 2x fair share is the spread bound) *)
         && float_of_int moved
            <= 2.0 *. (float_of_int m /. float_of_int n)))

(* ------------------------------------------------------------------ *)
(* Ledger merge                                                        *)

let test_ledger_merge () =
  let a =
    Request.ledger ~node:"s1" ~raw:3 ~tb:2 ~equiv:1 ~cache_hits:10 ~served:5
      ()
  in
  let b =
    Request.ledger ~node:"s2" ~raw:1 ~tb:0 ~equiv:4 ~cache_hits:2
      ~hedges_fired:1 ~sheds:3 ()
  in
  let s = Ledger_merge.sum ~node:"cluster" [ a; b ] in
  check Alcotest.string "node label" "cluster" s.Request.l_node;
  check Alcotest.int "raw" 4 s.Request.l_raw;
  check Alcotest.int "tb" 2 s.Request.l_tb;
  check Alcotest.int "equiv" 5 s.Request.l_equiv;
  check Alcotest.int "questions = raw + tb + equiv" 11 s.Request.l_questions;
  check Alcotest.int "cache hits" 12 s.Request.l_cache_hits;
  check Alcotest.int "served" 5 s.Request.l_served;
  check Alcotest.int "hedges" 1 s.Request.l_hedges_fired;
  check Alcotest.int "sheds" 3 s.Request.l_sheds;
  (* the identity *)
  let z = Ledger_merge.sum ~node:"cluster" [] in
  check Alcotest.int "empty sum is zero" 0 z.Request.l_questions;
  (* wire round-trip, as a shard reports it *)
  let line =
    Json.to_string
      (Request.response_to_json ~stats:false
         {
           Request.id = 0;
           result = Ok (Request.Ledger_report { cluster = a; shards = [] });
           cert = Request.Cert_exact;
           stats = Request.zero_stats;
         })
  in
  match Ledger_merge.of_response_line line with
  | None -> Alcotest.fail "stats response line did not parse as a ledger"
  | Some l ->
      check Alcotest.string "round-trip node" "s1" l.Request.l_node;
      check Alcotest.int "round-trip questions" 6 l.Request.l_questions;
      check Alcotest.int "round-trip hits" 10 l.Request.l_cache_hits

(* ------------------------------------------------------------------ *)
(* The stats op at the serving door                                    *)

let test_stats_op_at_server () =
  let server = Server.start ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> ignore (Server.drain ~timeout_s:30.0 server))
    (fun () ->
      let port = Server.port server in
      let ask () =
        match
          Proc.send_and_collect ~port [ {|{"id":1,"op":"stats"}|} ]
        with
        | Ok [ line ] -> (
            match Ledger_merge.of_response_line line with
            | Some l -> l
            | None -> Alcotest.fail ("not a ledger: " ^ line))
        | Ok ls ->
            Alcotest.fail
              (Printf.sprintf "%d response lines to one stats op"
                 (List.length ls))
        | Error e -> Alcotest.fail e
      in
      let fresh = ask () in
      check Alcotest.string "node is host:port"
        (Printf.sprintf "127.0.0.1:%d" port)
        fresh.Request.l_node;
      check Alcotest.int "a fresh server has asked nothing" 0
        fresh.Request.l_questions;
      (* a stats op is answered at the door: it is served but asks
         zero questions itself *)
      check Alcotest.bool "stats op is counted as served" true
        (fresh.Request.l_served >= 1);
      (* real work moves the ledger; stats still doesn't.  A sentence,
         not a classes count: classes is a pure combinatorial
         enumeration that asks zero oracle questions *)
      (match
         Proc.send_and_collect ~port
           [
             {|{"id":2,"op":"sentence","instance":"triangles",|}
             ^ {|"sentence":"exists x. exists y. R1(x, y)"}|};
           ]
       with
      | Ok [ _ ] -> ()
      | Ok _ | Error _ -> Alcotest.fail "sentence op failed");
      let after = ask () in
      check Alcotest.bool "questions grew with real work" true
        (after.Request.l_questions > 0);
      check Alcotest.int "ledger invariant"
        (after.Request.l_raw + after.Request.l_tb + after.Request.l_equiv)
        after.Request.l_questions;
      let again = ask () in
      check Alcotest.int "stats itself asks zero questions"
        after.Request.l_questions again.Request.l_questions)

(* ------------------------------------------------------------------ *)
(* Router: byte passthrough over a live shard                          *)

(* One connection, raw bytes (so the last frame may lack its newline),
   half-close, every response line until EOF. *)
let exchange_raw ~port bytes =
  match Proc.connect ~port () with
  | Error e -> Alcotest.fail e
  | Ok fd ->
      let b = Bytes.of_string bytes in
      let n = ref 0 in
      while !n < Bytes.length b do
        n := !n + Unix.write fd b !n (Bytes.length b - !n)
      done;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let reader = Frame.reader fd in
      let rec collect acc =
        match Frame.read reader with
        | Frame.Line l -> collect (l :: acc)
        | Frame.Oversized _ | Frame.Truncated _ -> collect acc
        | Frame.Eof -> List.rev acc
      in
      let lines = collect [] in
      Unix.close fd;
      lines

let test_router_passthrough () =
  let max_line = 256 in
  let shard = Server.start ~domains:1 ~stats:false ~max_line () in
  let router =
    Router.start ~stats:false ~max_line
      ~shards:[ ("127.0.0.1", Server.port shard) ]
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Router.drain ~timeout_s:30.0 router);
      ignore (Server.drain ~timeout_s:30.0 shard))
    (fun () ->
      (* well-formed requests, then every kind of bad input a client
         can send; the ids (declared, or the line number for frames
         without one) are all distinct so sorting normalizes order *)
      let bytes =
        String.concat "\n"
          [
            {|{"id":4,"op":"sentence","instance":"triangles",|}
            ^ {|"sentence":"exists x. exists y. R1(x, y)"}|};
            {|{"id":9,"op":"sentence","instance":"triangles",|}
            ^ {|"sentence":"forall x. exists y. R1(x, y)"}|};
            "{definitely not json";
            {|{"id":20,"op":"classes","type":[2,1],"rank":2,"bogus":1}|};
            String.make (2 * max_line) 'z';
            {|{"id":21,"op":"nonsense"}|};
            (* the truncated final frame: no newline, then half-close *)
            {|{"id":22,"op":"cla|};
          ]
      in
      (* warm the shard directly, then route the same bytes: the router
         must forward the shard's bytes untouched and answer bad frames
         exactly as the shard does *)
      let direct = Proc.sort_by_id (exchange_raw ~port:(Server.port shard) bytes) in
      let routed = Proc.sort_by_id (exchange_raw ~port:(Router.port router) bytes) in
      check Alcotest.int "every frame answered directly" 7 (List.length direct);
      check Alcotest.(list string) "routed bytes = direct bytes" direct
        routed;
      (* the merged ledger through the router sees the shard's spending *)
      let cluster, shards = Router.merged_ledger router in
      check Alcotest.int "one shard reporting" 1 (List.length shards);
      check Alcotest.bool "cluster total covers the shard's questions" true
        (cluster.Request.l_questions > 0);
      check Alcotest.string "cluster label" "cluster" cluster.Request.l_node)

(* ------------------------------------------------------------------ *)
(* Router: a client that stops reading is stopped being read           *)

(* A "shard" that accepts connections and reads everything, answering
   nothing: every routed request stays in flight. *)
let silent_shard () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", 0));
  Unix.listen fd 8;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  (* not joined, like [slammer_shard] below: the accept thread parks
     harmlessly until process exit; each reader ends at the router's
     shutdown of its upstream socket *)
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        let rec serve () =
          match Unix.accept fd with
          | conn, _ ->
              let sink () =
                let buf = Bytes.create 4096 in
                let rec go () =
                  match Unix.read conn buf 0 4096 with
                  | 0 -> ()
                  | _ -> go ()
                  | exception Unix.Unix_error _ -> ()
                in
                go ();
                try Unix.close conn with Unix.Unix_error _ -> ()
              in
              ignore (Thread.create sink ());
              serve ()
          | exception Unix.Unix_error _ -> ()
        in
        serve ())
      ()
  in
  (port, fd)

let test_router_client_backpressure () =
  let p, sfd = silent_shard () in
  let router = Router.start ~stats:false ~shards:[ ("127.0.0.1", p) ] () in
  let client = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Unix.close !client;
      (* the silent shard owes every flight forever: the drain must
         cut the client, not wait for it *)
      ignore (Router.drain ~timeout_s:0.5 router);
      try Unix.close sfd with Unix.Unix_error _ -> ())
    (fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      while (Router.counters router).Router.shards_up < 1 do
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "router never connected to the shard";
        Unix.sleepf 0.02
      done;
      let fd =
        match Proc.connect ~port:(Router.port router) () with
        | Ok fd -> fd
        | Error e -> Alcotest.fail e
      in
      client := Some fd;
      (* pipeline 100 requests and never read a response *)
      for id = 1 to 100 do
        Frame.write_line fd
          (Printf.sprintf
             {|{"id":%d,"op":"classes","type":[2,1],"rank":2}|} id)
      done;
      Unix.sleepf 0.5;
      let routed = (Router.counters router).Router.routed in
      check Alcotest.bool
        (Printf.sprintf "routed %d <= the per-connection window 16" routed)
        true (routed <= 16))

(* ------------------------------------------------------------------ *)
(* Regression: a shard that dies abruptly (kill -9, crash) must become
   a typed oracle_unavailable — the router process survives the EPIPE. *)

(* A "shard" that accepts one connection, reads a little, then slams
   the socket shut — the router's subsequent writes hit EPIPE/ECONNRESET
   exactly as they would against a kill -9'd process. *)
let slammer_shard () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", 0));
  Unix.listen fd 8;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  (* not joined: a thread blocked in [accept] is not woken by closing
     the listening fd on Linux; it parks harmlessly until process exit *)
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        let rec serve () =
          match Unix.accept fd with
          | conn, _ ->
              (* linger 0 turns close into RST — the abrupt death *)
              (try Unix.setsockopt_optint conn Unix.SO_LINGER (Some 0)
               with Unix.Unix_error _ -> ());
              let buf = Bytes.create 256 in
              (try ignore (Unix.read conn buf 0 256)
               with Unix.Unix_error _ -> ());
              (try Unix.close conn with Unix.Unix_error _ -> ());
              serve ()
          | exception Unix.Unix_error _ -> ()
        in
        serve ())
      ()
  in
  (port, fd)

let test_dead_shard_is_typed_never_fatal () =
  let p1, fd1 = slammer_shard () in
  let p2, fd2 = slammer_shard () in
  let router =
    Router.start ~stats:false ~queue_timeout_s:2.0
      ~shards:[ ("127.0.0.1", p1); ("127.0.0.1", p2) ]
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Router.drain ~timeout_s:10.0 router);
      (try Unix.close fd1 with Unix.Unix_error _ -> ());
      (try Unix.close fd2 with Unix.Unix_error _ -> ()))
    (fun () ->
      (* wait until the router holds connections to both "shards" *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait () =
        if (Router.counters router).Router.shards_up = 2 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "router never connected to the shards"
        else begin
          Unix.sleepf 0.02;
          wait ()
        end
      in
      wait ();
      (* both shards die under the request; the router must answer a
         typed error on the same connection and keep living *)
      let resp =
        Proc.send_and_collect ~port:(Router.port router)
          [ {|{"id":3,"op":"classes","type":[2,1],"rank":2}|} ]
      in
      match resp with
      | Error e -> Alcotest.fail ("router dropped the client: " ^ e)
      | Ok [] -> Alcotest.fail "router closed without answering"
      | Ok (line :: _) -> (
          match Json.parse line with
          | Error e -> Alcotest.fail ("unparsable response: " ^ e)
          | Ok j -> (
              check Alcotest.int "original id echoed" 3
                (match Json.member "id" j with
                | Some (Json.Int i) -> i
                | _ -> -1);
              match
                Option.bind
                  (Option.bind (Json.member "error" j) (Json.member "kind"))
                  (function Json.String k -> Some k | _ -> None)
              with
              | Some "oracle_unavailable" ->
                  (* and the router still serves: the local stats op
                     answers even with every shard dead *)
                  ignore (Router.merged_ledger router)
              | k ->
                  Alcotest.fail
                    (Printf.sprintf "expected oracle_unavailable, got %s"
                       (Option.value ~default:"<none>" k)))))

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "FNV-1a 64 test vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "owners, successors, validation" `Quick
            test_ring_basics;
          qcheck_spread;
          qcheck_remove_stability;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "componentwise merge + wire round-trip" `Quick
            test_ledger_merge;
          Alcotest.test_case "stats op at the serving door" `Quick
            test_stats_op_at_server;
        ] );
      ( "router",
        [
          Alcotest.test_case "byte passthrough over a live shard" `Quick
            test_router_passthrough;
          (* before the dead-shard case: its slammer threads can call
             accept on their listening fd numbers after those are
             closed and handed to a later test's sockets *)
          Alcotest.test_case "a client that stops reading is not read"
            `Quick test_router_client_backpressure;
          Alcotest.test_case
            "dead shards are typed errors, never router death" `Quick
            test_dead_shard_is_typed_never_fatal;
        ] );
    ]
