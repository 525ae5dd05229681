(* The traced run's span recorder: one span per call into a layer's
   public function, made by the benchmark around the call (nothing is
   added inside the library).  Spans live in growable parallel arrays
   and are written out once, when the run ends.  A disabled recorder
   records nothing, so the untraced replay runs the same code. *)

let names =
  [|
    "request";
    "Request.decode_line";
    "Store.journal_admit";
    "Engine.handle";
    "Store.journal_complete";
    "Request.response_to_json+Json.to_string";
    "Rql_plan.plan_of_text";
    "Store.open_store";
    "Store.snapshot_now";
    "Ring.node";
  |]

let request = 0
let decode = 1
let journal_admit = 2
let handle = 3
let journal_complete = 4
let encode = 5
let rql_plan = 6
let open_store = 7
let snapshot = 8
let ring_node = 9

type t = {
  enabled : bool;
  mutable n : int;
  mutable rid : int array;
  mutable name : int array;
  mutable parent : int array;
  mutable start : float array;
  mutable stop : float array;
}

let create ?(capacity = 1 lsl 16) ~enabled () =
  let cap = if enabled then max 1 capacity else 0 in
  {
    enabled;
    n = 0;
    rid = Array.make cap 0;
    name = Array.make cap 0;
    parent = Array.make cap 0;
    start = Array.make cap 0.0;
    stop = Array.make cap 0.0;
  }

let grow t =
  let cap = 2 * Array.length t.rid in
  let g a d =
    let b = Array.make cap d in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.rid <- g t.rid 0;
  t.name <- g t.name 0;
  t.parent <- g t.parent 0;
  t.start <- g t.start 0.0;
  t.stop <- g t.stop 0.0

(* Open a span that started at [start]; returns its handle (-1 when
   disabled).  The caller takes the timestamps, so one clock read serves
   both the span and the caller's own sums. *)
let enter t ~rid ~parent name start =
  if not t.enabled then -1
  else begin
    if t.n = Array.length t.rid then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.rid.(i) <- rid;
    t.name.(i) <- name;
    t.parent.(i) <- parent;
    t.start.(i) <- start;
    i
  end

let leave t i stop = if i >= 0 then t.stop.(i) <- stop

(* A span whose start and stop are both known. *)
let add t ~rid ~parent name start stop = leave t (enter t ~rid ~parent name start) stop

let write t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "span\trequest\tparent\tname\tstart_us\tend_us\n";
      let t0 = if t.n > 0 then t.start.(0) else 0.0 in
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%.3f\t%.3f\n" i t.rid.(i) t.parent.(i)
          names.(t.name.(i))
          ((t.start.(i) -. t0) *. 1e6)
          ((t.stop.(i) -. t0) *. 1e6)
      done)
