(* Seeded request generators for the three workloads.

   A workload is a table of distinct keys plus a stream of indices into
   it.  The servers only ever see the lines built from these keys; the
   benchmark keeps the table so it can compute each key's expected
   response once. *)

type key = {
  body : string;
      (* the request line after ["{\"id\":N,"]; for a [raw] key, the
         whole line *)
  raw : bool;  (* a deliberately broken JSON line: no id to echo *)
  op : string;
  instance : string;  (* "" for classes *)
  moded : bool;  (* carries a certain/possible mode *)
  rql_text : string option;  (* for the planner span *)
}

let line_of key ~id =
  if key.raw then key.body ^ "\n"
  else "{\"id\":" ^ string_of_int id ^ "," ^ key.body ^ "\n"

let id0_prefix = "{\"id\":0,"

let key_of_request ?mode payload =
  let s = Json.to_string (Request.to_json (Request.make ?mode ~id:0 payload)) in
  let n = String.length id0_prefix in
  assert (String.sub s 0 n = id0_prefix);
  let op, instance, rql_text =
    match payload with
    | Request.Sentence { instance; _ } -> ("sentence", instance, None)
    | Request.Query { instance; _ } -> ("query", instance, None)
    | Request.Classes _ -> ("classes", "", None)
    | Request.Tree { instance; _ } -> ("tree", instance, None)
    | Request.Program { instance; _ } -> ("program", instance, None)
    | Request.Rql { instance; text; _ } -> ("rql", instance, Some text)
    | Request.Stats -> ("stats", "", None)
  in
  {
    body = String.sub s n (String.length s - n);
    raw = false;
    op;
    instance;
    moded = mode <> None;
    rql_text;
  }

let stats_key = key_of_request Request.Stats

(* ------------------------------------------------------------------ *)
(* Variable renaming.  Templates are written over the placeholder
   variables a, b, c, d and the definition names p, q; [rename] swaps
   whole identifiers, so "a" in "and" or "R1" is untouched. *)

let is_ident c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let rename subst text =
  let b = Buffer.create (String.length text + 32) in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    if is_ident text.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident text.[!j] do incr j done;
      let w = String.sub text !i (!j - !i) in
      Buffer.add_string b (try List.assoc w subst with Not_found -> w);
      i := !j
    end
    else begin
      Buffer.add_char b text.[!i];
      incr i
    end
  done;
  Buffer.contents b

let placeholders = [ "a"; "b"; "c"; "d"; "p"; "q" ]

(* A renaming whose names embed [tag], so two different tags never
   produce the same text. *)
let subst_for tag =
  List.map (fun v -> (v, Printf.sprintf "%s%s" v tag)) placeholders

let pick rng arr = arr.(Random.State.int rng (Array.length arr))

(* ------------------------------------------------------------------ *)
(* The hot set: a fixed catalogue of request shapes covering every op,
   each instantiated under several seeded variable renamings. *)

let graph_instances =
  [| "clique"; "empty"; "mod2"; "mod3"; "triangles"; "paths3"; "arrows";
     "rado"; "bipartite" |]

let sentence_templates =
  [|
    "exists a. exists b. R1(a, b)";
    "forall a. forall b. a != b -> R1(a, b)";
    "forall a. forall b. R1(a, b) -> (exists c. R1(a, c) && R1(b, c))";
    "exists a. forall b. b != a -> R1(a, b)";
    "exists a. exists b. exists c. R1(a, b) && R1(b, c) && R1(a, c)";
    "forall a. exists b. R1(a, b) || a = b";
    "exists a. R1(a, a)";
    "forall a. forall b. R1(a, b) -> R1(b, a)";
  |]

let query_templates =
  [|
    "{(a, b) | R1(a, b) && a != b}";
    "{(a, b) | exists c. R1(a, c) && R1(c, b)}";
    "{(a) | forall b. R1(a, b) -> (exists c. R1(b, c))}";
    "{(a, b) | R1(a, b) || R1(b, a)}";
  |]

let program_templates =
  [|
    "Y1 <- ~(Rel1 & E)";
    "Y1 <- E; Y2 <- Y1^; Y3 <- Y2!%";
    "Y1 <- Rel1; Y2 <- Y1%; Y3 <- Y1 & Y2";
  |]

let rql_instances = [| "triangles"; "mod2"; "paths3"; "arrows"; "bipartite" |]

let rql_templates =
  [|
    "fix p(a, b) = R1(a, b) || exists c. (R1(a, c) && p(c, b)); query {(a, b) \
     | p(a, b)}";
    "fix p(a, b) = R1(a, b) || exists c. (R1(a, c) && p(c, b)); let q(a) = \
     exists b. R1(a, b); query {(a) | q(a)}";
    "let p(a, b) = R1(a, b) || R1(b, a); let q(a, b) = p(a, b); sentence \
     exists a. exists b. q(a, b)";
    "fix p(a, b) = R1(a, b) || exists c. (R1(a, c) && p(c, b)); sentence \
     exists a. exists b. (p(a, b) && p(b, a))";
    "sentence forall a. forall b. (R1(a, b) -> exists c. R1(b, c))";
    "query {(a, b) | R1(a, b) && a != b}";
    "tree 2";
  |]

let classes_shapes =
  [ ([| 2 |], 1); ([| 2 |], 2); ([| 2 |], 3); ([| 1 |], 1); ([| 1 |], 2);
    ([| 1 |], 3); ([| 1 |], 4); ([| 1; 2 |], 1); ([| 1; 2 |], 2);
    ([| 2; 1 |], 2); ([| 1; 1 |], 2); ([| 1; 1 |], 3); ([| 2; 2 |], 2);
    ([| 3 |], 1); ([| 3 |], 2) ]

let hot_set rng =
  let keys = ref [] in
  let add ?mode p = keys := key_of_request ?mode p :: !keys in
  let tag = ref 0 in
  let fresh_subst () =
    incr tag;
    subst_for (Printf.sprintf "%d_%d" (Random.State.int rng 1000) !tag)
  in
  Array.iter
    (fun t ->
      Array.iter
        (fun instance ->
          for _ = 1 to 24 do
            add (Request.Sentence { instance; sentence = rename (fresh_subst ()) t })
          done)
        graph_instances)
    sentence_templates;
  Array.iteri
    (fun i t ->
      if i < 4 then
        List.iter
          (fun instance ->
            List.iter
              (fun mode ->
                for _ = 1 to 12 do
                  add ~mode
                    (Request.Sentence
                       { instance; sentence = rename (fresh_subst ()) t })
                done)
              [ Request.M_certain; Request.M_possible ])
          [ "rado"; "mod3" ])
    sentence_templates;
  Array.iter
    (fun t ->
      Array.iter
        (fun instance ->
          List.iter
            (fun cutoff ->
              for _ = 1 to 16 do
                add
                  (Request.Query
                     { instance; query = rename (fresh_subst ()) t; cutoff })
              done)
            [ 3; 4; 5 ])
        [| "triangles"; "mod2"; "mod3"; "paths3"; "clique"; "bipartite" |])
    query_templates;
  List.iter
    (fun (db_type, rank) -> add (Request.Classes { db_type; rank }))
    classes_shapes;
  List.iter
    (fun instance ->
      List.iter
        (fun depth -> add (Request.Tree { instance; depth }))
        [ 1; 2; 3 ])
    [ "clique"; "empty"; "mod2"; "mod3"; "triangles"; "paths3"; "arrows";
      "bipartite"; "colored"; "unary012" ];
  Array.iter
    (fun program ->
      Array.iter
        (fun instance ->
          List.iter
            (fun (fuel, cutoff) ->
              add (Request.Program { instance; program; fuel; cutoff }))
            [ (500, 3); (1000, 3); (1000, 4); (2000, 5) ])
        graph_instances)
    program_templates;
  Array.iter
    (fun t ->
      Array.iter
        (fun instance ->
          List.iter
            (fun cutoff ->
              for _ = 1 to 12 do
                add
                  (Request.Rql
                     {
                       instance;
                       text = rename (fresh_subst ()) t;
                       cutoff;
                       planner = Request.Plan_cost;
                     })
              done)
            [ 3; 4 ])
        rql_instances)
    rql_templates;
  Array.of_list (List.rev !keys)

(* A Zipf(1) draw over [n] ranks, the ranks mapped onto a seeded
   permutation of the hot set so the popular keys differ by seed. *)
let zipf_stream rng ~n ~len =
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  Array.init len (fun _ ->
      let u = Random.State.float rng total in
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < u then lo := mid + 1 else hi := mid
      done;
      perm.(!lo))

(* ------------------------------------------------------------------ *)
(* Fresh keys: structurally random formulas whose variable names embed
   a per-key serial number, so every text is new to the result and plan
   memos while the T_B, ≅_B and membership answers they need repeat. *)

(* A random formula over the bound variables [vars], quantifying at
   most [quant] more, drawing new names from [names]. *)
let rec formula rng ~vars ~quant ~names ~size =
  let atom () =
    let u = pick rng vars and v = pick rng vars in
    match Random.State.int rng 4 with
    | 0 | 1 -> Printf.sprintf "R1(%s, %s)" u v
    | 2 -> Printf.sprintf "%s = %s" u v
    | _ -> Printf.sprintf "%s != %s" u v
  in
  if size <= 1 then atom ()
  else
    match Random.State.int rng 6 with
    | 0 when quant > 0 ->
        let x = List.hd names in
        Printf.sprintf "exists %s. (%s)" x
          (formula rng ~vars:(Array.append vars [| x |]) ~quant:(quant - 1)
             ~names:(List.tl names) ~size:(size - 1))
    | 1 when quant > 0 ->
        let x = List.hd names in
        Printf.sprintf "forall %s. (%s)" x
          (formula rng ~vars:(Array.append vars [| x |]) ~quant:(quant - 1)
             ~names:(List.tl names) ~size:(size - 1))
    | 2 -> Printf.sprintf "!(%s)" (formula rng ~vars ~quant ~names ~size:(size - 1))
    | 3 ->
        let l = size / 2 in
        Printf.sprintf "(%s) || (%s)"
          (formula rng ~vars ~quant ~names ~size:l)
          (formula rng ~vars ~quant ~names ~size:(size - l))
    | _ ->
        let l = size / 2 in
        Printf.sprintf "(%s) && (%s)"
          (formula rng ~vars ~quant ~names ~size:l)
          (formula rng ~vars ~quant:0 ~names ~size:(size - l))

let names_for serial = List.map (fun v -> Printf.sprintf "%s%d" v serial) [ "x"; "y"; "z"; "w" ]

let fresh_sentence rng serial =
  match names_for serial with
  | x :: names ->
      let q = if Random.State.bool rng then "exists" else "forall" in
      Printf.sprintf "%s %s. (%s)" q x
        (formula rng ~vars:[| x |] ~quant:2 ~names ~size:(2 + Random.State.int rng 4))
  | [] -> assert false

let fresh_query_body rng serial =
  match names_for serial with
  | x :: y :: names ->
      ( [| x; y |],
        formula rng ~vars:[| x; y |] ~quant:1 ~names ~size:(2 + Random.State.int rng 3) )
  | _ -> assert false

let ql_terms = [| "E"; "Rel1"; "~Rel1"; "Rel1%"; "~E"; "(Rel1 & E)"; "E%" |]

let fresh_program rng =
  let n = 1 + Random.State.int rng 3 in
  let stmt i =
    let operand () =
      if i > 1 && Random.State.bool rng then Printf.sprintf "Y%d" (1 + Random.State.int rng (i - 1))
      else pick rng ql_terms
    in
    let t =
      match Random.State.int rng 4 with
      | 0 -> Printf.sprintf "%s & %s" (operand ()) (operand ())
      | 1 -> Printf.sprintf "~(%s)" (operand ())
      | 2 -> Printf.sprintf "%s%%" (operand ())
      | _ -> operand ()
    in
    Printf.sprintf "Y%d <- %s" i t
  in
  String.concat "; " (List.init n (fun i -> stmt (i + 1)))

(* A definition (fixpoint or let) and a target whose filter is a random
   formula, so the normalized text — and with it the compiled plan — is
   new as well as the raw text. *)
let fresh_rql rng serial =
  let s = subst_for (string_of_int serial) in
  let def =
    match Random.State.int rng 3 with
    | 0 -> "fix p(a, b) = R1(a, b) || exists c. (R1(a, c) && p(c, b)); "
    | 1 -> "let p(a, b) = R1(a, b) || R1(b, a); "
    | _ -> "fix p(a, b) = R1(b, a) || exists c. (p(a, c) && R1(c, b)); "
  in
  let a = List.assoc "a" s and b = List.assoc "b" s and p = List.assoc "p" s in
  let filter =
    formula rng ~vars:[| a; b |] ~quant:1 ~names:(List.tl (names_for serial))
      ~size:(1 + Random.State.int rng 3)
  in
  let target =
    if Random.State.bool rng then Printf.sprintf "query {(%s, %s) | %s(%s, %s) && (%s)}" a b p a b filter
    else Printf.sprintf "sentence exists %s. exists %s. (%s(%s, %s) && (%s))" a b p a b filter
  in
  rename s def ^ target

(* One fresh key.  [serial] is unique across the whole workload (prefill
   and timed stream draw from disjoint serial ranges). *)
let fresh_key rng serial =
  let r = Random.State.int rng 100 in
  if r < 45 then
    key_of_request
      (Request.Sentence { instance = pick rng graph_instances; sentence = fresh_sentence rng serial })
  else if r < 60 then
    let vars, body = fresh_query_body rng serial in
    key_of_request
      (Request.Query
         {
           instance = pick rng [| "triangles"; "mod2"; "mod3"; "paths3"; "clique"; "bipartite" |];
           query = Printf.sprintf "{(%s) | %s}" (String.concat ", " (Array.to_list vars)) body;
           cutoff = 3;
         })
  else if r < 75 then
    key_of_request
      (Request.Rql
         { instance = pick rng rql_instances; text = fresh_rql rng serial; cutoff = 3;
           planner = Request.Plan_cost })
  else if r < 83 then
    (* programs have no variable names; the fuel, drawn from a range
       indexed by the serial, keeps each key distinct *)
    key_of_request
      (Request.Program
         { instance = pick rng graph_instances; program = fresh_program rng;
           fuel = 100 + serial; cutoff = 3 })
  else if r < 95 then
    key_of_request
      ~mode:(if Random.State.bool rng then Request.M_certain else Request.M_possible)
      (Request.Sentence { instance = pick rng [| "rado"; "mod3" |]; sentence = fresh_sentence rng serial })
  else if r < 98 then
    (* a syntax error inside a well-formed request: a typed parse_error *)
    key_of_request
      (Request.Sentence
         { instance = pick rng graph_instances;
           sentence = Printf.sprintf "exists x%d. R1(x%d, " serial serial })
  else
    { body = Printf.sprintf "{\"op\":\"sentence\",\"serial\":%d,\"sentence\":\"R1(" serial;
      raw = true; op = "malformed"; instance = ""; moded = false; rql_text = None }
