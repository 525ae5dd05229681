type row = {
  experiment : string;
  row : string;
  requests : int;
  wall_s : float;
  detail : (string * Json.t) list;
}

type run = { experiment : string; rows : row list; violations : string list }

type t = {
  name : string;
  mutable rows_rev : row list;
  mutable violations_rev : string list;
}

let create name = { name; rows_rev = []; violations_rev = [] }

let row t name ~requests ~wall_s detail =
  t.rows_rev <-
    { experiment = t.name; row = name; requests; wall_s; detail } :: t.rows_rev

let violation t fmt =
  Printf.ksprintf (fun s -> t.violations_rev <- s :: t.violations_rev) fmt

let check t ok fmt =
  Printf.ksprintf
    (fun s -> if not ok then t.violations_rev <- s :: t.violations_rev)
    fmt

let finish t =
  {
    experiment = t.name;
    rows = List.rev t.rows_rev;
    violations = List.rev t.violations_rev;
  }

let scratch name =
  if not (Sys.file_exists "_bench") then Unix.mkdir "_bench" 0o755;
  let path = Filename.concat "_bench" name in
  Proc.rm_rf path;
  path

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let scalar = function
  | Json.Float f -> Some (Printf.sprintf "%.4g" f)
  | (Json.Int _ | Json.Bool _ | Json.String _ | Json.Null) as j ->
      let s = Json.to_string j in
      if String.length s <= 60 then Some s else None
  | Json.List _ | Json.Obj _ -> None

let print (r : run) =
  List.iter
    (fun (w : row) ->
      Format.printf "%-10s %-16s %6d requests %9.4fs  %s@." w.experiment w.row
        w.requests w.wall_s
        (String.concat " "
           (List.filter_map
              (fun (k, v) -> Option.map (fun s -> k ^ "=" ^ s) (scalar v))
              w.detail)))
    r.rows;
  List.iter (Format.eprintf "%s violation: %s@." r.experiment) r.violations;
  Format.printf "%s: %s@." r.experiment
    (match r.violations with
    | [] -> "OK"
    | vs -> Printf.sprintf "%d violation(s)" (List.length vs))

(* The commit is the working directory's HEAD, suffixed "-dirty" when
   tracked files differ from it; outside a checkout (or without git) it
   is null, never a guess. *)
let commit () =
  match
    Unix.open_process_in
      "c=$(git rev-parse HEAD 2>/dev/null) && { git diff --quiet HEAD \
       2>/dev/null && echo \"$c\" || echo \"$c-dirty\"; }"
  with
  | exception Unix.Unix_error _ -> Json.Null
  | ic -> (
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some c when c <> "" -> Json.String c
      | _ -> Json.Null)

let env () =
  Json.Obj
    [
      ("commit", commit ());
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("hostname", Json.String (Unix.gethostname ()));
    ]

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let to_json ~smoke (r : run) =
  Json.Obj
    [
      ("experiment", Json.String r.experiment);
      ("size", Json.String (if smoke then "smoke" else "full"));
      ("env", env ());
      ( "rows",
        Json.List
          (List.map
             (fun (w : row) ->
               Json.Obj
                 [
                   ("experiment", Json.String w.experiment);
                   ("row", Json.String w.row);
                   ("requests", Json.Int w.requests);
                   ("wall_s", Json.Float w.wall_s);
                   ("detail", Json.Obj w.detail);
                 ])
             r.rows) );
      ("violations", strings r.violations);
    ]

let write ~smoke path r =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let oc = open_out path in
  output_string oc (Json.to_string (to_json ~smoke r));
  output_char oc '\n';
  close_out oc
