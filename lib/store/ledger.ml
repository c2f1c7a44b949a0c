(** On-disk layout of the results store: one JSON file per run under
    [<dir>/runs/<run_id>.json] plus an append-only [<dir>/bench.jsonl] of
    benchmark envelopes. Runs are content-addressed, so re-running the same
    analysis replaces its own record (identical findings and provenance;
    only the timing metrics move) — the ledger never grows from
    repetition. *)

module Json = Telemetry.Json

(** Where the ledger lives unless the caller says otherwise: the
    [MUMAK_STORE] environment variable, falling back to [_mumak/store]
    under the working directory. *)
let default_dir () =
  match Sys.getenv_opt "MUMAK_STORE" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat "_mumak" "store"

type t = { dir : string }

let rec mkdir_p dir =
  if Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let runs_dir t = Filename.concat t.dir "runs"
let bench_path t = Filename.concat t.dir "bench.jsonl"

let open_ ?dir () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  let t = { dir } in
  mkdir_p (runs_dir t);
  t

let run_path t id = Filename.concat (runs_dir t) (id ^ ".json")

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Persist a run record; returns its id. The file name is the content
    address, so a repeated identical run replaces its own record. The
    record is written to [<id>.json.tmp] in the same directory and renamed
    into place, so a run killed mid-write leaves the previous record (or
    none) plus a stray temp file that {!run_ids} ignores — never a
    truncated record. There is no fsync, which keeps the append cheap: the
    rename makes the commit atomic against a killed process, not against
    power loss. *)
let append_run t record =
  let path = run_path t record.Record.run_id in
  let tmp = path ^ ".tmp" in
  write_file tmp (Json.to_string (Record.to_json record) ^ "\n");
  Sys.rename tmp path;
  record.Record.run_id

let run_ids t =
  if not (Sys.file_exists (runs_dir t)) then []
  else
    Sys.readdir (runs_dir t) |> Array.to_list
    |> List.filter_map (Filename.chop_suffix_opt ~suffix:".json")
    |> List.sort compare

let load_file path =
  match Json.of_string (String.trim (read_file path)) with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok j -> (
      match Record.of_json j with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok r -> Ok r)

(** Load a run by id or by unique id prefix. *)
let load_run t id =
  let ids = run_ids t in
  if List.mem id ids then load_file (run_path t id)
  else
    match List.filter (fun candidate -> String.starts_with ~prefix:id candidate) ids with
    | [ unique ] -> load_file (run_path t unique)
    | [] -> Error (Printf.sprintf "no run matches %S in %s" id t.dir)
    | several ->
        Error
          (Printf.sprintf "ambiguous run prefix %S (%d matches)" id
             (List.length several))

(** Every run record in id order, and one "path: parse error" message per
    record that could not be read: nothing is dropped silently. *)
let load_all t =
  List.partition_map
    (fun id ->
      match load_file (run_path t id) with Ok r -> Either.Left r | Error e -> Either.Right e)
    (run_ids t)

(* ------------------------------------------------------------------ *)
(* Bench envelopes                                                     *)
(* ------------------------------------------------------------------ *)

(** Append one benchmark envelope to the trend history. *)
let append_bench t envelope =
  mkdir_p t.dir;
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (bench_path t) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string envelope ^ "\n"))

(** The recorded envelopes, oldest first; unparseable lines are skipped. *)
let bench_history t =
  if not (Sys.file_exists (bench_path t)) then []
  else
    read_file (bench_path t) |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" then None else Result.to_option (Json.of_string line))
