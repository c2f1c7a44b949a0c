(** One run of the engine as the ledger remembers it: content-addressed by
    what was analysed (target, workload, trace signature, configuration),
    carrying the report's findings with a provenance record each, the
    phase summaries and the resource metrics.

    The run id deliberately normalizes [Config.jobs] to 1 before digesting:
    worker count provably does not change the findings (the differential
    tests assert report-signature equality across [jobs]), so runs that
    differ only in parallelism share a content address. *)

module Json = Telemetry.Json

let schema_name = "mumak.store"
let schema_version = 1

type finding = {
  f_id : string;  (** digest of the signature entry — the explain handle *)
  f_signature : string;  (** {!Mumak.Report.finding_signature} entry *)
  f_kind : string;
  f_phase : string;
  f_path : string list;  (** frame path when the finding carries a stack *)
  f_op_index : int option;
  f_seq : int option;
  f_detail : string;
  f_fix : string option;
  f_verdict : string option;
}

type t = {
  run_id : string;  (** content address of the run *)
  target : string;
  workload : string;  (** workload descriptor chosen by the caller *)
  config : Json.t;  (** full [Config.to_json], jobs as actually run *)
  config_digest : string;  (** digest of the full configuration *)
  trace_signature : string;  (** digest of the recorded event stream *)
  failure_points : int;
  injections : int;
  executions : int;
  trace_events : int;
  first_bug_injection : int option;
  metrics : Json.t;
      (** the phase table ({!Mumak.Phase.to_json}): resource usage and
          target executions, the total first, then each phase that ran *)
  phases : (string * Json.t) list;  (** optional phase summaries, by name *)
  findings : finding list;  (** {!Mumak.Report.ordered} order *)
  provenance : Mumak.Provenance.t list;  (** parallel to [findings] *)
}

(* ------------------------------------------------------------------ *)
(* Construction from an engine result                                  *)
(* ------------------------------------------------------------------ *)

let digest_json j = Digest.to_hex (Digest.string (Json.to_string j))

(** The content address: target, workload descriptor, trace signature and
    the jobs-normalized configuration, digested as one JSON document. *)
let run_id_of ~target ~workload ~trace_signature ~(config : Mumak.Config.t) =
  let normalized = Mumak.Config.to_json { config with Mumak.Config.jobs = 1 } in
  digest_json
    (Json.Assoc
       [
         ("target", Json.String target);
         ("workload", Json.String workload);
         ("trace_signature", Json.String trace_signature);
         ("config", normalized);
       ])

let finding_of_provenance (p : Mumak.Provenance.t) =
  let path, op_index =
    match p.Mumak.Provenance.p_stack with
    | Some (path, op_index) -> (path, Some op_index)
    | None -> ([], None)
  in
  {
    f_id = p.Mumak.Provenance.p_finding;
    f_signature = p.Mumak.Provenance.p_signature;
    f_kind = p.Mumak.Provenance.p_kind;
    f_phase = p.Mumak.Provenance.p_phase;
    f_path = path;
    f_op_index = op_index;
    f_seq = p.Mumak.Provenance.p_seq;
    f_detail = p.Mumak.Provenance.p_detail;
    f_fix = p.Mumak.Provenance.p_fix;
    f_verdict = p.Mumak.Provenance.p_verdict;
  }

let of_result ~target ~workload ~(config : Mumak.Config.t)
    (result : Mumak.Engine.result) =
  let trace_signature = result.Mumak.Engine.trace_signature in
  let phases =
    List.concat
      [
        (match result.Mumak.Engine.absint with
        | Some a -> [ ("absint", Analysis.Absint.to_json a) ]
        | None -> []);
        (match result.Mumak.Engine.lint with
        | Some l -> [ ("lint", Analysis.Lint.to_json l) ]
        | None -> []);
        (match result.Mumak.Engine.fix_verdicts with
        | Some v -> [ ("verify_fix", Analysis.Verify_fix.to_json v) ]
        | None -> []);
        (match result.Mumak.Engine.opt with
        | Some o -> [ ("optimize", Analysis.Opt.to_json o) ]
        | None -> []);
      ]
  in
  {
    run_id = run_id_of ~target ~workload ~trace_signature ~config;
    target;
    workload;
    config = Mumak.Config.to_json config;
    config_digest = digest_json (Mumak.Config.to_json config);
    trace_signature;
    failure_points = result.Mumak.Engine.failure_points;
    injections = result.Mumak.Engine.injections;
    executions = result.Mumak.Engine.executions;
    trace_events = result.Mumak.Engine.trace_events;
    first_bug_injection = result.Mumak.Engine.first_bug_injection;
    metrics = Mumak.Phase.to_json result.Mumak.Engine.phase_metrics;
    phases;
    findings = List.map finding_of_provenance result.Mumak.Engine.provenance;
    provenance = result.Mumak.Engine.provenance;
  }

(* ------------------------------------------------------------------ *)
(* JSON codecs                                                         *)
(* ------------------------------------------------------------------ *)

let opt_string = function None -> Json.Null | Some s -> Json.String s
let opt_int = function None -> Json.Null | Some n -> Json.Int n

let finding_to_json f =
  Json.Assoc
    [
      ("id", Json.String f.f_id);
      ("signature", Json.String f.f_signature);
      ("kind", Json.String f.f_kind);
      ("phase", Json.String f.f_phase);
      ("path", Json.List (List.map (fun s -> Json.String s) f.f_path));
      ("op_index", opt_int f.f_op_index);
      ("seq", opt_int f.f_seq);
      ("detail", Json.String f.f_detail);
      ("fix", opt_string f.f_fix);
      ("verdict", opt_string f.f_verdict);
    ]

let to_json t =
  Json.Assoc
    [
      ("schema", Json.String schema_name);
      ("version", Json.Int schema_version);
      ("type", Json.String "run");
      ("run_id", Json.String t.run_id);
      ("target", Json.String t.target);
      ("workload", Json.String t.workload);
      ("config", t.config);
      ("config_digest", Json.String t.config_digest);
      ("trace_signature", Json.String t.trace_signature);
      ( "counters",
        Json.Assoc
          [
            ("failure_points", Json.Int t.failure_points);
            ("injections", Json.Int t.injections);
            ("executions", Json.Int t.executions);
            ("trace_events", Json.Int t.trace_events);
          ] );
      ("first_bug_injection", opt_int t.first_bug_injection);
      ("metrics", t.metrics);
      ("phases", Json.Assoc t.phases);
      ("findings", Json.List (List.map finding_to_json t.findings));
      ( "provenance",
        Json.List (List.map Mumak.Provenance.to_json t.provenance) );
    ]

let ( let* ) = Result.bind

let str_field j k =
  match Option.bind (Json.member k j) Json.to_string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing string field %S" k)

let int_field j k =
  match Option.bind (Json.member k j) Json.to_int_opt with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "missing integer field %S" k)

let opt_str_field j k =
  match Json.member k j with
  | None | Some Json.Null -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string or null" k)

let opt_int_field j k =
  match Json.member k j with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int n) -> Ok (Some n)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer or null" k)

let string_list_field j k =
  match Option.bind (Json.member k j) Json.to_list_opt with
  | None -> Error (Printf.sprintf "missing list field %S" k)
  | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.String s :: rest -> go (s :: acc) rest
        | _ -> Error (Printf.sprintf "field %S must hold strings" k)
      in
      go [] items

let finding_of_json j =
  let* id = str_field j "id" in
  let* signature = str_field j "signature" in
  let* kind = str_field j "kind" in
  let* phase = str_field j "phase" in
  let* path = string_list_field j "path" in
  let* op_index = opt_int_field j "op_index" in
  let* seq = opt_int_field j "seq" in
  let* detail = str_field j "detail" in
  let* fix = opt_str_field j "fix" in
  let* verdict = opt_str_field j "verdict" in
  Ok
    {
      f_id = id;
      f_signature = signature;
      f_kind = kind;
      f_phase = phase;
      f_path = path;
      f_op_index = op_index;
      f_seq = seq;
      f_detail = detail;
      f_fix = fix;
      f_verdict = verdict;
    }

let list_field j k of_item =
  match Option.bind (Json.member k j) Json.to_list_opt with
  | None -> Error (Printf.sprintf "missing list field %S" k)
  | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
            let* v = of_item item in
            go (v :: acc) rest
      in
      go [] items

let of_json j =
  let* schema = str_field j "schema" in
  let* () =
    if String.equal schema schema_name then Ok ()
    else Error (Printf.sprintf "unknown schema %S" schema)
  in
  let* version = int_field j "version" in
  let* () =
    if version = schema_version then Ok ()
    else Error (Printf.sprintf "unknown %s version %d" schema_name version)
  in
  let* ty = str_field j "type" in
  let* () =
    if String.equal ty "run" then Ok ()
    else Error (Printf.sprintf "expected a run record, got type %S" ty)
  in
  let* run_id = str_field j "run_id" in
  let* target = str_field j "target" in
  let* workload = str_field j "workload" in
  let config = Option.value (Json.member "config" j) ~default:Json.Null in
  let* config_digest = str_field j "config_digest" in
  let* trace_signature = str_field j "trace_signature" in
  let* counters =
    match Json.member "counters" j with
    | Some (Json.Assoc _ as c) -> Ok c
    | _ -> Error "missing counters object"
  in
  let* failure_points = int_field counters "failure_points" in
  let* injections = int_field counters "injections" in
  let* executions = int_field counters "executions" in
  let* trace_events = int_field counters "trace_events" in
  let* first_bug_injection = opt_int_field j "first_bug_injection" in
  let metrics = Option.value (Json.member "metrics" j) ~default:Json.Null in
  let* phases =
    match Json.member "phases" j with
    | None | Some Json.Null -> Ok []
    | Some (Json.Assoc fields) -> Ok fields
    | Some _ -> Error "phases must be an object"
  in
  let* findings = list_field j "findings" finding_of_json in
  let* provenance = list_field j "provenance" Mumak.Provenance.of_json in
  let* () =
    if List.length findings = List.length provenance then Ok ()
    else Error "findings and provenance lists must be parallel"
  in
  Ok
    {
      run_id;
      target;
      workload;
      config;
      config_digest;
      trace_signature;
      failure_points;
      injections;
      executions;
      trace_events;
      first_bug_injection;
      metrics;
      phases;
      findings;
      provenance;
    }

let equal a b = Json.to_string (to_json a) = Json.to_string (to_json b)

let pp ppf t =
  Fmt.pf ppf "run %s  target=%s  workload=%s  findings=%d  executions=%d"
    t.run_id t.target t.workload (List.length t.findings) t.executions
