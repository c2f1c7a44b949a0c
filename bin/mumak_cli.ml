(* The user-facing driver — the analogue of the Bash frontend of the
   original artifact. Analyse a named target with a generated workload and
   print the combined bug report.

   Exit codes (scriptable contract): 0 = analysis ran and found no bugs,
   1 = analysis ran and found bugs, 2 = usage or engine error. *)

open Cmdliner

let registry_names =
  List.map (fun (module A : Pmapps.Kv_intf.S) -> A.name) Pmapps.Registry.apps
  @ [ "montage.hashtable"; "montage.lf_hashtable"; "pmemkv.cmap"; "pmemkv.stree";
      "redis"; "rocksdb" ]

let build_target ~name ~version ~grouped ~workload =
  match name with
  | "montage.hashtable" -> Some (Targets.of_montage ~variant:`Buffered ~workload ())
  | "montage.lf_hashtable" -> Some (Targets.of_montage ~variant:`Lockfree ~workload ())
  | "pmemkv.cmap" -> Some (Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Cmap ~workload ())
  | "pmemkv.stree" -> Some (Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Stree ~workload ())
  | "redis" -> Some (Targets.of_redis ~workload ())
  | "rocksdb" -> Some (Targets.of_rocksdb ~workload ())
  | app ->
      Option.map
        (fun m ->
          let tx_mode = if grouped then Targets.Grouped 64 else Targets.Spt in
          Targets.of_app m ~version ~tx_mode ~workload ())
        (Pmapps.Registry.find app)

let usage_error fmt = Fmt.kstr (fun msg -> Fmt.epr "mumak: %s@." msg; exit 2) fmt

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* The --library-version of [analyze] and [optimize]. Hashmap Atomic relies
   on allocation semantics that changed in 1.8: on a later library its
   workload runs off the pool, so the combination is a usage error up
   front instead of an engine error mid-analysis. *)
let parse_version ~name version_str =
  let version =
    match version_str with
    | "1.6" -> Pmalloc.Version.V1_6
    | "1.8" -> Pmalloc.Version.V1_8
    | "1.12" -> Pmalloc.Version.V1_12
    | v -> usage_error "unknown library version %s (1.6 | 1.8 | 1.12)" v
  in
  if String.equal name "hashmap_atomic" && not (Pmalloc.Version.supports_hashmap_atomic version)
  then usage_error "hashmap_atomic needs --library-version 1.6 (got %s)" version_str;
  version

(* The steps [analyze] and [optimize] share: build the target (an unknown
   target or library version is a usage error), activate --progress, run
   the engine (an engine exception exits 2), print the result with
   [print], and append the run to the ledger in [store_dir]. *)
let drive ~name ~ops ~key_range ~seed ~version_str ~grouped ~bugs ~progress ~store_dir ~config
    ~print =
  let version = parse_version ~name version_str in
  let workload = Workload.standard ~ops ~key_range ~seed:(Int64.of_int seed) in
  List.iter Bugreg.enable bugs;
  let target =
    match build_target ~name ~version ~grouped ~workload with
    | Some target -> target
    | None ->
        usage_error "unknown target %s; available: %a" name
          Fmt.(list ~sep:comma string)
          registry_names
  in
  if progress then Telemetry.Progress.activate ();
  let result =
    try Mumak.Engine.analyze ~config target
    with exn ->
      Fmt.epr "mumak: engine error: %s@." (Printexc.to_string exn);
      exit 2
  in
  print result;
  Option.iter
    (fun dir ->
      (* The workload descriptor is part of the run's content address:
         anything that changes what the target executed (including which
         seeded bugs were armed) must change the run id. *)
      let workload_desc =
        Printf.sprintf "standard:ops=%d,keys=%d,seed=%d,version=%s,grouped=%b%s" ops key_range
          seed version_str grouped
          (match bugs with [] -> "" | l -> ",bugs=" ^ String.concat "+" (List.sort compare l))
      in
      let record = Store.Record.of_result ~target:name ~workload:workload_desc ~config result in
      let id = Store.Ledger.append_run (Store.Ledger.open_ ~dir ()) record in
      Fmt.pr "recorded run %s in %s@." id dir)
    store_dir;
  result

let run name ops key_range seed version_str grouped strategy_str bugs no_warnings
    store_level jobs static lint verify_fixes absint trace_out metrics_out progress
    store_dir =
  let strategy =
    match strategy_str with
    | "replay" -> Mumak.Config.Replay
    | "reexecute" -> Mumak.Config.Reexecute
    | s -> usage_error "unknown strategy %s (replay | reexecute)" s
  in
  let config =
    {
      Mumak.Config.default with
      Mumak.Config.strategy;
      report_warnings = not no_warnings;
      granularity =
        (if store_level then Mumak.Config.Store_level
         else Mumak.Config.Persistency_instruction);
      static;
      jobs = max 1 jobs;
      (* --verify-fixes without --lint would verify static fixes only;
         implying lint keeps the CLI contract simple: verification always
         covers every fix suggestion the run produced *)
      lint = lint || verify_fixes;
      verify_fixes;
      absint;
    }
  in
  let telemetry = trace_out <> None || metrics_out <> None in
  if telemetry then Telemetry.Collector.enable ();
  let print result =
    if telemetry then begin
      let dump = Telemetry.Collector.drain () in
      Option.iter (fun path -> write_file path (Telemetry.Chrome_trace.to_string dump)) trace_out;
      Option.iter (fun path -> write_file path (Telemetry.Jsonl.to_string dump)) metrics_out
    end;
    Fmt.pr "%a@." Mumak.Engine.pp_result result;
    (match result.Mumak.Engine.static with
    | Some s ->
        Fmt.pr "static analysis: %d raw findings, invariants pooled over %d run(s)@."
          (List.length s.Analysis.Static.findings)
          s.Analysis.Static.runs
    | None -> ());
    Fmt.pr "first bug at injection: %s@."
      (match result.Mumak.Engine.first_bug_injection with
      | Some n -> string_of_int n
      | None -> "none found")
  in
  let result =
    drive ~name ~ops ~key_range ~seed ~version_str ~grouped ~bugs ~progress ~store_dir ~config
      ~print
  in
  exit (if Mumak.Report.bugs result.Mumak.Engine.report <> [] then 1 else 0)

let name_arg =
  let doc = "Target application to analyse." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)

let ops_arg = Arg.(value & opt int 600 & info [ "ops" ] ~doc:"Workload size (operations).")
let key_range_arg =
  Arg.(value & opt int 200 & info [ "key-range" ] ~doc:"Number of distinct keys.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.")
let version_arg =
  Arg.(value & opt string "1.12" & info [ "library-version" ] ~doc:"pmalloc version.")
let grouped_arg =
  Arg.(value & flag & info [ "grouped" ] ~doc:"Group puts in enclosing transactions (non-SPT).")
let strategy_arg =
  Arg.(
    value & opt string "replay"
    & info [ "strategy" ]
        ~doc:
          "replay | reexecute. The default, replay, records the workload once \
           and materializes every failure point's crash image offline from \
           that recording; reexecute re-runs the workload once per failure \
           point, as the original Mumak does.")
let bugs_arg =
  Arg.(value & opt_all string [] & info [ "enable-bug" ] ~doc:"Enable a seeded bug id.")
let no_warnings_arg = Arg.(value & flag & info [ "no-warnings" ] ~doc:"Suppress warnings.")
let store_level_arg =
  Arg.(value & flag & info [ "store-level" ] ~doc:"Inject at every store (ablation).")
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the replay/re-execute injection loop (1 = \
           sequential). Reports are identical for any N.")

let static_arg =
  Arg.(
    value & flag
    & info [ "static" ]
        ~doc:
          "Run the offline persistency dependency-graph analyzer before fault \
           injection: reads the run's one recording, which then also traces \
           loads, mines likely ordering/atomicity invariants and attaches fix \
           suggestions to findings. Costs no extra execution.")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the epoch-based anti-pattern detectors over a recorded trace: \
           duplicate/unnecessary flushes, redundant fences and missing-flush \
           hot spots, each with a code path, a concrete fix and an estimated \
           cycles/events saving. Reads the run's shared recording, so it costs \
           no extra execution.")

let absint_arg =
  Arg.(
    value & flag
    & info [ "absint" ]
        ~doc:
          "Merge the recorded traces into one control-flow automaton and \
           abstract-interpret it with a per-cache-line persistency lattice: \
           reports missing-flush / missing-fence / ordering findings on \
           merged paths no single recording exercised, each with a concrete \
           path witness.")

let verify_fixes_arg =
  Arg.(
    value & flag
    & info [ "verify-fixes" ]
        ~doc:
          "Verify every fix suggestion (static and lint) by rewriting the \
           recorded trace, replaying it and re-running the crash-consistency \
           oracle and the detectors over the result: verdicts proven / \
           ineffective / harmful, printed under each finding. Implies --lint.")

let trace_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON timeline of the run to $(docv) \
           (open with chrome://tracing or Perfetto): one track per worker \
           domain plus the main pipeline track. Telemetry is collected only \
           when this or --metrics-out is given and provably does not change \
           the analysis result.")

let metrics_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's spans, counters and latency histograms as \
           append-friendly JSON Lines to $(docv) (versioned schema; first \
           record is the header). See `mumak validate'.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Redraw a live one-line progress report on stderr (injections/sec, \
           ETA, first-bug marker). Automatically silent when stderr is not a \
           terminal.")

let store_arg =
  Arg.(
    value & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Append this run to the results ledger in $(docv): a \
           content-addressed run record carrying the report, counters, \
           metrics and a provenance record per finding. Query it later with \
           `mumak query', `mumak explain' and `mumak diff'.")

let analyze_term =
  Term.(
    const run $ name_arg $ ops_arg $ key_range_arg $ seed_arg $ version_arg
    $ grouped_arg $ strategy_arg $ bugs_arg $ no_warnings_arg $ store_level_arg
    $ jobs_arg $ static_arg $ lint_arg $ verify_fixes_arg $ absint_arg
    $ trace_out_arg $ metrics_out_arg $ progress_arg $ store_arg)

let analyze_cmd =
  let doc = "Detect crash-consistency and performance bugs in a PM application." in
  Cmd.v (Cmd.info "analyze" ~doc) analyze_term

(* ------------------------------------------------------------------ *)
(* optimize: the cost-model-driven transformation pipeline             *)
(* ------------------------------------------------------------------ *)

let optimize name ops key_range seed version_str grouped bugs jobs progress store_dir =
  let config = { Mumak.Config.optimizing with jobs = max 1 jobs } in
  let print result =
    Fmt.pr "%a@." Mumak.Engine.pp_result result;
    match result.Mumak.Engine.opt with
    | None -> ()
    | Some o ->
        let shipped = Analysis.Opt.shipped o in
        (* the scriptable summary line CI gates on *)
        Fmt.pr "optimize: proven=%d ineffective=%d harmful=%d shipped=%d@."
          o.Analysis.Opt.proven o.Analysis.Opt.ineffective o.Analysis.Opt.harmful
          (List.length shipped);
        List.iteri
          (fun i (b : Analysis.Opt.bundle) ->
            Fmt.pr "bundle %d: [%s] %s — saves %d event(s) / %d modelled cycle(s)@." (i + 1)
              b.Analysis.Opt.b_plan.Analysis.Opt.p_rule
              (Analysis.Fix.to_string b.Analysis.Opt.b_plan.Analysis.Opt.p_fix)
              b.Analysis.Opt.b_measured_events b.Analysis.Opt.b_measured_cycles;
            List.iter
              (fun e -> Fmt.pr "    edit: %s@." (Pmtrace.Replay.edit_to_string e))
              b.Analysis.Opt.b_plan.Analysis.Opt.p_edits)
          shipped
  in
  ignore
    (drive ~name ~ops ~key_range ~seed ~version_str ~grouped ~bugs ~progress ~store_dir ~config
       ~print);
  exit 0

let optimize_cmd =
  let doc =
    "Synthesize persist transformations (fence batching, flush coalescing \
     and hoisting, non-temporal and clwb conversions) over the recorded \
     trace, rank them with the cost model, and verify each plan by replay \
     at every failure point of the rewritten trace under both crash views. \
     Only proven plans ship as the ranked patch bundle."
  in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(
      const optimize $ name_arg $ ops_arg $ key_range_arg $ seed_arg $ version_arg
      $ grouped_arg $ bugs_arg $ jobs_arg $ progress_arg $ store_arg)

let list_cmd =
  let doc = "List available targets and seeded bugs." in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(
      const (fun () ->
          Fmt.pr "Targets:@.";
          List.iter (Fmt.pr "  %s@.") registry_names;
          Fmt.pr "@.Seeded bugs:@.";
          List.iter (fun b -> Fmt.pr "  %a@." Bugreg.pp b) (Bugreg.all ()))
      $ const ())

(* ------------------------------------------------------------------ *)
(* query / explain / diff: the results-store surface                   *)
(* ------------------------------------------------------------------ *)

let ledger_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Results ledger directory (default: $(b,MUMAK_STORE) or \
           _mumak/store).")

let open_ledger dir = Store.Ledger.open_ ?dir ()

let short id = String.sub id 0 (min 12 (String.length id))

(* The optimize-phase bundles of a recorded run, read back from the
   ledger's phase summary. *)
let run_bundles (r : Store.Record.t) =
  let open Telemetry.Json in
  match List.assoc_opt "optimize" r.Store.Record.phases with
  | None -> None
  | Some opt_json ->
      Some (Option.value ~default:[] (Option.bind (member "bundles" opt_json) to_list_opt))

let pp_ledger_bundle i b =
  let open Telemetry.Json in
  let str j k = Option.value ~default:"?" (Option.bind (member k j) to_string_opt) in
  let num j k = Option.value ~default:0 (Option.bind (member k j) to_int_opt) in
  let plan = Option.value ~default:(Assoc []) (member "plan" b) in
  Fmt.pr "  bundle %d: [%s] %s %s — -%d event(s) / -%d cycle(s): %s@." (i + 1)
    (str b "verdict") (str plan "rule") (str plan "fix") (num b "measured_events")
    (num b "measured_cycles") (str b "detail")

let query store_dir target_filter kind_filter phase_filter digest_filter fix_verdict_filter
    show_findings show_bundles =
  (match fix_verdict_filter with
  | Some ("proven" | "ineffective" | "harmful") | None -> ()
  | Some v -> usage_error "unknown fix verdict %s (proven | ineffective | harmful)" v);
  let ledger = open_ledger store_dir in
  let runs, unreadable = Store.Ledger.load_all ledger in
  List.iter (Fmt.epr "mumak: unreadable run record %s@.") unreadable;
  let contains ~needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
    needle = "" || at 0
  in
  let run_matches (r : Store.Record.t) =
    (match target_filter with
    | Some t -> String.equal t r.Store.Record.target
    | None -> true)
    && (match digest_filter with
       | Some d -> String.starts_with ~prefix:d r.Store.Record.config_digest
       | None -> true)
  in
  let finding_matches (f : Store.Record.finding) =
    (match kind_filter with
    | Some k -> contains ~needle:k f.Store.Record.f_kind
    | None -> true)
    && (match phase_filter with
       | Some p -> String.equal p f.Store.Record.f_phase
       | None -> true)
    &&
    (* a fix-verdict filter selects findings that carry a fix whose
       replay-backed verdict (the annotation "verdict — detail") matches *)
    match fix_verdict_filter with
    | None -> true
    | Some v -> (
        f.Store.Record.f_fix <> None
        &&
        match f.Store.Record.f_verdict with
        | Some s -> String.starts_with ~prefix:v s
        | None -> false)
  in
  let filtering_findings =
    kind_filter <> None || phase_filter <> None || fix_verdict_filter <> None
  in
  let shown = ref 0 in
  List.iter
    (fun (r : Store.Record.t) ->
      if run_matches r then begin
        let findings = List.filter finding_matches r.Store.Record.findings in
        let bundles = if show_bundles then run_bundles r else None in
        (* --bundles narrows to runs that ran the optimize phase *)
        if ((not filtering_findings) || findings <> []) && (not show_bundles || bundles <> None)
        then begin
          incr shown;
          Fmt.pr "%a@." Store.Record.pp r;
          if show_findings || filtering_findings then
            List.iteri
              (fun i (f : Store.Record.finding) ->
                Fmt.pr "  %d. %s [%s] %s: %s%s@." (i + 1)
                  (short f.Store.Record.f_id)
                  f.Store.Record.f_phase f.Store.Record.f_kind f.Store.Record.f_detail
                  (match f.Store.Record.f_verdict with
                  | Some v when fix_verdict_filter <> None -> " (" ^ v ^ ")"
                  | _ -> ""))
              findings;
          match bundles with
          | None -> ()
          | Some [] -> Fmt.pr "  (optimize phase ran, no verified bundles)@."
          | Some bs -> List.iteri pp_ledger_bundle bs
        end
      end)
    runs;
  if !shown = 0 then Fmt.pr "no matching runs (%d in ledger)@." (List.length runs);
  exit (if unreadable = [] then 0 else 2)

let query_cmd =
  let doc =
    "List recorded runs and findings, filtered by target, finding kind \
     (substring), phase or configuration digest (prefix). A record that \
     cannot be parsed is reported on stderr, and the command exits 2."
  in
  let target_arg =
    Arg.(value & opt (some string) None & info [ "target" ] ~doc:"Only runs of this target.")
  in
  let kind_arg =
    Arg.(
      value & opt (some string) None
      & info [ "kind" ] ~doc:"Only findings whose kind contains this substring.")
  in
  let phase_arg =
    Arg.(
      value & opt (some string) None
      & info [ "phase" ]
          ~doc:
            "Only findings from this phase (fault_injection | trace_analysis \
             | static_analysis | abs_interp | lint).")
  in
  let digest_arg =
    Arg.(
      value & opt (some string) None
      & info [ "config-digest" ] ~doc:"Only runs whose configuration digest starts with this.")
  in
  let findings_arg =
    Arg.(value & flag & info [ "findings" ] ~doc:"List each run's findings too.")
  in
  let fix_verdict_arg =
    Arg.(
      value & opt (some string) None
      & info [ "fix-verdict" ] ~docv:"VERDICT"
          ~doc:
            "Only findings carrying a fix whose replay-backed verdict is \
             $(docv) (proven | ineffective | harmful). Implies --findings.")
  in
  let bundles_arg =
    Arg.(
      value & flag
      & info [ "bundles" ]
          ~doc:
            "List each run's verified optimizer bundles (runs without an \
             optimize phase are skipped).")
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const query $ ledger_dir_arg $ target_arg $ kind_arg $ phase_arg $ digest_arg
      $ fix_verdict_arg $ findings_arg $ bundles_arg)

let explain store_dir jsonl run_sel finding_sel =
  let ledger = open_ledger store_dir in
  match Store.Ledger.load_run ledger run_sel with
  | Error e -> usage_error "%s" e
  | Ok record -> (
      match Store.Explain.find record finding_sel with
      | Error e -> usage_error "%s" e
      | Ok pair ->
          if jsonl then print_string (Store.Explain.chain_to_string record pair)
          else Fmt.pr "%a" Store.Explain.pp (record, pair);
          exit 0)

let explain_cmd =
  let doc =
    "Print the causal chain behind one finding of a recorded run: failure \
     point, trace window, witness, crash-vs-recovered image diff and \
     verdict."
  in
  let run_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN" ~doc:"Run id (or unique prefix).")
  in
  let finding_arg =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"FINDING"
          ~doc:"Finding id prefix, exact signature, or 1-based index in the run.")
  in
  let jsonl_arg =
    Arg.(value & flag & info [ "jsonl" ] ~doc:"Emit the chain as JSON Lines instead of text.")
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const explain $ ledger_dir_arg $ jsonl_arg $ run_arg $ finding_arg)

let diff_runs store_dir json_out run_a run_b =
  let ledger = open_ledger store_dir in
  match (Store.Ledger.load_run ledger run_a, Store.Ledger.load_run ledger run_b) with
  | Error e, _ | _, Error e -> usage_error "%s" e
  | Ok a, Ok b ->
      let d = Store.Diff.compute a b in
      if json_out then print_endline (Telemetry.Json.to_string (Store.Diff.to_json d))
      else Fmt.pr "%a" Store.Diff.pp d;
      (* scriptable: new findings are the regression signal *)
      exit (if d.Store.Diff.new_findings = [] then 0 else 1)

let diff_cmd =
  let doc =
    "Compare two recorded runs by finding signature: new, fixed and \
     persisting findings. Exits 1 when run B has findings absent from run A."
  in
  let run_a_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN_A" ~doc:"Baseline run id.")
  in
  let run_b_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"RUN_B" ~doc:"Candidate run id.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the diff as a mumak.store JSON record.")
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(const diff_runs $ ledger_dir_arg $ json_arg $ run_a_arg $ run_b_arg)

(* ------------------------------------------------------------------ *)
(* validate: schema checks over the files mumak and bench emit         *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let bench_schema_version = 2

(* BENCH_*.json envelope shared with bench/main.ml: schema "mumak.bench"
   version 2, experiment/target strings, the full Config, a list of result
   rows and — new in v2 — a "meta" stamp (git commit, OCaml version, host
   cores, smoke flag, wall/alloc totals) that the trend gate compares
   across recorded runs. *)
let validate_bench json =
  let open Telemetry.Json in
  let field k cast = Option.bind (member k json) cast in
  let str k = field k to_string_opt in
  match (str "schema", field "version" to_int_opt) with
  | Some "mumak.bench", Some 2 -> (
      match
        (str "experiment", str "target", field "config" to_assoc_opt,
         field "rows" to_list_opt)
      with
      | Some _, Some _, Some _, Some rows -> (
          match field "meta" to_assoc_opt with
          | None -> Error "bench file: missing object field \"meta\""
          | Some _ ->
              let meta = Option.get (member "meta" json) in
              let meta_field k cast = Option.bind (member k meta) cast in
              let missing =
                List.filter_map Fun.id
                  [
                    (if meta_field "git_commit" to_string_opt = None then
                       Some "git_commit" else None);
                    (if meta_field "ocaml_version" to_string_opt = None then
                       Some "ocaml_version" else None);
                    (if meta_field "host_cores" to_int_opt = None then
                       Some "host_cores" else None);
                    (if meta_field "wall_seconds" to_float_opt = None then
                       Some "wall_seconds" else None);
                    (if meta_field "allocated_bytes" to_float_opt = None then
                       Some "allocated_bytes" else None);
                  ]
              in
              if missing = [] then
                Ok (Printf.sprintf "mumak.bench v2, %d row(s)" (List.length rows))
              else
                Error
                  (Printf.sprintf "bench file: meta is missing %s"
                     (String.concat ", " missing)))
      | None, _, _, _ -> Error "bench file: missing string field \"experiment\""
      | _, None, _, _ -> Error "bench file: missing string field \"target\""
      | _, _, None, _ -> Error "bench file: missing object field \"config\""
      | _, _, _, None -> Error "bench file: missing list field \"rows\""
      )
  | Some "mumak.bench", Some v ->
      Error
        (Printf.sprintf "bench file: unknown version %d (current is %d)" v
           bench_schema_version)
  | _ -> Error "not a mumak.bench file"

let is_jsonl contents =
  (* JSONL: the first line is the self-identifying header record *)
  let first_line =
    match String.index_opt contents '\n' with
    | Some i -> String.sub contents 0 i
    | None -> contents
  in
  match Telemetry.Json.of_string first_line with
  | Ok j ->
      Option.bind (Telemetry.Json.member "schema" j) Telemetry.Json.to_string_opt
      = Some Telemetry.Jsonl.schema_name
  | Error _ -> false

let validate_one path =
  let contents = try Ok (read_file path) with Sys_error e -> Error e in
  Result.bind contents (fun contents ->
      let trimmed = String.trim contents in
      if trimmed = "" then Error "empty file"
      else if is_jsonl trimmed then
        Result.map
          (fun n -> Printf.sprintf "%s v%d, %d record(s)" Telemetry.Jsonl.schema_name
               Telemetry.Jsonl.schema_version n)
          (Telemetry.Jsonl.validate_string contents)
      else
        match Telemetry.Json.of_string trimmed with
        | Error e -> Error (Printf.sprintf "JSON parse error: %s" e)
        | Ok json -> (
            match Telemetry.Json.member "traceEvents" json with
            | Some _ ->
                Result.map
                  (fun n -> Printf.sprintf "chrome trace, %d event(s)" n)
                  (Telemetry.Chrome_trace.validate json)
            | None ->
                if
                  Option.bind (Telemetry.Json.member "schema" json)
                    Telemetry.Json.to_string_opt
                  = Some Store.Record.schema_name
                then Store.Schema.validate json
                else validate_bench json))

let validate files =
  let failed = ref false in
  List.iter
    (fun path ->
      match validate_one path with
      | Ok msg -> Fmt.pr "%s: OK (%s)@." path msg
      | Error msg ->
          failed := true;
          Fmt.epr "%s: INVALID: %s@." path msg)
    files;
  exit (if !failed then 2 else 0)

let validate_cmd =
  let doc =
    "Validate telemetry, benchmark and results-store output files (Chrome \
     trace JSON from --trace-out, JSON Lines from --metrics-out, \
     BENCH_*.json from the bench harness, run and diff records from the \
     mumak.store ledger) against their schemas. Exits 2 on any malformed \
     file."
  in
  let files_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc:"File(s) to validate.")
  in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const validate $ files_arg)

let () =
  let info = Cmd.info "mumak" ~doc:"Black-box bug detection for persistent memory" in
  match
    Cmd.eval ~catch:false
      (Cmd.group ~default:analyze_term info
         [
           analyze_cmd; optimize_cmd; list_cmd; validate_cmd; query_cmd; explain_cmd;
           diff_cmd;
         ])
  with
  | 0 -> exit 0
  | _ -> exit 2 (* cmdliner usage/parse errors all map to the error code *)
