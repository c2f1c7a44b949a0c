(** The Mumak pipeline (Figure 1): instrument, execute, inject faults with
    the recovery oracle, analyse the trace, and emit one combined report of
    unique bugs and warnings. *)

type result = {
  report : Report.t;
  failure_points : int;
  injections : int;
  executions : int;  (** target executions: the sum of [phase_metrics] *)
  trace_events : int;
  pm_stats : Pmem.Stats.t;
  metrics : Metrics.t;  (** the sum of [phase_metrics] *)
  phase_metrics : Phase.entry list;  (** the phase table, in execution order *)
  static : Analysis.Static.t option;
      (** the static analyzer's output (graph, invariants, raw findings)
          when [Config.static] was on *)
  absint : Analysis.Absint.t option;
      (** merged-CFG abstract interpreter output when [Config.absint] was
          on *)
  lint : Analysis.Lint.t option;
      (** anti-pattern detector output when [Config.lint] or
          [Config.verify_fixes] was on (verification replays lint too) *)
  fix_verdicts : Analysis.Verify_fix.t option;
      (** replay-backed verdict for every fix suggestion when
          [Config.verify_fixes] was on *)
  opt : Analysis.Opt.t option;
      (** the optimizer's verified transformation bundles when
          [Config.optimize] was on *)
  first_bug_injection : int option;
      (** 1-based position in the injection schedule (failure-point
          ordinal order) of the first fault whose oracle flagged a bug;
          [None] when fault injection found nothing *)
  worker_metrics : Metrics.t list;
      (** per-domain breakdown of the parallel injection phase; empty when
          the injection ran sequentially *)
  trace_signature : string;
      (** digest of the recorded event stream (or of the trace-level
          counters when no recording was made) — the workload-identity
          component of the run ledger's content address *)
  provenance : Provenance.t list;
      (** causal evidence per finding, in {!Report.ordered} order: failure
          point, trace window, witness, oracle verdict and crash-vs-
          recovered image diff where applicable *)
}

(* Re-run the target once with minimal instrumentation to attach call
   stacks to the trace-analysis findings (the instruction-counter
   optimisation of paper section 5). *)
let resolve_stacks (target : Target.t) ~wanted =
  if wanted = [] then Hashtbl.create 0
  else begin
    let device = Pmem.Device.create ~size:target.Target.pool_size () in
    let tracer = Pmtrace.Tracer.create device in
    let framer = Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer) in
    let resolved =
      Pmtrace.Tracer.resolve_stacks tracer ~wanted ~run:(fun () ->
          target.Target.run ~device ~framer)
    in
    Pmtrace.Tracer.detach tracer;
    resolved
  end

let oracle_finding (r : Fault_injection.record) =
  let kind, detail =
    match r.Fault_injection.oracle with
    | Oracle.Consistent -> assert false
    | Oracle.Unrecoverable msg -> (Report.Unrecoverable_state, msg)
    | Oracle.Crashed msg -> (Report.Recovery_crash, msg)
  in
  {
    Report.kind;
    phase = Report.Fault_injection;
    stack = Some r.Fault_injection.point.Fp_tree.capture;
    seq = None;
    detail;
    fix = None;
  }

let static_kind_to_report : Analysis.Static.kind -> Report.kind = function
  | Analysis.Static.Durability -> Report.Durability_bug
  | Analysis.Static.Transient -> Report.Transient_data_warning
  | Analysis.Static.Ordering -> Report.Ordering_violation
  | Analysis.Static.Atomicity -> Report.Atomicity_violation
  | Analysis.Static.Redundant_flush -> Report.Redundant_flush
  | Analysis.Static.Redundant_fence -> Report.Redundant_fence

(* Abstract findings live on merged paths no single recording need have
   exercised, so — like the static analyzer's — they are warnings: the
   over-approximation must not flip a clean target's exit code. *)
let absint_kind_to_report : Analysis.Absint.kind -> Report.kind = function
  | Analysis.Absint.Missing_flush -> Report.Missing_flush_warning
  | Analysis.Absint.Missing_fence -> Report.Missing_fence_warning
  | Analysis.Absint.Ordering -> Report.Ordering_violation

let lint_kind_to_report : Analysis.Lint.kind -> Report.kind = function
  | Analysis.Lint.Duplicate_flush | Analysis.Lint.Unnecessary_flush
  | Analysis.Lint.Nt_flush_misuse -> Report.Redundant_flush
  | Analysis.Lint.Redundant_fence -> Report.Redundant_fence
  | Analysis.Lint.Missing_flush -> Report.Missing_flush_warning

(* The verifier and the optimizer are parameterized over the oracle and
   failure-point enumerator so [Analysis] stays below the engine in the
   dependency order; these closures plug the engine's own back in. The
   image is a crash view the oracle may write through for the duration of
   the call, so recovery runs on it directly instead of on a copy. *)
let image_oracle config (target : Target.t) img =
  let device = Pmem.Device.adopt ~eadr:config.Config.eadr img in
  match Oracle.classify target.Target.recover device with
  | Oracle.Consistent -> None
  | Oracle.Unrecoverable msg -> Some (Report.kind_to_string Report.Unrecoverable_state, msg)
  | Oracle.Crashed msg -> Some (Report.kind_to_string Report.Recovery_crash, msg)

let verify_candidates config (target : Target.t) ~invariants recording candidates =
  let points events = Fault_injection.offline_points config events in
  Analysis.Verify_fix.verify ?invariants ~support:config.Config.invariant_support
    ~confidence:config.Config.invariant_confidence ~eadr:config.Config.eadr
    ~oracle:(image_oracle config target) ~points recording candidates

let analyze ?(config = Config.default) (target : Target.t) =
  (* Every step below runs as one phase of the table: named, traced,
     measured, and charged with the target executions it made, which the
     counted target's [run] tallies on whatever domain it runs. *)
  let table = Phase.create () in
  let phase ?workers p f = Phase.run table ?workers p f in
  let optional on p f = if on then Some (phase p f) else None in
  let target = Phase.counted table target in
  let report = Report.create ~target:target.Target.name in
  (* The one recording: under [Config.Replay] — and for every offline phase
     regardless of strategy — the target is recorded once and each consumer
     reads the recording instead of re-executing. It traces loads only when
     static analysis or fix verification needs them (dependency edges and
     pointer chases); every other consumer reads its load-free view, which
     equals a load-free recording because a store, flush or fence has the
     same stack ordinal either way. Both are created lazily inside the
     first phase that needs them, which pays for them. *)
  let recording =
    lazy
      (Pmtrace.Replay.record
         ~loads:(config.Config.static || config.Config.verify_fixes)
         ~eadr:config.Config.eadr ~pool_size:target.Target.pool_size
         (fun ~device ~framer -> target.Target.run ~device ~framer))
  in
  let view = lazy (Pmtrace.Replay.load_free (Lazy.force recording)) in
  (* Offline static analysis over the recording — dependency graph,
     invariant mining and fix suggestions. *)
  let static_result =
    optional config.Config.static Report.Static_analysis (fun () ->
        Analysis.Static.analyze ~runs:config.Config.invariant_runs
          ~support:config.Config.invariant_support
          ~confidence:config.Config.invariant_confidence ~eadr:config.Config.eadr
          (Pmtrace.Replay.events (Lazy.force recording)))
  in
  let invariants = Option.map (fun s -> s.Analysis.Static.invariants) static_result in
  (* Merge [invariant_runs] copies of the recording into one control-flow
     automaton and abstract-interpret it with the per-line persistency
     lattice — merged-path findings plus per-site safety proofs. A
     deterministic target records identically every run, so duplicating
     the recording's events reproduces what [invariant_runs] fresh
     recordings would feed the CFG merge (which is idempotent under
     duplication — a qcheck law) without a single extra execution. *)
  let absint_result =
    optional config.Config.absint Report.Abs_interp (fun () ->
        let evs = Pmtrace.Replay.events (Lazy.force view) in
        let a =
          Analysis.Absint.analyze ~eadr:config.Config.eadr
            (List.init (max 1 config.Config.invariant_runs) (fun _ -> evs))
        in
        Telemetry.Collector.count "absint.nodes"
          (Analysis.Cfg.node_count a.Analysis.Absint.cfg);
        Telemetry.Collector.count "absint.findings" (List.length a.Analysis.Absint.findings);
        Telemetry.Collector.count "absint.proven_sites" (Analysis.Absint.proven_count a);
        a)
  in
  (* Anti-pattern lint over the recording's load-free view, plus
     replay-backed verification of every fix suggestion (static and lint)
     over the recording itself — trace interpretations, never target
     re-executions. *)
  let lint_phase =
    optional (config.Config.lint || config.Config.verify_fixes) Report.Lint (fun () ->
        let lint_r =
          Analysis.Lint.analyze ~eadr:config.Config.eadr (Pmtrace.Replay.events (Lazy.force view))
        in
        Telemetry.Collector.count "lint.findings" (List.length lint_r.Analysis.Lint.findings);
        Telemetry.Collector.count "lint.events_saved" lint_r.Analysis.Lint.events_saved;
        if not config.Config.verify_fixes then (lint_r, None)
        else begin
          let candidate c_source c_kind c_stack c_pseq =
            Option.map (fun c_fix -> { Analysis.Verify_fix.c_source; c_kind; c_stack; c_pseq; c_fix })
          in
          let static_candidates =
            match static_result with
            | None -> []
            | Some s ->
                List.filter_map
                  (fun (f : Analysis.Static.finding) ->
                    candidate Analysis.Verify_fix.Static_finding
                      (Analysis.Static.kind_to_string f.Analysis.Static.kind)
                      f.Analysis.Static.stack f.Analysis.Static.seq f.Analysis.Static.fix)
                  s.Analysis.Static.findings
          in
          let lint_candidates =
            List.filter_map
              (fun (f : Analysis.Lint.finding) ->
                candidate Analysis.Verify_fix.Lint_finding
                  (Analysis.Lint.kind_to_string f.Analysis.Lint.l_kind)
                  f.Analysis.Lint.l_stack f.Analysis.Lint.l_pseq f.Analysis.Lint.l_fix)
              lint_r.Analysis.Lint.findings
          in
          ( lint_r,
            Some
              (verify_candidates config target ~invariants (Lazy.force recording)
                 (static_candidates @ lint_candidates)) )
        end)
  in
  let lint_result = Option.map fst lint_phase in
  let fix_verdicts = Option.bind lint_phase snd in
  (* The optimizer — synthesize persist-transformation plans over the
     recording's load-free view, price them with the cost model, and verify
     each candidate by replay at all failure points of its rewritten trace
     under both crash views. Pure trace interpretation: the phase adds zero
     target executions. *)
  let opt_result =
    optional config.Config.optimize Report.Optimize (fun () ->
        let noload = Lazy.force view in
        Analysis.Opt.optimize ?invariants ?absint:absint_result
          ~weights:Analysis.Cost.static_weights
          ~support:config.Config.invariant_support
          ~confidence:config.Config.invariant_confidence ~eadr:config.Config.eadr
          ~oracle:(image_oracle config target)
          ~points:(Fault_injection.offline_points config)
          noload)
  in
  (* Instrumented execution(s), failure-point tree, injection, and the
     trace analysis the execution or the recording feeds. Under [Replay]
     the recording's failure points come out too. *)
  let fi_result, pm_stats, replay_points, ta =
    phase Report.Fault_injection
      ~workers:(fun (fi, _, _, _) -> fi.Fault_injection.worker_metrics)
      (fun () ->
        match config.Config.strategy with
        | Config.Reexecute ->
            let ta = Trace_analysis.create config in
            let tree, stats =
              Telemetry.Collector.span ~cat:"step" "build_tree" (fun () ->
                  Fault_injection.build_tree
                    ~extra_listener:(fun event _stack -> Trace_analysis.feed ta event)
                    config target)
            in
            ( Telemetry.Collector.span ~cat:"step" "injection" (fun () ->
                  Fault_injection.inject_reexecute config target tree),
              stats,
              None,
              ta )
        | Config.Replay ->
            (* Replay-first: the shared recording stands in for every live
               execution. One walk over its packed events, read by
               position, feeds the trace analysis (the same stream the
               live strategy feeds it) and the failure-point enumeration,
               whose tree is injected on; both handle each code path once,
               by its stack code. Crash images stream out of one batched
               materialization pass per worker. *)
            let r = Lazy.force view in
            let trace = Pmtrace.Replay.arena r in
            let ta = Trace_analysis.create ~trace config in
            let en = Fault_injection.enumeration config in
            for i = 0 to Pmtrace.Arena.length trace - 1 do
              Trace_analysis.step ta i;
              Fault_injection.enumerate_slot en trace i
            done;
            ( Telemetry.Collector.span ~cat:"step" "injection" (fun () ->
                  Fault_injection.inject_replay config target ~recording:r en),
              Pmtrace.Replay.stats r,
              Some (Fault_injection.enumerated en),
              ta ))
  in
  (* Close the streaming trace analysis and attach stacks to its findings.
     Under [Replay] the recording already carries a stack on every event
     and a finding's seq is its event's 1-based position, so each stack is
     read off by index for free; re-execution pays one extra minimal
     execution. *)
  let raw_findings, resolved =
    phase Report.Trace_analysis (fun () ->
        let raw_findings = Trace_analysis.finish ta in
        let resolved =
          if not config.Config.resolve_stacks then Hashtbl.create 0
          else
            Telemetry.Collector.span ~cat:"step" "resolve_stacks" (fun () ->
                let wanted = List.map (fun r -> r.Trace_analysis.seq) raw_findings in
                match config.Config.strategy with
                | Config.Replay ->
                    let trace = Pmtrace.Replay.arena (Lazy.force view) in
                    let resolved = Hashtbl.create (List.length wanted) in
                    List.iter
                      (fun seq ->
                        if seq >= 1 && seq <= Pmtrace.Arena.length trace then
                          Option.iter (Hashtbl.replace resolved seq)
                            (Pmtrace.Arena.capture trace (seq - 1)))
                      wanted;
                    resolved
                | Config.Reexecute -> resolve_stacks target ~wanted)
        in
        Telemetry.Collector.count "ta.findings" (List.length raw_findings);
        (raw_findings, resolved))
  in
  let trace_signature, provenance =
    phase Report.Report (fun () ->
        (* Combine: fault-injection bugs first, then static and lint
           findings (so the fix-carrying version of a finding wins
           deduplication against its trace-analysis twin), then
           trace-analysis findings. Findings carrying a fix are indexed by
           the fix's edit identity so verification verdicts can be attached
           to them afterwards. *)
        let fix_findings : (string, Report.finding) Hashtbl.t = Hashtbl.create 16 in
        let add (finding : Report.finding) =
          if config.Config.report_warnings || not (Report.kind_is_warning finding.Report.kind)
          then begin
            ignore (Report.add report finding);
            match finding.Report.fix with
            | Some fx -> Hashtbl.replace fix_findings (Analysis.Fix.key fx) finding
            | None -> ()
          end
        in
        let fi_bugs = Fault_injection.bug_records fi_result in
        List.iter (fun r -> add (oracle_finding r)) fi_bugs;
        Option.iter
          (fun s ->
            List.iter
              (fun (f : Analysis.Static.finding) ->
                add
                  {
                    Report.kind = static_kind_to_report f.Analysis.Static.kind;
                    phase = Report.Static_analysis;
                    stack = f.Analysis.Static.stack;
                    seq = Some f.Analysis.Static.seq;
                    detail = f.Analysis.Static.detail;
                    fix = f.Analysis.Static.fix;
                  })
              s.Analysis.Static.findings)
          static_result;
        (* Abstract-interpretation findings ride after the static ones so a
           fix-carrying static finding at the same site wins deduplication
           (the report key is kind + code path, phase-blind by design). *)
        Option.iter
          (fun a ->
            List.iter
              (fun (f : Analysis.Absint.finding) ->
                add
                  {
                    Report.kind = absint_kind_to_report f.Analysis.Absint.f_kind;
                    phase = Report.Abs_interp;
                    stack = f.Analysis.Absint.f_site;
                    seq = Some f.Analysis.Absint.f_pseq;
                    detail = f.Analysis.Absint.f_detail;
                    fix = None;
                  })
              a.Analysis.Absint.findings)
          absint_result;
        (match lint_result with
        | Some l when config.Config.lint ->
            List.iter
              (fun (f : Analysis.Lint.finding) ->
                add
                  {
                    Report.kind = lint_kind_to_report f.Analysis.Lint.l_kind;
                    phase = Report.Lint;
                    stack = f.Analysis.Lint.l_stack;
                    seq = Some f.Analysis.Lint.l_pseq;
                    detail = f.Analysis.Lint.l_detail;
                    fix = f.Analysis.Lint.l_fix;
                  })
              l.Analysis.Lint.findings
        | Some _ | None -> ());
        List.iter
          (fun (r : Trace_analysis.raw) ->
            add
              {
                Report.kind = r.Trace_analysis.kind;
                phase = Report.Trace_analysis;
                stack = Hashtbl.find_opt resolved r.Trace_analysis.seq;
                seq = Some r.Trace_analysis.seq;
                detail = r.Trace_analysis.detail;
                fix = None;
              })
          raw_findings;
        (* Attach the replay-backed verdicts to the findings whose fixes
           they judged (an annotation side-table: arrives post-dedup, leaves
           the report signature untouched). *)
        Option.iter
          (fun v ->
            List.iter
              (fun (o : Analysis.Verify_fix.outcome) ->
                let fix = o.Analysis.Verify_fix.o_candidate.Analysis.Verify_fix.c_fix in
                Option.iter
                  (fun finding ->
                    Report.annotate report finding
                      (Analysis.Verify_fix.verdict_to_string o.Analysis.Verify_fix.o_verdict
                      ^ " — " ^ o.Analysis.Verify_fix.o_detail))
                  (Hashtbl.find_opt fix_findings (Analysis.Fix.key fix)))
              v.Analysis.Verify_fix.outcomes)
          fix_verdicts;
        (* Provenance: causal evidence per finding. Fault-injection records
           carry their crash-vs-recovered image diffs, taken at the oracle's
           verdict under either strategy. When a phase read the recording's
           load-free view (the replay strategy — i.e. the default — or any
           offline phase but the static analyzer) the trace windows and
           failure-point persistency indices are read off it by event
           position; without it the evidence degrades to witness, verdict
           and image diff. *)
        let read_view = if Lazy.is_val view then Some (Lazy.force view) else None in
        let trace_signature =
          match read_view with
          | Some r -> Pmtrace.Replay.digest r
          | None ->
              Digest.to_hex
                (Digest.string
                   (Printf.sprintf "%s#%d#%d#%d#%d" target.Target.name
                      (Trace_analysis.event_count ta) pm_stats.Pmem.Stats.stores
                      (Pmem.Stats.flushes pm_stats) (Pmem.Stats.fences pm_stats)))
        in
        let window_at anchor_index =
          match read_view with
          | Some r when anchor_index >= 0 && anchor_index < Pmtrace.Replay.length r ->
              let lo = max 0 (anchor_index - Provenance.window_radius) in
              let hi =
                min (Pmtrace.Replay.length r - 1) (anchor_index + Provenance.window_radius)
              in
              List.init
                (hi - lo + 1)
                (fun k ->
                  let i = lo + k in
                  let e = Pmtrace.Replay.event r i in
                  Printf.sprintf "%c #%d %s"
                    (if i = anchor_index then '>' else ' ')
                    e.Pmtrace.Event.seq
                    (Pmem.Op.to_string e.Pmtrace.Event.op))
          | _ -> []
        in
        (* persistency index of each failure-point ordinal: the replay
           strategy's own enumeration, or — when only an offline phase read
           the view — the same step function walked over it *)
        let pseq_of_ordinal = Hashtbl.create 64 in
        let points =
          match (replay_points, read_view) with
          | Some points, _ -> points
          | None, Some r ->
              let trace = Pmtrace.Replay.arena r in
              let en = Fault_injection.enumeration config in
              for i = 0 to Pmtrace.Arena.length trace - 1 do
                Fault_injection.enumerate_slot en trace i
              done;
              Fault_injection.enumerated en
          | None, None -> []
        in
        List.iter (fun (ordinal, pseq, _) -> Hashtbl.replace pseq_of_ordinal ordinal pseq) points;
        let fi_evidence = Hashtbl.create 16 in
        List.iter
          (fun (rc : Fault_injection.record) ->
            let p = rc.Fault_injection.point in
            Hashtbl.replace fi_evidence
              (Pmtrace.Callstack.capture_to_string p.Fp_tree.capture)
              rc)
          fi_bugs;
        let provenance_of (f : Report.finding) =
          let signature = Report.finding_signature f in
          let stack =
            Option.map
              (fun (c : Pmtrace.Callstack.capture) ->
                (c.Pmtrace.Callstack.path, c.Pmtrace.Callstack.op_index))
              f.Report.stack
          in
          let fi_record =
            match (f.Report.phase, f.Report.stack) with
            | Report.Fault_injection, Some c ->
                Hashtbl.find_opt fi_evidence (Pmtrace.Callstack.capture_to_string c)
            | _ -> None
          in
          let failure_point =
            Option.map
              (fun (rc : Fault_injection.record) ->
                let p = rc.Fault_injection.point in
                {
                  Provenance.fp_path = p.Fp_tree.capture.Pmtrace.Callstack.path;
                  fp_op_index = p.Fp_tree.capture.Pmtrace.Callstack.op_index;
                  fp_ordinal = p.Fp_tree.ordinal;
                  fp_pseq = Hashtbl.find_opt pseq_of_ordinal p.Fp_tree.ordinal;
                })
              fi_record
          in
          let anchor_index =
            match (failure_point, f.Report.seq) with
            | Some { Provenance.fp_pseq = Some pseq; _ }, _ ->
                (* load-free recording: pseq = 1-based event position *)
                Some (pseq - 1)
            | _, Some seq ->
                (* a recording's seq is its event's 1-based position *)
                Some (seq - 1)
            | _ -> None
          in
          let witness, verdict =
            match fi_record with
            | Some rc ->
                let o = Oracle.to_string rc.Fault_injection.oracle in
                (o, Some o)
            | None -> (f.Report.detail, Report.annotation report f)
          in
          {
            Provenance.p_finding = Provenance.id_of_signature signature;
            p_signature = signature;
            p_kind = Report.kind_to_string f.Report.kind;
            p_phase = Report.phase_to_string f.Report.phase;
            p_detail = f.Report.detail;
            p_stack = stack;
            p_seq = f.Report.seq;
            p_failure_point = failure_point;
            p_window = (match anchor_index with Some i -> window_at i | None -> []);
            p_witness = witness;
            p_verdict = verdict;
            p_fix = Option.map Analysis.Fix.to_string f.Report.fix;
            p_image_diff =
              Option.bind fi_record (fun (rc : Fault_injection.record) ->
                  rc.Fault_injection.image_diff);
          }
        in
        (trace_signature, List.map provenance_of (Report.ordered report)))
  in
  let phase_metrics = Phase.entries table in
  let result =
    {
      report;
      failure_points = Fp_tree.size fi_result.Fault_injection.tree;
      injections = List.length fi_result.Fault_injection.records;
      executions = Phase.executions phase_metrics;
      trace_events = Trace_analysis.event_count ta;
      pm_stats;
      metrics = Phase.total phase_metrics;
      phase_metrics;
      static = static_result;
      absint = absint_result;
      lint = lint_result;
      fix_verdicts;
      opt = opt_result;
      first_bug_injection = Fault_injection.injections_to_first_bug fi_result;
      worker_metrics = fi_result.Fault_injection.worker_metrics;
      trace_signature;
      provenance;
    }
  in
  (* Pipeline-level counters, so the exported telemetry is a self-contained
     record of the run ("trace.events" — raw events across all executions —
     comes from the tracer itself). *)
  Telemetry.Collector.count "fp.discovered" result.failure_points;
  Telemetry.Collector.count "injections" result.injections;
  Telemetry.Collector.count "executions" result.executions;
  Telemetry.Collector.count "ta.events" result.trace_events;
  Telemetry.Collector.count "pm.stores" pm_stats.Pmem.Stats.stores;
  Telemetry.Collector.count "pm.flushes" (Pmem.Stats.flushes pm_stats);
  Telemetry.Collector.count "pm.fences" (Pmem.Stats.fences pm_stats);
  Telemetry.Progress.finish ();
  result

let pp_result ppf r =
  Fmt.pf ppf "%a@.failure points: %d, injections: %d, executions: %d, trace events: %d@.%a@."
    Report.pp r.report r.failure_points r.injections r.executions r.trace_events Metrics.pp
    r.metrics;
  (match r.absint with Some a -> Fmt.pf ppf "%a@." Analysis.Absint.pp a | None -> ());
  (match r.lint with
  | Some l ->
      Fmt.pf ppf
        "lint: %d finding(s) over %d epoch(s) — %d redundant flush(es), %d redundant \
         fence(s), %d missing-flush spot(s); est. %d cycles / %d events saved@."
        (List.length l.Analysis.Lint.findings)
        l.Analysis.Lint.epochs l.Analysis.Lint.redundant_flushes
        l.Analysis.Lint.redundant_fences l.Analysis.Lint.missing_flush_spots
        l.Analysis.Lint.cycles_saved l.Analysis.Lint.events_saved
  | None -> ());
  (match r.fix_verdicts with
  | Some v ->
      Fmt.pf ppf "fix verdicts: proven=%d ineffective=%d harmful=%d (%d replays)@."
        v.Analysis.Verify_fix.proven v.Analysis.Verify_fix.ineffective
        v.Analysis.Verify_fix.harmful v.Analysis.Verify_fix.replays
  | None -> ());
  (match r.opt with
  | Some o ->
      Fmt.pf ppf
        "optimizer: %d plan(s) synthesized, %d verified: proven=%d ineffective=%d harmful=%d \
         (%d replays; baseline %d events / %d cycles)@."
        o.Analysis.Opt.synthesized o.Analysis.Opt.verified o.Analysis.Opt.proven
        o.Analysis.Opt.ineffective o.Analysis.Opt.harmful o.Analysis.Opt.replays
        o.Analysis.Opt.baseline_events o.Analysis.Opt.baseline_cycles;
      List.iter
        (fun b -> Fmt.pf ppf "  %a@." Analysis.Opt.pp_bundle b)
        o.Analysis.Opt.bundles
  | None -> ());
  match r.worker_metrics with
  | [] -> ()
  | workers ->
      List.iteri (fun i m -> Fmt.pf ppf "  worker %d: %a@." i Metrics.pp m) workers
