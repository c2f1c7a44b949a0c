(** The Mumak pipeline (paper Figure 1): instrument, execute, inject faults
    with the recovery oracle, analyse the trace, and emit one combined
    report of unique bugs and warnings. *)

type result = {
  report : Report.t;
  failure_points : int;  (** unique leaves of the failure-point tree *)
  injections : int;  (** faults injected (= recoveries run) *)
  executions : int;
      (** target executions performed: the sum of [phase_metrics]'
          executions, each counted as it ran *)
  trace_events : int;  (** PM instructions observed *)
  pm_stats : Pmem.Stats.t;
      (** device counters of the first instrumented execution (real
          store/flush/fence totals, under either strategy) *)
  metrics : Metrics.t;  (** total resource usage: the sum of [phase_metrics] *)
  phase_metrics : Phase.entry list;
      (** the phase table: every step of the analysis, in execution order,
          with its resource usage and the target executions it made —
          [Static_analysis], [Abs_interp], [Lint] (lint and fix
          verification), [Optimize], [Fault_injection] (the tree-building
          run under [Reexecute], the worker domains' allocations
          included), [Trace_analysis] (stack resolution included) and
          [Report] (combining the findings, the trace digest and
          provenance). Only the optional phases that are switched on
          appear. The shared recording is paid by the first phase that
          reads it. *)
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
      (** the optimizer's replay-verified transformation bundles when
          [Config.optimize] was on — proven plans first, best measured
          savings first *)
  first_bug_injection : int option;
      (** 1-based position in the injection schedule (failure-point
          ordinal order) of the first fault whose oracle flagged a bug;
          [None] when fault injection found nothing *)
  worker_metrics : Metrics.t list;
      (** per-domain breakdown of the parallel injection phase
          ([Config.jobs] entries); empty when injection ran sequentially *)
  trace_signature : string;
      (** digest of the recorded event stream (or of the trace-level
          counters when no recording was made) — the workload-identity
          component of the run ledger's content address *)
  provenance : Provenance.t list;
      (** causal evidence per finding, in {!Report.ordered} order: failure
          point, trace window, witness, oracle verdict and crash-vs-
          recovered image diff where applicable *)
}

val resolve_stacks :
  Target.t -> wanted:int list -> (int, Pmtrace.Callstack.capture) Hashtbl.t
(** Re-run the target once with minimal instrumentation to attach call
    stacks to findings identified by instruction counter (the optimisation
    of paper section 5). *)

val analyze : ?config:Config.t -> Target.t -> result
(** Run the full pipeline on a black-box target. *)

val pp_result : Format.formatter -> result -> unit
