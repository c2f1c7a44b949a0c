(** Analysis configuration. The defaults match the paper's design choices;
    the alternatives exist for the ablation benchmarks. *)

type granularity =
  | Persistency_instruction
      (** failure points at flushes/fences only (the paper's choice) *)
  | Store_level  (** failure points at every PM store (the ablation) *)

type strategy =
  | Replay
      (** record the workload once, materialize every failure point's crash
          image offline from that single recording in one batched
          prefix-incremental replay pass, and stream the oracle over the
          images; the target never runs again (the default) *)
  | Reexecute
      (** re-run the workload once per failure point, as the original Mumak
          does (cost-faithful: the reference the differentials compare
          [Replay] against, and the benchmarks' cost model) *)

type t = {
  granularity : granularity;
  strategy : strategy;
  report_warnings : bool;  (** include the warning classes in the report *)
  resolve_stacks : bool;
      (** run the extra minimally-instrumented execution that attaches call
          stacks to trace-analysis findings (paper section 5) *)
  eadr : bool;
      (** analyse for an eADR platform (persistence domain extends to the
          CPU caches, paper sections 2 and 4.3): fault injection is
          unchanged — atomicity/ordering bugs survive eADR — but the trace
          analysis stops reporting unflushed stores as durability bugs *)
  static : bool;
      (** run the offline persistency dependency-graph analyzer before the
          dynamic phases: builds per-cacheline store→flush→fence lineages
          and mines likely ordering/atomicity invariants from the shared
          recording, and attaches fix suggestions to its findings. The
          recording then also traces loads (dependency edges and pointer
          chases need them); every other phase reads its load-free view,
          so the run still executes the target once. *)
  invariant_runs : int;
      (** how many times the invariant miner (and the abstract
          interpreter's control-flow merge) pools the one recording. The
          target is deterministic, so this stands in for that many
          identical executions: support counts scale with it, at no extra
          execution. *)
  invariant_support : int;
      (** minimum dynamic instances before a candidate invariant is kept *)
  invariant_confidence : float;
      (** minimum fraction of instances that must satisfy a candidate
          atomicity invariant for it to be reported when violated *)
  jobs : int;
      (** worker domains for the injection schedule both strategies share.
          Each fault injection is independent — a materialization pass over
          the shared immutable recording, or a re-execution against its own
          device — so the loop is embarrassingly parallel; [jobs > 1]
          deals the failure points round-robin by discovery ordinal over
          that many domains and merges the records deterministically
          (sorted by ordinal). [1] (the default) injects inline. *)
  lint : bool;
      (** run the epoch-based anti-pattern detectors (redundant/duplicate
          flushes, redundant fences, missing-flush hot spots) over a
          recorded trace and add their findings to the report *)
  verify_fixes : bool;
      (** verify every fix suggestion (static and lint) by rewriting the
          recorded trace, replaying it, and re-running the oracle and the
          detectors: verdicts proven / ineffective / harmful. The shared
          recording then traces loads (for the static recheck); the phase
          costs one replay per fix plus one, never a target execution. *)
  absint : bool;
      (** abstract-interpret a control-flow automaton merged from
          [invariant_runs] copies of the recording with a per-cache-line
          persistency lattice: reports missing-flush/missing-fence/ordering
          findings on merged paths no single recording exercised (each with
          a concrete path witness) and proves failure-point sites safe,
          which the optimizer uses to rank plans *)
  optimize : bool;
      (** synthesize persist-transformation plans (fence batching, flush
          coalescing/hoisting, non-temporal and clwb conversions) over the
          recorded trace, price them with the cost model, and verify each
          candidate by replay at all failure points of the rewritten trace
          under both crash views; only proven plans ship as the ranked
          patch bundle. Costs replays over the shared recording, never
          extra target executions. *)
}

let default =
  {
    granularity = Persistency_instruction;
    strategy = Replay;
    report_warnings = true;
    resolve_stacks = true;
    eadr = false;
    static = false;
    invariant_runs = 2;
    invariant_support = 3;
    invariant_confidence = 0.9;
    jobs = 1;
    lint = false;
    verify_fixes = false;
    absint = false;
    optimize = false;
  }

let granularity_name = function
  | Persistency_instruction -> "persistency_instruction"
  | Store_level -> "store_level"

let strategy_name = function
  | Replay -> "replay"
  | Reexecute -> "reexecute"

(** Machine encoding of a configuration, embedded in bench results and
    telemetry exports so a recorded run is reproducible from its output
    alone. *)
let to_json t =
  let open Telemetry.Json in
  Assoc
    [
      ("granularity", String (granularity_name t.granularity));
      ("strategy", String (strategy_name t.strategy));
      ("report_warnings", Bool t.report_warnings);
      ("resolve_stacks", Bool t.resolve_stacks);
      ("eadr", Bool t.eadr);
      ("static", Bool t.static);
      ("invariant_runs", Int t.invariant_runs);
      ("invariant_support", Int t.invariant_support);
      ("invariant_confidence", Float t.invariant_confidence);
      ("jobs", Int t.jobs);
      ("lint", Bool t.lint);
      ("verify_fixes", Bool t.verify_fixes);
      ("absint", Bool t.absint);
      ("optimize", Bool t.optimize);
    ]

(** [default] plus the full static pipeline: dependency-graph analysis,
    invariant mining and fix suggestions. *)
let static_analysis = { default with static = true }

(** The lint pipeline: anti-pattern detectors plus verified fix
    suggestions, alongside the default dynamic phases. *)
let linting = { default with lint = true; verify_fixes = true }

(** The optimizer pipeline: the lint detectors and the merged-trace
    abstract interpreter feed plan synthesis, and every plan is
    replay-verified — all off the single shared recording, so the run
    still costs one target execution. *)
let optimizing = { default with lint = true; absint = true; optimize = true }

(** The configuration the benchmarks use to mirror the original system's
    cost model. *)
let faithful = { default with strategy = Reexecute }
