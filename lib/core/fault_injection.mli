(** Fault injection (paper section 4.1): crash the workload once per unique
    failure point, run the application's own recovery on the resulting
    program-order-prefix image, and report the states recovery cannot
    handle.

    A failure point is a persistency instruction (flush or fence) reached
    through a unique call stack, counted only when at least one PM store
    happened since the previous failure point. [Config.Store_level]
    granularity — every store a failure point — exists for the ablation
    study. *)

type record = {
  point : Fp_tree.point;
  oracle : Oracle.outcome;
  image_diff : Provenance.image_diff option;
      (** when the oracle flagged a bug: what recovery persisted over the
          crash image ({!Provenance.image_diff}), taken at the verdict under
          both strategies; [None] for consistent points *)
}

type result = {
  tree : Fp_tree.t;
  records : record list;
      (** always sorted by failure-point discovery ordinal — the
          deterministic-merge rule that makes reports identical no matter
          how injections were scheduled over worker domains *)
  executions : int;  (** workload executions performed *)
  worker_metrics : Metrics.t list;
      (** per-worker-domain resource usage of the parallel injection phase
          ([Config.jobs] entries); empty for the sequential loop *)
}

exception Crash_now
(** Raised from the instrumentation hook to simulate the crash; the image
    is captured before raising, so unwinding code cannot pollute it. *)

val fp_listener :
  granularity:Config.granularity ->
  on_fp:(Pmtrace.Callstack.capture -> unit) ->
  Pmtrace.Event.t ->
  Pmtrace.Callstack.t ->
  unit
(** The shared failure-point detector (stateful: create one per
    execution). *)

val build_tree :
  ?extra_listener:(Pmtrace.Event.t -> Pmtrace.Callstack.t -> unit) ->
  Config.t ->
  Target.t ->
  Fp_tree.t * Pmem.Stats.t
(** One instrumented execution building the failure-point tree (steps 4–5
    of Figure 1). [extra_listener] lets the engine stream the trace
    analysis off the same execution. *)

type enumeration
(** The offline failure-point detector over one recorded event stream, as
    a step function: feed events in order with {!enumerate_step}, read the
    points with {!enumerated}. Lets one walk over a recording feed the
    detector next to other consumers. *)

val enumeration : Config.t -> enumeration

val enumerate_step : enumeration -> Pmtrace.Event.t -> unit
(** Consume the next recorded event (events must carry stacks). *)

val enumerated : enumeration -> (int * int * Pmtrace.Callstack.capture) list
(** The failure points of the events fed so far, as [(ordinal, pseq,
    capture)] triples in discovery order: each unique failure point's
    discovery ordinal, the persistency index of its first dynamic
    occurrence, and the call stack it fires under. The ordinals coincide
    with the ones {!build_tree} assigns on a live execution of the same
    deterministic workload, so points enumerated offline address the live
    tree. *)

val offline_points :
  Config.t -> Pmtrace.Event.t list -> (int * int * Pmtrace.Callstack.capture) list
(** {!enumerated} after feeding every event of the list. *)

val inject_reexecute : Config.t -> Target.t -> Fp_tree.t -> result
(** The paper's injection loop: re-execute the workload until every leaf is
    visited, one fault per execution (steps 6–9 of Figure 1). Recovery runs
    on a copy-on-write view of each crash image, so flagged records carry
    their image diff. With
    [Config.jobs > 1] the leaves are partitioned round-robin by ordinal
    over that many worker domains, each re-executing against its own
    private device/tracer/tree, and the records merged back in ordinal
    order — byte-for-byte the sequential result (asserted by the
    differential tests). *)

val inject_replay :
  Config.t ->
  Target.t ->
  recording:Pmtrace.Replay.t ->
  points:(int * int * Pmtrace.Callstack.capture) list ->
  result
(** Replay-first injection ([Config.Replay], the default): rebuild the
    failure-point tree from [points], the recording's {!enumerated}
    failure points (same ordinals a live {!build_tree} assigns on the
    deterministic workload), materialize
    every point's crash image in one batched prefix-incremental replay pass
    per worker ({!Pmtrace.Replay.materialize}), and stream the recovery
    oracle over the images — constant image memory, and the target is never
    re-executed on the replayed path. With [Config.jobs > 1] the points are
    partitioned round-robin by ordinal over that many domains, each running
    its own materialization pass over the shared immutable recording, and
    the records merged back in ordinal order. A flagged record's image diff
    is taken inside the materialization callback, while its view is
    valid.

    Points the replay pass cannot reach (nondeterminism with respect to the
    recording, recovery-side faults) fall back to one live targeted
    re-execution each, counted in [result.executions] and the
    ["fp.replay_fallback"] telemetry counter. *)

val bug_records : result -> record list

val injections_to_first_bug : result -> int option
(** 1-based position in [result.records] — ordinal order, which is the
    order faults are injected in — of the first injection whose oracle
    flagged a bug ([None] if no injection found one). *)
