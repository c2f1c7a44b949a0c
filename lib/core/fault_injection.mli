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
  worker_metrics : Metrics.t list;
      (** per-worker-domain resource usage of the parallel injection phase
          ([Config.jobs] entries, clamped to the point count); empty when
          the schedule ran inline *)
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
    detector next to other consumers; {!inject_replay} then injects on the
    failure-point tree it built. *)

val enumeration : Config.t -> enumeration

val enumerate_step : enumeration -> Pmtrace.Event.t -> unit
(** Consume the next recorded event (events must carry stacks). *)

val enumerate_slot : enumeration -> Pmtrace.Arena.t -> int -> unit
(** [enumerate_slot en trace i] consumes the [i]-th event of a recording's
    packed trace, read by position: the same step as {!enumerate_step} on
    the decoded event, except that the failure-point tree is only touched
    for a stack code ({!Pmtrace.Arena.code}) not seen before. Feed one
    enumeration from one of the two, never both. *)

val enumerated : enumeration -> (int * int * Pmtrace.Callstack.capture) list
(** The failure points of the events fed so far, as [(ordinal, pseq,
    capture)] triples in discovery order: each unique failure point's
    discovery ordinal, the persistency index of its first dynamic
    occurrence, and the call stack it fires under. The ordinals coincide
    with the ones {!build_tree} assigns on a live execution of the same
    deterministic workload. *)

val offline_points :
  Config.t -> Pmtrace.Event.t list -> (int * int * Pmtrace.Callstack.capture) list
(** {!enumerated} after feeding every event of the list. *)

(** {1 Injection}

    Both strategies run one schedule: one fault per failure point, the
    points dealt round-robin by discovery ordinal over [Config.jobs] worker
    domains (inline when [jobs] is 1, never more domains than points), and
    the records merged back in ordinal order — byte-for-byte the result of
    any other worker count (asserted by the differential tests). The
    schedule sets the {!Telemetry.Progress} total to the point count, and
    recovery always runs on a copy-on-write view of the crash image, so a
    flagged record carries its image diff. *)

val inject_reexecute : Config.t -> Target.t -> Fp_tree.t -> result
(** The paper's injection loop ([Config.Reexecute], steps 6–9 of Figure 1):
    one targeted re-execution per failure point of the tree, crashing at
    the first dynamic occurrence of that point. A point whose run misses it
    is counted in the ["fp.unreached"] telemetry counter and left out of
    the records; the rest of the share still runs. *)

val inject_replay :
  Config.t -> Target.t -> recording:Pmtrace.Replay.t -> enumeration -> result
(** Replay-first injection ([Config.Replay], the default) on the failure
    points the enumeration found walking [recording]: each worker
    materializes its share's crash images in one batched prefix-incremental
    pass over the shared immutable recording ({!Pmtrace.Replay.materialize})
    and streams the recovery oracle over them — constant image memory, and
    the target is never re-executed. The enumeration walked the same
    recording, so every point is reached; one that is not is an assertion
    failure. *)

val bug_records : result -> record list

val injections_to_first_bug : result -> int option
(** 1-based position in [result.records] — ordinal order, which is the
    order faults are injected in — of the first injection whose oracle
    flagged a bug ([None] if no injection found one). *)
