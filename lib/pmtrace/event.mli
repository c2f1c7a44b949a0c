(** A traced PM access: the device operation plus the execution context the
    instrumentation captured (monotonic instruction counter and, optionally,
    the call stack).

    Mirroring the optimisation in paper section 5, full backtraces are
    expensive, so traces normally carry only the instruction counter; the
    stack is re-attached on demand by a second, minimally instrumented
    execution (see {!Tracer.resolve_stacks}). *)

type t = {
  seq : int;
      (** monotonically increasing instruction counter, assigned by the
          tracer to {e every} hooked event — including loads when load
          tracing is on; the load-free view of a load-traced recording
          ({!Replay.load_free}) renumbers it *)
  op : Pmem.Op.t;  (** the device operation (store, flush, fence, load) *)
  stack : Callstack.capture option;
      (** the call path and per-frame ordinal at the instruction, when the
          tracer ran with stack capture enabled *)
}

val pp : Format.formatter -> t -> unit
(** ["#seq op [stack]"] — the trace dump format. *)
