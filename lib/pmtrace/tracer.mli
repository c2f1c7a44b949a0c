(** Glue between a {!Pmem.Device} and the listeners that watch an
    instrumented run: the Pin-tool analogue. A tracer owns the call stack
    the application pushes frames onto, assigns instruction counters, and
    hands every event, stackless, to its listeners together with the live
    call stack; a listener that wants a stack captures it
    ({!Callstack.capture}). The fault injector, stack resolution and the
    baselines attach listeners. A tracer keeps no trace: recordings are
    written by {!Replay.record}. *)

type t

val create : Pmem.Device.t -> t
(** Install the instrumentation hook on the device. *)

val device : t -> Pmem.Device.t
val stack : t -> Callstack.t
val seq : t -> int

val detach : t -> unit
(** Remove the hook from the device. *)

val add_listener : t -> (Event.t -> Callstack.t -> unit) -> unit

val resolve_stacks :
  t ->
  wanted:int list ->
  run:(unit -> unit) ->
  (int, Callstack.capture) Hashtbl.t
(** Re-attach call stacks to a stack-less trace by re-running the same
    deterministic execution with minimal instrumentation: events whose
    [seq] appears in [wanted] get their stacks captured. *)
