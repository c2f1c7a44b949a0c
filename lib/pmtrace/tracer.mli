(** Glue between a {!Pmem.Device} and trace collection: the Pin-tool
    analogue. A tracer owns the call stack the application pushes frames
    onto, assigns instruction counters, and appends events to a trace.
    Extra listeners can be attached (the fault injector attaches one to
    watch for failure points without paying for trace storage). *)

type t

val create : ?collect:bool -> ?with_stacks:bool -> Pmem.Device.t -> t
(** Install the instrumentation hook on the device. [collect] (default
    true) appends events to the trace buffer; [with_stacks] (default
    false) captures a backtrace on every event — expensive, which is why
    the engine resolves stacks lazily instead (paper section 5). *)

val device : t -> Pmem.Device.t
val trace : t -> Trace.t
val stack : t -> Callstack.t
val seq : t -> int

val detach : t -> unit
(** Remove the hook from the device. *)

val add_listener : t -> (Event.t -> Callstack.t -> unit) -> unit

val with_frame : t -> string -> (unit -> 'a) -> 'a
(** Run the callback with a frame pushed on the traced call stack. *)

val resolve_stacks :
  t ->
  wanted:int list ->
  run:(unit -> unit) ->
  (int, Callstack.capture) Hashtbl.t
(** Re-attach call stacks to a stack-less trace by re-running the same
    deterministic execution with minimal instrumentation: events whose
    [seq] appears in [wanted] get their stacks captured. *)
