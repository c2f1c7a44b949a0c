(** Trace analysis (paper section 4.2): a single streaming pass over the PM
    access stream detecting the bug classes fault injection cannot see.

    The five patterns:
    - a store never explicitly persisted → durability bug if its address is
      ever flushed during the execution, otherwise a transient-data warning
      (both suppressed under {!Config.t.eadr});
    - a flush of a volatile address or of a clean line → redundant flush;
    - a flush capturing more than one store → warning;
    - a fence with nothing pending → redundant fence;
    - a fence draining more than one flush/NT store → unordered-persist
      warning (the reorderings Mumak deliberately does not explore). *)

type t

type raw = { kind : Report.kind; seq : int; detail : string }
(** A finding identified by instruction counter. Under the replay strategy
    the engine reads its call stack off the recording, where a seq is its
    event's position; under re-execution it attaches stacks with one extra
    minimally-instrumented execution. *)

val create : ?trace:Pmtrace.Arena.t -> Config.t -> t
(** A fresh analysis. With [trace], a recording's packed events (each
    event's seq its position + 1), events are read by position with
    {!step}, and each event's code path is known: under
    [Config.resolve_stacks], which keys each finding on that path in the
    report, only the first instance of each (kind, code path) is reported
    — the one {!Report.add} would keep. Without [trace], or without stack
    resolution, every instance is. *)

val feed : t -> Pmtrace.Event.t -> unit
(** Consume one event; O(touched lines/slots). Its code path is not known. *)

val step : t -> int -> unit
(** [step t i] consumes the [i]-th event of the analysis's trace, read from
    its packed slot: {!feed} on the decoded event, with its code path.
    @raise Invalid_argument when the analysis was made without a trace. *)

val finish : t -> raw list
(** End-of-trace classification; returns the findings, those of the
    stream in trace order, then those of the durability residue. *)

val event_count : t -> int
