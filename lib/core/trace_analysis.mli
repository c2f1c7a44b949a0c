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

val create : Config.t -> t

val feed : t -> Pmtrace.Event.t -> unit
(** Consume one event; O(touched lines/slots). *)

val finish : t -> raw list
(** End-of-trace classification; returns all findings in trace order. *)

val event_count : t -> int
