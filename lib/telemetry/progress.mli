(** Live progress reporter for the injection loop: a single stderr line
    redrawn in place with injections/sec, ETA, and a first-bug marker.

    TTY-aware: with [--progress] on a terminal the line is redrawn with
    [\r]; when stderr is redirected the reporter stays completely silent
    (no partial lines polluting logs). Inert unless {!activate}d — the
    tick path is one atomic read when off.

    Ticks arrive from whichever domain performed the injection (the
    parallel engine's workers call {!tick} directly); all internal state
    is atomic and rendering is rate-limited. *)

val activate : unit -> unit

val phase : string -> unit
(** Announce the pipeline phase currently running (shown as a prefix of
    the progress line). *)

val set_total : int -> unit
(** Total injections expected (the failure-point count, set by the
    injection schedule of either strategy), for percentage and ETA; while
    unset the line shows a plain counter. *)

val tick : ?bug:bool -> unit -> unit
(** One injection completed; [bug] marks oracle-flagged faults so the
    first one's position is pinned on the line. *)

val finish : unit -> unit
(** Close out the live line (forces a final render and a newline when
    anything was drawn) and deactivate. *)
