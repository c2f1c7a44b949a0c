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

val phase : ?injecting:bool -> string -> (unit -> 'a) -> 'a
(** [phase name f] runs [f] as the named pipeline phase, shown as the
    progress line's prefix. The injections/sec rate and the ETA are timed
    over the phase run with [~injecting:true]: from its start, and frozen
    at its end, so phases before and after it do not dilute the rate.
    When the reporter is off this is exactly [f ()]. *)

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
