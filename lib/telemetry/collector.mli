(** The global telemetry collector: nestable spans, counters and
    histograms, recorded into per-domain buffers and merged
    deterministically at {!drain} time.

    Off by default and provably inert: every recording entry point reads
    one atomic flag and returns immediately when disabled — [span name f]
    is exactly [f ()] — so an instrumented build with no sink configured
    behaves byte-identically to an uninstrumented one (the differential
    test in [test/test_telemetry.ml] asserts this on the seeded-bug
    matrix).

    Concurrency model: mirrors the parallel fault-injection engine. Each
    domain owns a private buffer (reached through [Domain.DLS], registered
    once under a mutex), so recording is contention-free; {!drain} merges
    all buffers sorted by [(track, start, id)] — a deterministic order for
    any schedule, the same rule [Fault_injection] uses for its records. *)

val enabled : unit -> bool

val enable : unit -> unit
(** Turn collection on. The calling domain becomes the main track (the
    lane Chrome-trace labels "main"). *)

val disable : unit -> unit
(** Turn collection off and discard anything buffered. *)

(** An open span, returned by {!begin_span} and closed by {!end_span}.
    Opaque: the buffer it points into is the owning domain's private
    state. *)
type handle

val begin_span : ?cat:string -> ?args:(string * Json.t) list -> string -> handle

val end_span : ?args:(string * Json.t) list -> ?hist:string -> handle -> unit
(** [end_span ?args ?hist h] completes the span opened by [h], appending
    [args] to the ones given at {!begin_span} time; with [hist] the span's
    duration is also recorded into that histogram. A handle from a
    disabled period, or one already swept up by {!drain}, is a no-op. *)

val span :
  ?cat:string ->
  ?args:(string * Json.t) list ->
  ?hist:string ->
  string ->
  (unit -> 'a) ->
  'a
(** [span ?cat ?args ?hist name f] runs [f] inside a span; the span closes
    even when [f] raises (fault injection unwinds with [Crash_now]
    constantly). When collection is off this is exactly [f ()]. *)

val count : string -> int -> unit
(** [count name n] adds [n] to counter [name] on this domain's buffer;
    buffers merge by summation at drain time. *)

val observe : string -> int -> unit
(** [observe name ns] records one nanosecond sample into histogram
    [name]. *)

type dump = {
  spans : Span.t list;  (** sorted by (track, start, id) *)
  counters : (string * int) list;  (** summed across domains, sorted by name *)
  histograms : (string * Histogram.t) list;  (** merged across domains, sorted *)
  base_ns : int;  (** earliest span start; exporters rebase timestamps on it *)
  dump_main_track : int;  (** the track to label "main" *)
}

val drain : unit -> dump
(** Collect and clear every domain's buffer. Spans still open (a drain in
    the middle of a phase) are closed at the drain timestamp so every
    recorded end has a begin and vice versa. Counters merge by sum,
    histograms by component-wise sum, spans sort by [(track, start, id)] —
    all order-insensitive, so the dump is deterministic regardless of how
    work was scheduled over domains. *)
