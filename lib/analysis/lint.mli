(** Epoch-based persistency anti-pattern detectors: one pass over a
    recorded trace (loads skipped) flags persistency instructions that do no
    useful work — and fences that arrive with work left undone — each with
    a frame + ordinal location, a concrete {!Fix.t}, and an estimated
    cycles/events saving.

    The trace must carry device-accurate metadata (flush [dirty] bits,
    fence pending counts): recorded traces do by construction; rewritten
    traces must be re-normalized ({!Pmtrace.Replay.normalize}) first. *)

type kind =
  | Duplicate_flush
      (** the line is flushed again, dirty, in the same persist epoch: the
          first capture is overwritten before any fence drains it *)
  | Unnecessary_flush  (** the line holds nothing unpersisted *)
  | Nt_flush_misuse
      (** clean flush of a line whose stores this epoch were non-temporal *)
  | Redundant_fence  (** nothing pending to drain, nothing stored to order *)
  | Missing_flush
      (** a fence is reached with a line dirtied this epoch that is never
          flushed afterwards, though the program flushes that line
          elsewhere: the persist was probably intended here *)

val kind_to_string : kind -> string

(** One finding per code site: the same static instruction misbehaving in
    every epoch aggregates into a single finding whose savings sum over its
    dynamic instances — the granularity of the source-level fix it
    suggests. Anchors ([l_pseq], [l_line]) are those of the first dynamic
    instance. Missing-flush findings anchor at the store that dirtied the
    line (not the fence that exposed it): that identity survives trace
    rewrites. *)
type finding = {
  l_kind : kind;
  l_pseq : int;  (** persistency-index anchor of the first dynamic instance *)
  l_stack : Pmtrace.Callstack.capture option;
  l_line : int;  (** cache line of the first instance; 0 for fence findings *)
  l_detail : string;
  l_fix : Fix.t option;
  l_cycles : int;  (** estimated cycles saved, summed over dynamic instances *)
  l_events : int;  (** trace events removed by the fix, summed over instances *)
}

type t = {
  findings : finding list;
      (** one per code site, sorted by (pseq, kind, line) of the first
          dynamic instance *)
  events : int;
  epochs : int;
  flushes : int;
  fences : int;
  redundant_flushes : int;  (** dynamic instances, not sites *)
  redundant_fences : int;
  missing_flush_spots : int;
  cycles_saved : int;
  events_saved : int;
}

val analyze : ?eadr:bool -> Pmtrace.Event.t list -> t
(** Under [eadr] the missing-flush detector is suppressed (globally visible
    stores are durable without flushes); the redundancy detectors still
    apply — flushes are pure overhead there. *)

val finding_to_json : finding -> Telemetry.Json.t
val to_json : t -> Telemetry.Json.t
(** Ledger encodings: tallies plus every finding site. *)
