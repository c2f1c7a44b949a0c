(** Bug reports: unique findings with the code path that leads to them
    (Table 3's ergonomics criteria: complete bug path, unique bugs only). *)

type kind =
  | Unrecoverable_state  (** fault injection: recovery rejected the state *)
  | Recovery_crash  (** fault injection: recovery itself crashed *)
  | Durability_bug  (** trace analysis: store never persisted *)
  | Redundant_flush
  | Redundant_fence
  | Dirty_overwrite
  | Transient_data_warning
  | Multi_store_flush_warning
  | Unordered_flushes_warning
  | Ordering_violation
      (** static analysis: a likely persist-ordering invariant is violated *)
  | Atomicity_violation
      (** static analysis: locations that usually persist atomically were split *)
  | Missing_flush_warning
      (** lint: a fence leaves a line dirty that is never flushed afterwards *)
  | Missing_fence_warning
      (** abstract interpretation: a flush can reach the end of execution
          with no fence draining it on some merged path *)

val kind_is_warning : kind -> bool
val kind_is_correctness : kind -> bool
val kind_to_string : kind -> string

(** The pipeline phase that produced a finding or a measurement
    ([Engine.result.phase_metrics]). The optimizer reports bundles, not
    findings, so only its measurement carries [Optimize]; [Report] is the
    step that combines the findings and builds their provenance, and
    carries no finding either. *)
type phase =
  | Fault_injection | Trace_analysis | Static_analysis | Abs_interp | Lint | Optimize | Report

val phase_to_string : phase -> string

type finding = {
  kind : kind;
  phase : phase;
  stack : Pmtrace.Callstack.capture option;  (** code path to the bug *)
  seq : int option;  (** instruction counter of the offending instruction *)
  detail : string;
  fix : Analysis.Fix.t option;
      (** suggested repair (static analysis findings only) *)
}

type t

val create : target:string -> t

val add : t -> finding -> bool
(** Record a finding unless an equivalent one (same kind, same code path)
    is already present; returns whether it was new. *)

val findings : t -> finding list
(** Insertion order (the combination order the engine chose). *)

val ordered : t -> finding list
(** Deterministic rendering order across phases: sorted by (phase, frame
    anchor, ordinal, kind), detail as the final tiebreak. {!pp} renders in
    this order so the printed report never depends on insertion order. *)

val bugs : t -> finding list
val warnings : t -> finding list
val correctness_bugs : t -> finding list
val performance_bugs : t -> finding list

val finding_signature : finding -> string
(** One finding's entry in {!signature}: the dedup key plus the full detail
    text. The stable per-finding identity the results store keys provenance
    records and cross-run diffs on. *)

val signature : t -> string list
(** Canonical content signature: the sorted dedup key + detail of every
    finding. Reports with equal signatures contain byte-for-byte the same
    unique findings — the equality the differential tests assert across
    injection strategies and worker counts. *)

val equal : t -> t -> bool
(** [equal a b] iff the two reports have identical signatures. *)

val annotate : t -> finding -> string -> unit
(** Attach a note (a fix verdict, say) rendered under the finding by {!pp}.
    Annotations live in a side-table: they arrive after deduplication and
    do not perturb {!signature}. *)

val annotation : t -> finding -> string option

val pp_finding : Format.formatter -> finding -> unit
val pp : Format.formatter -> t -> unit
