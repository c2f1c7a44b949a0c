(** Per-finding causal evidence for the run ledger: the injected failure
    point, the trace window around the offending instruction, the witness
    that nominated the finding, and — for fault-injection bugs — the
    crash-image vs recovered-image byte diff at cache-line granularity.

    Plain data plus [Telemetry.Json] codecs and the image diff, which
    fault injection takes at the oracle's verdict; [Engine.analyze]
    assembles the rest at the moment each finding is produced. *)

val cache_line : int
val diff_line_cap : int
(** Differing cache lines retained verbatim in an image diff (the count of
    differing lines stays exact past the cap). *)

val window_radius : int
(** Events rendered on each side of a trace window's anchor. *)

type diff_line = {
  dl_line : int;  (** cache-line index (byte offset = index * 64) *)
  dl_crash : string;  (** hex of the 64 crash-image bytes *)
  dl_recovered : string;  (** hex of the same line after recovery *)
}

type image_diff = {
  id_lines : diff_line list;  (** first {!diff_line_cap} differing lines *)
  id_differing : int;  (** total differing cache lines (exact) *)
  id_capped : bool;
}

type failure_point = {
  fp_path : string list;
  fp_op_index : int;
  fp_ordinal : int;  (** discovery ordinal in the failure-point tree *)
  fp_pseq : int option;  (** persistency index, when a recording located it *)
}

type t = {
  p_finding : string;  (** digest of the finding's signature entry (the id) *)
  p_signature : string;  (** the {!Report.finding_signature} entry itself *)
  p_kind : string;
  p_phase : string;
  p_detail : string;
  p_stack : (string list * int) option;
  p_seq : int option;
  p_failure_point : failure_point option;
  p_window : string list;
  p_witness : string;
  p_verdict : string option;
  p_fix : string option;
  p_image_diff : image_diff option;
}

val id_of_signature : string -> string
(** Content address of a finding: digest (hex) of its signature entry. *)

val image_diff : Pmem.Image.t -> image_diff
(** [image_diff view] diffs a recovered {!Pmem.Image.cow} view against the
    crash image it reads through, at cache-line granularity: only the
    pages recovery copied up are compared, each against the crash image's
    page it shadows ({!Pmem.Image.cow_pages}), in ascending order, and lines
    at or past [size / 64] are ignored. Every differing line is counted,
    the first {!diff_line_cap} kept with both sides rendered as hex. Takes
    no snapshot.
    @raise Invalid_argument when [view] is not a copy-on-write view. *)

val to_json : t -> Telemetry.Json.t
val of_json : Telemetry.Json.t -> (t, string) result
val equal : t -> t -> bool
