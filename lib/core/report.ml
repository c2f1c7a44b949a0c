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

let kind_is_warning = function
  | Transient_data_warning | Multi_store_flush_warning | Unordered_flushes_warning
  | Ordering_violation | Atomicity_violation | Missing_flush_warning
  | Missing_fence_warning -> true
  | Unrecoverable_state | Recovery_crash | Durability_bug | Redundant_flush
  | Redundant_fence | Dirty_overwrite -> false

let kind_is_correctness = function
  | Unrecoverable_state | Recovery_crash | Durability_bug | Dirty_overwrite -> true
  | Redundant_flush | Redundant_fence | Transient_data_warning | Multi_store_flush_warning
  | Unordered_flushes_warning | Ordering_violation | Atomicity_violation
  | Missing_flush_warning | Missing_fence_warning -> false

let kind_to_string = function
  | Unrecoverable_state -> "unrecoverable state"
  | Recovery_crash -> "recovery crash"
  | Durability_bug -> "durability bug"
  | Redundant_flush -> "redundant flush"
  | Redundant_fence -> "redundant fence"
  | Dirty_overwrite -> "dirty overwrite"
  | Transient_data_warning -> "transient data (warning)"
  | Multi_store_flush_warning -> "multi-store flush (warning)"
  | Unordered_flushes_warning -> "unordered flushes (warning)"
  | Ordering_violation -> "ordering violation (warning)"
  | Atomicity_violation -> "atomicity violation (warning)"
  | Missing_flush_warning -> "missing flush (warning)"
  | Missing_fence_warning -> "missing fence (warning)"

type phase =
  | Fault_injection | Trace_analysis | Static_analysis | Abs_interp | Lint | Optimize | Report

let phase_to_string = function
  | Fault_injection -> "fault_injection"
  | Trace_analysis -> "trace_analysis"
  | Static_analysis -> "static_analysis"
  | Abs_interp -> "abs_interp"
  | Lint -> "lint"
  | Optimize -> "optimize"
  | Report -> "report"

type finding = {
  kind : kind;
  phase : phase;
  stack : Pmtrace.Callstack.capture option;  (** code path to the bug *)
  seq : int option;  (** instruction counter of the offending instruction *)
  detail : string;
  fix : Analysis.Fix.t option;
      (** suggested repair (static analysis findings only) *)
}

type t = {
  target : string;
  mutable findings : finding list; (* newest first *)
  dedup : (string, unit) Hashtbl.t;
  annotations : (string, string) Hashtbl.t;
      (* finding key -> note rendered under the finding (fix verdicts).
         A side-table rather than a finding field: annotations arrive after
         deduplication and must not perturb the content signature the
         differential tests compare. *)
}

let create ~target =
  { target; findings = []; dedup = Hashtbl.create 64; annotations = Hashtbl.create 8 }

(* Uniqueness: same kind reached through the same code path is the same
   bug, regardless of how many dynamic instances the workload produced. *)
let finding_key f =
  let stack =
    match f.stack with
    | Some c -> Pmtrace.Callstack.capture_to_string c
    | None -> Printf.sprintf "seq:%s" (match f.seq with Some s -> string_of_int s | None -> f.detail)
  in
  kind_to_string f.kind ^ "@" ^ stack

(** [add t f] records [f] unless an equivalent finding is already present.
    Returns true when the finding was new. *)
let add t f =
  let key = finding_key f in
  if Hashtbl.mem t.dedup key then false
  else begin
    Hashtbl.replace t.dedup key ();
    t.findings <- f :: t.findings;
    true
  end

let findings t = List.rev t.findings

let phase_rank = function
  | Fault_injection -> 0
  | Trace_analysis -> 1
  | Static_analysis -> 2
  | Abs_interp -> 3
  | Lint -> 4
  | Optimize -> 5
  | Report -> 6

let kind_rank = function
  | Unrecoverable_state -> 0
  | Recovery_crash -> 1
  | Durability_bug -> 2
  | Redundant_flush -> 3
  | Redundant_fence -> 4
  | Dirty_overwrite -> 5
  | Transient_data_warning -> 6
  | Multi_store_flush_warning -> 7
  | Unordered_flushes_warning -> 8
  | Ordering_violation -> 9
  | Atomicity_violation -> 10
  | Missing_flush_warning -> 11
  | Missing_fence_warning -> 12

(* Deterministic rendering order across phases: (phase, frame anchor,
   ordinal, kind), with the detail text as the final tiebreak. [findings]
   keeps insertion order (the combination order the engine chose); what the
   user reads must not depend on it. *)
let finding_order a b =
  let anchor f =
    match f.stack with Some c -> String.concat ">" c.Pmtrace.Callstack.path | None -> ""
  in
  let ordinal f =
    match f.stack with
    | Some c -> c.Pmtrace.Callstack.op_index
    | None -> Option.value f.seq ~default:max_int
  in
  match compare (phase_rank a.phase) (phase_rank b.phase) with
  | 0 -> (
      match String.compare (anchor a) (anchor b) with
      | 0 -> (
          match compare (ordinal a) (ordinal b) with
          | 0 -> (
              match compare (kind_rank a.kind) (kind_rank b.kind) with
              | 0 -> String.compare a.detail b.detail
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

let ordered t = List.sort finding_order (findings t)
let bugs t = List.filter (fun f -> not (kind_is_warning f.kind)) (findings t)
let warnings t = List.filter (fun f -> kind_is_warning f.kind) (findings t)
let correctness_bugs t = List.filter (fun f -> kind_is_correctness f.kind) (bugs t)
let performance_bugs t = List.filter (fun f -> not (kind_is_correctness f.kind)) (bugs t)

(** One finding's entry in {!signature}: the dedup key with the full detail
    text — the stable per-finding identity the results store keys
    provenance records and cross-run diffs on. *)
let finding_signature f = finding_key f ^ "|" ^ f.detail

(* Canonical content signature: the sorted dedup key of every finding,
   each rendered with its full detail text. Two reports with equal
   signatures contain byte-for-byte the same unique findings — the
   equality the differential tests assert across injection strategies and
   worker counts. *)
let signature t = List.map finding_signature (findings t) |> List.sort compare

let equal a b = List.equal String.equal (signature a) (signature b)

let annotate t f note = Hashtbl.replace t.annotations (finding_key f) note
let annotation t f = Hashtbl.find_opt t.annotations (finding_key f)

let pp_finding ppf f =
  Fmt.pf ppf "[%s] %s: %s%s%s"
    (match f.phase with
    | Fault_injection -> "FI"
    | Trace_analysis -> "TA"
    | Static_analysis -> "SA"
    | Abs_interp -> "AI"
    | Lint -> "LINT"
    | Optimize -> "OPT"
    | Report -> "REP")
    (kind_to_string f.kind) f.detail
    (match f.stack with
    | Some c -> "\n    at " ^ Pmtrace.Callstack.capture_to_string c
    | None -> (
        match f.seq with Some s -> Printf.sprintf "\n    at instruction #%d" s | None -> ""))
    (match f.fix with
    | Some fix -> "\n    fix: " ^ Analysis.Fix.to_string fix
    | None -> "")

let pp ppf t =
  let all = ordered t in
  let bugs = List.filter (fun f -> not (kind_is_warning f.kind)) all
  and warnings = List.filter (fun f -> kind_is_warning f.kind) all in
  Fmt.pf ppf "=== Mumak report for %s ===@." t.target;
  Fmt.pf ppf "%d unique bug(s), %d warning(s)@." (List.length bugs) (List.length warnings);
  let pp_one f =
    Fmt.pf ppf "%a" pp_finding f;
    (match annotation t f with Some note -> Fmt.pf ppf "\n    verdict: %s" note | None -> ());
    Fmt.pf ppf "@."
  in
  List.iter pp_one bugs;
  List.iter pp_one warnings
