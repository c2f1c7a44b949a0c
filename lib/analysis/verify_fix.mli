(** Engine-backed fix verification: apply each suggested {!Fix.t} to the
    recorded trace, replay the rewritten trace, and re-run the
    crash-consistency oracle and the static detectors over the result —
    upgrading advisory suggestions to machine-checked verdicts.

    Verification costs replays (trace interpretation), never target
    re-executions: one per rewritten recording, in which the device that
    normalizes the trace also hands the oracle zero-copy crash views
    ({!Pmem.Device.crash_view}). One recording serves every check: the
    static recheck reads its loads when it traced them, and the oracle,
    lint and image checks skip them — stores, flushes and fences carry
    the same stacks and persistency indices either way
    ({!Pmtrace.Callstack.capture}). The oracle and failure-point
    enumerator are passed in as closures so this module stays below the
    engine in the dependency order. *)

type verdict =
  | Proven
      (** the targeted finding is gone from the rewritten trace and nothing
          new broke *)
  | Ineffective  (** the targeted finding is still present *)
  | Harmful
      (** the rewrite introduces a new correctness-grade finding (oracle
          bug, structural durability/ordering/atomicity violation, stranded
          store window) or — for deletions, which promise behaviour
          preservation — changes the final persisted image *)

val verdict_to_string : verdict -> string

type source = Static_finding | Lint_finding

val source_to_string : source -> string

(** A fix together with the finding it claims to repair: the finding's
    identity (kind + code path) is what the recheck must no longer
    report. *)
type candidate = {
  c_source : source;
  c_kind : string;  (** source-specific kind string of the targeted finding *)
  c_stack : Pmtrace.Callstack.capture option;  (** the finding's code path *)
  c_pseq : int;  (** the finding's persistency-index anchor *)
  c_fix : Fix.t;
}

type outcome = { o_candidate : candidate; o_verdict : verdict; o_detail : string }

type t = {
  outcomes : outcome list;  (** in {!Fix.compare} order of the fixes *)
  proven : int;
  ineffective : int;
  harmful : int;
  replays : int;
      (** trace interpretations performed: 1 for the baseline plus 1 per
          candidate whose edits apply (its one verifier {!pass}) —
          1 + candidates *)
}

val expand_fix : Fix.t -> Pmtrace.Event.t list -> Pmtrace.Replay.edit list
(** A fix names a code site, not a dynamic instruction: [expand_fix fix
    events] is the fix's edits applied at every dynamic instance of its
    anchor site (every event sharing the anchor's capture) — what the
    verifier rewrites, mirroring a source-level repair. An inserted flush
    gets a fence right behind it: under the buffered persistency model a
    flush only reaches durability at a fence, so the flush alone would
    leave the window exactly as dangling as before. Two refinements at
    each instance: an inserted flush targets the cache line *that
    instance's* store dirtied (the same source line touches different
    lines per activation), and its paired fence is elided when a recorded
    fence already follows the instance — the later fence drains the
    inserted flush, while a synthesized one would split the persist epoch
    and break the program's own atomicity batching. *)

(** {2 Shared recheck machinery}

    The helpers below are the building blocks {!verify} is made of,
    exported so the optimizer ({!Opt}) judges its transformation plans
    with the very same differential checks: one {!baseline}, then one
    [recheck] per rewrite. *)

module Keys : Set.S with type elt = string

val finding_key : string -> Pmtrace.Callstack.capture option -> int -> string
(** Finding identity across a rewrite: kind + code path (stacks survive
    rewriting; anchors and detail strings embed indices that shift). *)

val attributable : string -> bool
(** Whether a finding key names a program site: a stackless key
    ("kind@#pseq") anchors at a synthesized event — the detector
    re-describing the inserted instruction, not a new defect. *)

val static_keys : correctness_only:bool -> Static.t -> Keys.t
val lint_keys : ?only:Lint.kind -> Lint.t -> Keys.t

(** {2 The one-pass verifier} *)

type pass = {
  normalized : Pmtrace.Event.t list;
      (** the recording's events with device-recomputed metadata
          ({!Pmtrace.Replay.normalize}) *)
  bugs : Keys.t list;  (** oracle-bug keys ("kind\@capture"), one set per view *)
  device : Pmem.Device.t;  (** the replayed device after the last event *)
}

type memo
(** Oracle verdicts by crash-image fingerprint ({!Pmem.Device.fingerprint}).
    The key is the image alone: the oracle reads nothing else, so equal
    images under different views, points or passes share one verdict. *)

val memo : unit -> memo
(** An empty memo. *)

val pass :
  ?from:int ->
  ?memo:memo ->
  views:Pmem.Device.crash_policy list ->
  points:(Pmtrace.Event.t list -> (int * int * Pmtrace.Callstack.capture) list) ->
  oracle:(Pmem.Image.t -> (string * string) option) ->
  Pmtrace.Replay.t ->
  pass
(** [pass ?from ?memo ~views ~points ~oracle recording] drives one device
    once over [recording] ({!Pmtrace.Replay.pass}). Every failure point
    [points] enumerates on the recording whose pseq is at least [from]
    (default 1: all of them) is judged exactly once, right before its
    event applies, under each of [views] in order: by calling [oracle] on
    {!Pmem.Device.crash_view}, or, with a [memo] that holds the view's
    fingerprint, by the verdict stored there, without building the view.
    Each oracle verdict is added to [memo]. [oracle] receives a view it
    may write through (a device {!Pmem.Device.adopt}ing it, say); the
    view is valid only during the call. Nothing is snapshotted. Telemetry
    counts oracle runs as [verify.oracle_calls] and memo answers as
    [verify.memo_hits]. *)

type harm =
  | Oracle_bug of string  (** a fresh oracle-bug key under the graceful view *)
  | Adr_oracle_bug of string  (** a fresh oracle-bug key under the [Adr] view *)
  | Structural_violation of string  (** a fresh correctness-grade static key *)
  | Stranded_window of string  (** a fresh missing-flush lint key *)
  | Image_changed  (** the final persisted image differs from the baseline's *)

val harm_to_string : harm -> string
(** The verdict detail for a harm, e.g. "changes the final persisted
    image". *)

type recheck = {
  r_events : Pmtrace.Event.t list;  (** the rewritten trace, normalized *)
  r_static : Static.t;
  r_lint : Lint.t;
  r_harm : harm option;  (** the first harm, in {!harm} order *)
}

(** What rewrites are judged against, and the judge. *)
type baseline = {
  events : Pmtrace.Event.t list;  (** the recording's events *)
  recheck : preserve:bool -> Pmtrace.Replay.edit list -> (recheck, string) result;
      (** The harm cascade of both judges: rewrite the recording (an edit
          that does not apply is [Error] with the rewrite's message), one
          {!pass} over it, the static and lint rechecks over the pass's
          normalized events, and — when
          [preserve] — the final persisted image compared with the
          baseline's by fingerprint ({!Pmem.Device.persisted_fingerprint}).
          Only failure points at or after the first edit's
          anchor ({!Pmtrace.Replay.edit_anchor}) are judged: before it the
          rewritten trace is the baseline's, event for event, so the
          deterministic oracle could only repeat baseline keys there.
          The baseline pass and every recheck share one {!memo}, so no
          crash image is judged twice. Fresh keys count only when
          {!attributable}. *)
  passes : unit -> int;
      (** Trace interpretations so far: 1 for the baseline plus 1 per
          [recheck] whose rewrite applies. *)
}

val baseline :
  ?invariants:Invariants.t ->
  support:int ->
  confidence:float ->
  eadr:bool ->
  adr:bool ->
  oracle:(Pmem.Image.t -> (string * string) option) ->
  points:(Pmtrace.Event.t list -> (int * int * Pmtrace.Callstack.capture) list) ->
  Pmtrace.Replay.t ->
  baseline
(** [baseline ~adr ~oracle ~points recording] — one {!pass} over the
    recording under the [Program_prefix] view (plus [Adr] when [adr]),
    filling the memo its rechecks share, the final persisted image's
    fingerprint, and the static and lint baselines. [invariants] are
    reused rather than mined. *)

val is_delete : Fix.t -> bool
(** Whether the fix promises behaviour preservation (deletions and every
    transformation action), holding it to the final-image-equality
    standard. *)

val verify :
  ?invariants:Invariants.t ->
  support:int ->
  confidence:float ->
  eadr:bool ->
  oracle:(Pmem.Image.t -> (string * string) option) ->
  points:(Pmtrace.Event.t list -> (int * int * Pmtrace.Callstack.capture) list) ->
  Pmtrace.Replay.t ->
  candidate list ->
  t
(** [verify ~oracle ~points recording candidates] — [oracle] classifies a
    crash image (Some (kind, detail) = bug); the image is a view it may
    write through, valid only during the call; [points] enumerates a
    trace's failure points as [(ordinal, pseq, capture)] triples;
    [recording] is the workload's replay recording, load-traced so the
    static recheck sees dependency edges and pointer chases. Candidates
    are deduplicated by edit identity ({!Fix.key}) and judged in
    {!Fix.compare} order, one {!pass} each; [invariants] (normally the
    baseline static analysis's) are reused for every recheck rather than
    re-mined, and mined once from the recording when absent. *)

val outcome_to_json : outcome -> Telemetry.Json.t
val to_json : t -> Telemetry.Json.t
(** Ledger encodings: the verdict tally plus every outcome. *)
