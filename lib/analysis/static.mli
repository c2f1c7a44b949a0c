(** The offline static analyzer: builds the persistency dependency graph
    of one load-traced recording, mines likely invariants from it, and
    emits findings with concrete fix suggestions. Stores, flushes and
    fences carry the stack ordinals a load-free recording would give them
    ({!Pmtrace.Callstack.capture}), so findings anchor at the same
    frame + ordinal sites and persistency indices as the rest of the
    pipeline without a second recording. *)

type kind =
  | Durability  (** correctness: a store window never reached durability *)
  | Transient  (** its line is never flushed at all — PM as transient data? *)
  | Ordering  (** a persist-order hazard witnessed by a dependence *)
  | Atomicity  (** an accepted atomicity invariant was split by a fence *)
  | Redundant_flush
  | Redundant_fence

val kind_to_string : kind -> string

type finding = {
  kind : kind;
  seq : int;  (** persistency-index anchor *)
  stack : Pmtrace.Callstack.capture option;  (** frame + ordinal of the anchor *)
  detail : string;
  fix : Fix.t option;
  ident : string option;
      (** for invariant-backed findings (ordering / atomicity), the mined
          invariant the instance violates — an identity stable across trace
          rewrites even when the anchor shifts or the violation class
          changes (the fix verifier compares findings by it) *)
}

type t = {
  findings : finding list;
  invariants : Invariants.t;
  graph : Dep_graph.t;  (** the recording's dependency graph *)
  runs : int;  (** times the graph was pooled for invariant mining *)
  events : int;  (** events folded into the graph, times [runs] *)
}

val kind_rank : kind -> int
(** Severity-family order used to sort findings deterministically. *)

val analyze :
  ?invariants:Invariants.t ->
  ?runs:int ->
  support:int ->
  confidence:float ->
  eadr:bool ->
  Pmtrace.Event.t list ->
  t
(** [analyze ~runs ~support ~confidence ~eadr events] — [events] is one
    recorded execution with a stack on every event; with load tracing it
    yields dependency edges and pointer chases too. The invariant miner
    pools the recording's graph [runs] times (default 1): the target is
    deterministic, so [runs] recordings would give equal graphs. Under
    [eadr] the durability family is suppressed (globally visible stores
    are durable, paper section 4.3). Redundant flushes and fences are
    reported once per code site, at the first dynamic instance. Findings
    are sorted by (anchor, kind, detail). [invariants] skips the mining
    and scans against the given set — how the fix verifier re-checks a
    rewritten trace under the baseline invariants. *)

val pp_finding : finding Fmt.t
