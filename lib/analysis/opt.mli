(** From lint to optimizer: cost-model-driven synthesis of persist
    transformations over a recorded trace, each candidate plan verified by
    replay at {e all} failure points of the rewritten trace — under both
    the graceful ([Program_prefix]) and the conservative [Adr] crash views
    — before it may ship in a patch bundle.

    Verification costs replays (trace interpretation), never target
    re-executions; the whole phase runs off the engine's one shared
    recording. *)

type plan = {
  p_rule : string;
      (** the synthesis rule: batch_fences, coalesce_flushes, move_flush,
          convert_to_nt or convert_to_clwb *)
  p_fix : Fix.t;  (** site-anchored transformation, for reports and dedup *)
  p_instances : int;  (** dynamic instances rewritten *)
  p_edits : Pmtrace.Replay.edit list;
      (** concrete edits in baseline persistency coordinates; synthesis
          chooses the exact participating instances, verification applies
          these as-is *)
  p_projected_cycles : int;
  p_projected_events : int;
  p_absint_safe : bool;  (** anchor site carries an absint safety proof *)
}

type bundle = {
  b_plan : plan;
  b_verdict : Verify_fix.verdict;
  b_detail : string;
  b_measured_cycles : int;  (** baseline minus rewritten modelled cost, replay-measured *)
  b_measured_events : int;
}

type t = {
  weights : Cost.weights;
  baseline_events : int;
  baseline_cycles : int;
  synthesized : int;
  verified : int;  (** the top 12 by projection *)
  bundles : bundle list;  (** proven first, best measured savings first *)
  proven : int;
  ineffective : int;
  harmful : int;  (** reported for provenance, never suggested *)
  replays : int;
      (** trace interpretations: 1 baseline pass plus 1 per verified plan
          whose edits apply — 1 + verified *)
}

val shipped : t -> bundle list
(** The patch bundle proper: the proven plans, in rank order. *)

val synthesize : ?absint:Absint.t -> weights:Cost.weights -> Pmtrace.Event.t list -> plan list
(** Walk the persistency-indexed trace and propose ranked transformation
    plans (best projected savings first, deduplicated by {!Fix.key}).
    Sites flagged by [absint] are never optimized; its safety proofs break
    projection ties. *)

val optimize :
  ?invariants:Invariants.t ->
  ?absint:Absint.t ->
  weights:Cost.weights ->
  support:int ->
  confidence:float ->
  eadr:bool ->
  oracle:(Pmem.Image.t -> (string * string) option) ->
  points:(Pmtrace.Event.t list -> (int * int * Pmtrace.Callstack.capture) list) ->
  Pmtrace.Replay.t ->
  t
(** [optimize ~weights ~oracle ~points noload] — synthesize, then verify
    the top 12 candidates against the load-free recording through a
    {!Verify_fix.baseline}'s [recheck]: rewrite, one pass that normalizes
    the rewritten trace and fault-injects its failure points from the
    first edit on under both crash views, then the static and lint
    rechecks and the final image; any fresh attributable finding, or a
    changed final image, is Harmful. [oracle] receives a crash view it may write through, valid
    only during the call. [invariants] (normally the baseline static
    phase's) are reused rather than re-mined. *)

val pp_bundle : bundle Fmt.t

val plan_to_json : plan -> Telemetry.Json.t
val bundle_to_json : bundle -> Telemetry.Json.t
val to_json : t -> Telemetry.Json.t
(** Ledger encodings. *)
