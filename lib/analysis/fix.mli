(** Fix suggestions attached to static-analysis findings: the concrete edit
    that would repair (or slim down) the persist behaviour, anchored at a
    frame + instruction ordinal. The optimizer ({!Opt}) extends the same
    vocabulary into a small transformation language whose actions carry a
    secondary anchor (destination / survivor / companion instruction). *)

type action =
  | Insert_flush of { line : int }
      (** flush the cache line after the anchored store *)
  | Insert_fence
      (** order the anchored flush against what follows it *)
  | Delete_flush of { line : int }  (** the anchored flush persists nothing *)
  | Delete_fence  (** the anchored fence drains nothing *)
  | Move_flush of { line : int; to_pseq : int }
      (** hoist the anchored flush later, to just after the event at
          [to_pseq] (one capture replaces many); earlier dynamic instances
          of the site are elided *)
  | Coalesce_flushes of { line : int; survivor_pseq : int }
      (** delete the anchored flush: the flush at [survivor_pseq]
          re-captures the same line within the same persist epoch *)
  | Batch_fences of { with_pseq : int }
      (** delete the anchored fence, deferring its drains to the fence at
          [with_pseq] *)
  | Convert_to_nt of { line : int; flush_pseq : int }
      (** make the anchored store non-temporal and delete the flushes it no
          longer needs (first one at [flush_pseq]) *)
  | Convert_to_clwb of { line : int }
      (** downgrade the anchored clflush to a cache-preserving clwb *)

type t = {
  action : action;
  seq : int;
      (** persistency-instruction index of the anchor, in the same
          coordinates as trace-analysis findings *)
  stack : Pmtrace.Callstack.capture option;
      (** frame + ordinal of the anchor, when available *)
  rationale : string;
}

val action_to_string : action -> string

val secondary_anchor : action -> int
(** The multi-anchor actions' second persistency index (destination,
    survivor or companion); [0] — no event's index — for the single-anchor
    repairs. *)

val anchor_to_string : t -> string
(** The frame + ordinal rendering ("a > b @n"), falling back to the
    instruction index when no stack was recorded. *)

val to_string : t -> string

val key : t -> string
(** Identity of the edit itself (action + both anchors + index, rationale
    excluded): two findings proposing the same edit are one suggestion,
    and a [Move_flush] from A to B collides with neither an insertion at B
    nor a move from A to C. *)

val compare : t -> t -> int
(** Deterministic (frame, ordinal, kind, secondary anchor) order —
    suggestion lists must not drift with hashtable iteration across runs
    or worker counts. Rationale is not compared. *)

val equal : t -> t -> bool
