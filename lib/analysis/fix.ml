(** Fix suggestions attached to static-analysis findings: the concrete edit
    that would repair (or slim down) the persist behaviour, anchored at a
    frame + instruction ordinal so it can be located in the source.

    The suggestion model follows "Automated Insertion of Flushes and Fences
    for Persistency" (see PAPERS.md): the dependency graph tells us both
    where a persist is missing (insert a flush/fence after the offending
    store) and where one is useless (delete it).

    The optimizer ({!Opt}) extends the same vocabulary from repairs into a
    small transformation language: moving a flush later, coalescing
    duplicate flushes onto a surviving one, batching fences, and
    converting a store or flush to a cheaper instruction. These actions
    carry a {e secondary} anchor (the destination, survivor or companion
    instruction, always a persistency index of the original trace) in
    addition to the primary one in [seq] — {!key} and {!compare} fold both
    anchors in, so a [Move_flush] from A to B never collides with an
    insertion at B. *)

type action =
  | Insert_flush of { line : int }
      (** flush the cache line after the anchored store *)
  | Insert_fence
      (** order the anchored flush against what follows it *)
  | Delete_flush of { line : int }  (** the anchored flush persists nothing *)
  | Delete_fence  (** the anchored fence drains nothing *)
  | Move_flush of { line : int; to_pseq : int }
      (** hoist the anchored flush later — to just after the event at
          [to_pseq] (e.g. out of a store loop, so one capture replaces
          many); earlier dynamic instances of the site are elided *)
  | Coalesce_flushes of { line : int; survivor_pseq : int }
      (** delete the anchored flush: the flush at [survivor_pseq]
          re-captures the same line within the same persist epoch *)
  | Batch_fences of { with_pseq : int }
      (** delete the anchored fence, deferring its drains to the fence at
          [with_pseq] — merging two persist epochs of one activation *)
  | Convert_to_nt of { line : int; flush_pseq : int }
      (** make the anchored store non-temporal and delete the flushes it
          no longer needs (first one at [flush_pseq]): NT stores bypass
          the cache and drain at the next fence *)
  | Convert_to_clwb of { line : int }
      (** downgrade the anchored clflush to a cache-preserving clwb *)

type t = {
  action : action;
  seq : int;
      (** persistency-instruction index of the anchor (the trace position the
          edit applies to), in the same coordinates as trace-analysis
          findings *)
  stack : Pmtrace.Callstack.capture option;
      (** frame + ordinal of the anchor, when a recorded execution with
          stacks is available *)
  rationale : string;
}

let action_to_string = function
  | Insert_flush { line } -> Printf.sprintf "insert flush of line %d" line
  | Insert_fence -> "insert fence"
  | Delete_flush { line } -> Printf.sprintf "delete flush of line %d" line
  | Delete_fence -> "delete fence"
  | Move_flush { line; to_pseq } ->
      Printf.sprintf "move flush of line %d to after #%d" line to_pseq
  | Coalesce_flushes { line; survivor_pseq } ->
      Printf.sprintf "coalesce flush of line %d into the flush at #%d" line survivor_pseq
  | Batch_fences { with_pseq } -> Printf.sprintf "batch fence with the fence at #%d" with_pseq
  | Convert_to_nt { line; flush_pseq } ->
      Printf.sprintf "convert store to non-temporal and drop the flush of line %d at #%d" line
        flush_pseq
  | Convert_to_clwb { line } -> Printf.sprintf "convert clflush of line %d to clwb" line

let anchor_to_string t =
  match t.stack with
  | Some c -> Pmtrace.Callstack.capture_to_string c
  | None -> Printf.sprintf "instruction #%d" t.seq

let to_string t =
  Printf.sprintf "%s at %s (%s)" (action_to_string t.action) (anchor_to_string t)
    t.rationale

let action_rank = function
  | Insert_flush _ -> 0
  | Insert_fence -> 1
  | Delete_flush _ -> 2
  | Delete_fence -> 3
  | Move_flush _ -> 4
  | Coalesce_flushes _ -> 5
  | Batch_fences _ -> 6
  | Convert_to_nt _ -> 7
  | Convert_to_clwb _ -> 8

(* The secondary anchor of a multi-anchor action: the destination,
   survivor or companion persistency index. 0 for the single-anchor
   repairs (no event has index 0, so the sentinel cannot collide). *)
let secondary_anchor = function
  | Insert_flush _ | Insert_fence | Delete_flush _ | Delete_fence | Convert_to_clwb _ -> 0
  | Move_flush { to_pseq; _ } -> to_pseq
  | Coalesce_flushes { survivor_pseq; _ } -> survivor_pseq
  | Batch_fences { with_pseq } -> with_pseq
  | Convert_to_nt { flush_pseq; _ } -> flush_pseq

(* Identity of the edit itself — two findings proposing the same edit at
   the same place are one suggestion, whatever their rationales say. Both
   anchors participate: a [Move_flush] from A to B is neither an insert at
   B nor a move from A to C. *)
let key t =
  Printf.sprintf "%s@%s#%d>%d" (action_to_string t.action) (anchor_to_string t) t.seq
    (secondary_anchor t.action)

(** Deterministic order: (frame, ordinal, kind, secondary anchor) —
    suggestion lists must not drift with hashtable iteration across runs
    or worker counts. *)
let compare a b =
  let frame t = match t.stack with Some c -> Pmtrace.Callstack.capture_to_string c | None -> "" in
  Stdlib.compare
    (frame a, a.seq, action_rank a.action, secondary_anchor a.action, a.action)
    (frame b, b.seq, action_rank b.action, secondary_anchor b.action, b.action)

let equal a b = compare a b = 0

