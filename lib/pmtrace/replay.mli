(** Deterministic trace replay: re-apply a recorded execution (optionally
    rewritten) against a fresh device, reproducing device statistics, crash
    images and failure points without re-running the target program.

    Events alone are not self-contained — they carry no store payloads, and
    allocator poison is invisible to instrumentation — so a {!t} couples the
    event stream with two recorder-captured side-channels: per-store
    payloads (read from the device straight into a byte slab at the next
    hook, when the store has just applied) and the poison log woven back
    between events.

    Storage is compact ({!Arena}): {!record} is the arena's only writer —
    its one device hook appends each event's packed fields — and payloads
    are kept by event position in a byte slab. {!materialize} walks the
    packed slots and blits payloads from the slab, decoding no event. A
    recording is immutable once built, so several domains may replay or
    materialize from the same recording concurrently. *)

type t

val record :
  ?loads:bool ->
  ?eadr:bool ->
  pool_size:int ->
  (device:Pmem.Device.t -> framer:Framer.t -> unit) ->
  t
(** One fully-instrumented execution of [run] (stacks on every event),
    capturing the trace plus the payload and poison side-channels. *)

val of_events : ?loads:bool -> ?eadr:bool -> pool_size:int -> Event.t list -> t
(** A recording built from bare events: no payloads (stores replay as zero
    fill) and no poison. Enough for metadata normalization, rewriting and
    failure-point enumeration; crash images of payload-carrying programs
    need {!record}. *)

val events : t -> Event.t list
(** The recorded events in execution order, poison entries dropped. *)

val length : t -> int
(** Number of recorded events. *)

val event : t -> int -> Event.t
(** [event t i] decodes the [i]-th recorded event (0-based). On a
    recording made by {!record} or {!rewrite} its seq is [i + 1].
    @raise Invalid_argument when [i] is out of range. *)

val arena : t -> Arena.t
(** The recorded events, packed, to read by position without decoding
    ({!Arena.kind}, {!Arena.code}, ...). The recording owns the arena:
    never write to it. *)

val digest : t -> string
(** The trace digest: hex MD5 of every recorded event's
    {!Pmem.Op.to_string} followed by ['\n'], in order ({!Arena.digest}). *)

val stats : t -> Pmem.Stats.t
(** Device counters at the end of the recorded run. *)

val payload : t -> int -> bytes option
(** [payload t i] is a copy of the bytes the [i]-th event stored, when it
    is a store with a recorded payload ({!of_events} records none).
    @raise Invalid_argument when [i] is out of range. *)

val poison_log : t -> (int * int * int) list
(** The allocator poison the recording replays, as
    [(events emitted before it, addr, size)], oldest first
    ({!Pmem.Device.poison_log}). *)

val load_free : t -> t
(** The load-free view of a recording: its loads dropped, seqs renumbered
    from 1, payload keys and poison positions remapped along. On a
    load-traced recording this equals a load-free {!record} of the same
    deterministic execution — events with their stacks, {!digest},
    {!stats} and every crash image — because a store, flush or fence has
    the same stack ordinal either way ({!Callstack.capture}). A load-free
    recording is returned as is. *)

val pool_size : t -> int

exception Stop
(** Raise from [on_event] to end a replay early (after a crash image has
    been captured, say). *)

val replay : ?on_event:(Pmem.Device.t -> pseq:int -> Event.t -> unit) -> t -> Pmem.Device.t
(** [replay t] re-applies the recording to a fresh device and returns it.
    [on_event] fires {e before} each event is applied — the hook discipline
    of the live device, so [Pmem.Device.crash] called there yields the
    image a fault at that instruction leaves behind. [pseq] is the
    persistency index (1-based count of non-load events), the coordinate
    system of the offline analyses. *)

val materialize :
  t -> points:(int * int) list -> f:(key:int -> Pmem.Image.t -> unit) -> int list
(** [materialize t ~points ~f] — the batched, prefix-incremental crash-image
    materializer for the [Program_prefix] view. [points] is a [(key, pseq)]
    list (keys and pseqs unique, any order); one forward pass rolls a
    single image through the recording, applying store payloads and
    allocator poison only (under [Program_prefix] flushes, fences and loads
    move no bytes), so the prefix two consecutive failure points share is
    applied once instead of rebuilt from scratch per point. Each wanted
    image is passed to [f] the moment its pseq is reached — before the
    event at that index applies, exactly where live injection crashes — and
    is not retained here, so callers can stream oracle checks in constant
    image memory. Stops as soon as the last wanted image is out. Returns
    the keys of points never reached (empty for any in-range pseq set), in
    pseq order. *)

val stats_match : t -> Pmem.Stats.t -> bool
(** Do the replayed device counters equal the recorded run's?  [loads] is
    only compared when the recording traced loads: an untraced recording
    counts the original program's loads (including the internal reads of
    [cas]/[fetch_add]) but leaves no load events to re-apply. *)

(** {1 Rewriting} *)

(** A trace edit, anchored at a persistency index of the {e original}
    trace (anchors never shift as edits accumulate; deleted events still
    consume their index). *)
type edit =
  | Insert_flush_after of { pseq : int; line : int }
      (** insert [clwb line] right after the anchor event *)
  | Insert_fence_after of { pseq : int }
      (** insert [sfence] right after the anchor event *)
  | Delete_flush_at of { pseq : int }  (** drop the flush at the anchor *)
  | Delete_fence_at of { pseq : int }  (** drop the fence at the anchor *)
  | Move_flush_to of { pseq : int; to_pseq : int }
      (** reposition the flush at the anchor to right after the (later)
          event at [to_pseq] — both indices in {e original} coordinates.
          The moved event keeps its stack, so its failure-point identity
          survives the move and is re-judged at the new position. Several
          flushes moved to one destination land in source order, before
          any synthesized insertion at that anchor (an inserted fence
          there drains them). Backward moves raise. *)
  | Set_store_nt of { pseq : int }
      (** make the store at the anchor non-temporal (idempotent on an NT
          store); its payload is preserved *)
  | Set_flush_kind of { pseq : int; kind : Pmem.Op.flush_kind }
      (** change the flush instruction at the anchor (e.g. clflush ->
          clwb); conversions apply before any delete or move at the same
          anchor *)

val edit_to_string : edit -> string

val edit_anchor : edit -> int
(** The persistency index (original coordinates) an edit anchors at; for
    {!Move_flush_to}, the moved flush's. Every event before the smallest
    anchor of an edit list survives {!rewrite} unchanged. *)

val rewrite : t -> edit list -> t
(** Apply every edit, then renumber seqs consecutively from 1 (remapping
    payload keys and poison positions along), so the rewritten trace
    satisfies the same [seq = emission index] invariant a recorded one
    does. Synthesized events carry no stack — the offline failure-point
    detector skips stackless events, so an insertion never mints new
    failure points. Raises if an edit's anchor does not name an event of
    the required kind. The result's statistics still describe the original
    recording. *)

val rewrite_events : Event.t list -> edit list -> Event.t list
(** {!rewrite} over a bare event list (e.g. a load-traced recording whose
    side-channels are not needed). *)

(** {1 Normalization} *)

val normalize : t -> Event.t list
(** Replay the recording and return its events with the device-recomputed
    metadata (flush [dirty]/[volatile] bits, fence pending counts): after a
    rewrite the recorded metadata is stale — a fence's [pending_flushes]
    still counts a deleted flush. On an unmodified recording this is the
    identity (the replay-lossless property the tests assert). *)

val pass :
  ?on_event:(Pmem.Device.t -> pseq:int -> Event.t -> unit) -> t -> Event.t list * Pmem.Device.t
(** [pass ?on_event t] is {!replay} and {!normalize} in one interpretation
    of the recording: [on_event] fires as in {!replay}, and the result is
    the normalized events with the device after the last event (hook
    removed). The device keeps its fingerprint
    ({!Pmem.Device.fingerprint}); {!replay}'s does not. *)

val normalize_events :
  ?loads:bool -> ?eadr:bool -> pool_size:int -> Event.t list -> Event.t list
(** {!normalize} over a bare event list (payloads replay as zero fill,
    which metadata recomputation never reads). *)
