(** Simulated persistent-memory device implementing the x86 relaxed, buffered
    persistency model described in paper section 2.

    The device separates three domains:
    - the {e persistent image}: bytes that survive any crash (medium + WPQ,
      i.e. the ADR domain);
    - the {e volatile cache overlay}: per-line contents holding stores that
      have not yet been persisted;
    - the {e pending queues}: snapshots captured by [clflushopt]/[clwb] (or
      written by non-temporal stores) that only reach the persistent image
      once a fence executes.

    Every PM-relevant instruction can be observed through a hook, which is how
    the instrumentation layer (the Intel Pin analogue) and the fault injector
    attach to an application run. The hook runs {e before} the instruction
    takes effect, so raising from the hook models a crash at that
    instruction. *)

type t

type crash_policy =
  | Program_prefix
      (** Mumak's graceful crash: every store issued so far is persisted, so
          the post-failure state is the deterministic program-order prefix. *)
  | Adr  (** Only fenced (already persistent) data survives. *)
  | Adr_with_pending
      (** Fenced data plus flushes that were issued but not yet fenced (they
          may or may not have drained; this policy assumes they did). *)

exception Out_of_bounds of { addr : int; size : int; device_size : int }

val create : ?eadr:bool -> ?fingerprint:bool -> size:int -> unit -> t
(** [create ~size ()] is a device with a zeroed persistent image of [size]
    bytes and an empty cache; the image's pages are all the shared zero
    page until written ({!Image.create}). [eadr] extends the persistence
    domain to the CPU caches (Enhanced Asynchronous DRAM Refresh, paper
    section 2): every globally visible store then survives a crash,
    flushes become performance-only, but fences still order non-temporal
    stores. With [fingerprint] the device keeps {!fingerprint} up to
    date; without it (the default) it tracks nothing and allocates
    nothing for one. *)

val of_image : ?eadr:bool -> Image.t -> t
(** [of_image img] is a device whose persistent image is a snapshot of [img]
    and whose cache is empty — the state of the machine right after a
    restart. *)

val adopt : ?eadr:bool -> Image.t -> t
(** [adopt img] is {!of_image} without the snapshot: the device takes [img]
    as its persistent image directly and mutates it in place. The batched
    oracle runs recovery on an adopted {!Image.cow} view, so each failure
    point pays for the pages recovery touches instead of a pool copy. The
    caller must not reuse [img] afterwards. *)

val size : t -> int

val eadr : t -> bool
val stats : t -> Stats.t

val set_hook : t -> (Op.t -> unit) option -> unit
(** Install (or remove) the instrumentation hook. *)

val trace_loads : t -> bool -> unit
(** Enable or disable emission of {!Op.Load} events (off by default; only
    the XFDetector baseline needs them). *)

(** {1 Data path} *)

val store : t -> addr:int -> bytes -> unit
val store_i64 : t -> addr:int -> int64 -> unit
val store_nt : t -> addr:int -> bytes -> unit
(** Non-temporal store: bypasses the cache but is buffered until a fence. *)

val poison : t -> addr:int -> size:int -> unit
(** Fill a range with a 0xDD garbage pattern {e without} emitting
    instrumentation events: models pre-existing (uninitialised) memory
    contents handed out by an allocator, which are not program stores. The
    garbage is visible to loads and present in crash images. *)

val store_nt_i64 : t -> addr:int -> int64 -> unit
val load : t -> addr:int -> size:int -> bytes
val load_i64 : t -> addr:int -> int64

val load_into : t -> addr:int -> size:int -> bytes -> unit
(** [load_into t ~addr ~size dst] is {!load} into the first [size] bytes of
    [dst]: the same bounds check, event and counter, without allocating
    the result.
    @raise Invalid_argument when [dst] is shorter than [size]. *)

val peek : t -> addr:int -> size:int -> bytes
(** The program's current view of [size] bytes at [addr] {e without}
    emitting a load event or bumping any counter. This is how the trace
    recorder snoops store payloads for replay without perturbing the trace
    or the statistics it must later reproduce. *)

val peek_into : t -> addr:int -> size:int -> bytes -> off:int -> unit
(** [peek_into t ~addr ~size dst ~off] is {!peek} into [dst] at [off]: the
    same view and bounds check, without allocating the result. The
    recorder reads each store's bytes straight into its payload slab.
    @raise Invalid_argument when [dst] has fewer than [size] bytes past
    [off]. *)

val poison_log : t -> (int * int * int) list
(** Every {!poison} call so far as [(op_count, addr, size)], oldest first,
    where [op_count] is the number of instrumentation events emitted before
    the poison landed. Lets a replayer re-apply allocator poison at the
    right positions between recorded events. *)

(** {1 Persistency instructions} *)

val clflush : t -> addr:int -> unit
(** Persist the line containing [addr] immediately (strongly ordered). *)

val clflushopt : t -> addr:int -> unit
(** Queue the line containing [addr] for persistence at the next fence and
    invalidate it. *)

val clwb : t -> addr:int -> unit
(** Queue the line containing [addr] for persistence at the next fence,
    keeping it cached. *)

val flush_range : t -> kind:Op.flush_kind -> addr:int -> size:int -> unit
(** Flush every line spanned by [size] bytes at [addr]. *)

val flush_line : t -> kind:Op.flush_kind -> line:int -> volatile:bool -> unit
(** Re-apply a recorded flush exactly as the original executed it: the
    recorded {!Op.Flush} already names the [line] and whether the flushed
    address was [volatile], so replay must not re-derive either from an
    address. *)

val sfence : t -> unit
val mfence : t -> unit

val rmw_fence : t -> unit
(** The fence half of a recorded RMW ({!cas}/{!fetch_add}): drains pending
    flushes and non-temporal stores and counts as an RMW in the statistics,
    without performing the load/store half (replay re-applies that from the
    recorded store event). *)

val cas : t -> addr:int -> expected:int64 -> desired:int64 -> bool
(** Compare-and-swap on an 8-byte slot; carries fence semantics (drains
    pending flushes and non-temporal stores), per paper section 2. *)

val fetch_add : t -> addr:int -> int64 -> int64
(** Fetch-and-add on an 8-byte slot; carries fence semantics. *)

(** {1 Crash generation} *)

val crash_view : t -> policy:crash_policy -> Image.t
(** [crash_view t ~policy] is the persistent image a restart would observe
    under [policy], as an {!Image.cow} view of the device's own bytes:
    [Adr] adds nothing to the persisted image, [Adr_with_pending] writes the
    pending flush captures into the view, [Program_prefix] the pending
    non-temporal stores and every cached line. Under eADR every policy
    means [Program_prefix]. Writes through the view (and through a device
    {!adopt}ing it) land in its private pages, never in [t]. The view reads
    through [t], so it is valid only until [t]'s next operation. *)

val crash : t -> policy:crash_policy -> Image.t
(** [crash t ~policy] is [Image.snapshot (crash_view t ~policy)]: an owned
    copy, for callers that keep the image past the device's next
    operation. The device itself is left untouched. *)

val persisted_image : t -> Image.t
(** Snapshot of the current persistent image (equivalent to
    [crash ~policy:Adr] on a device without eADR). *)

val persisted_equal : t -> Image.t -> bool
(** [persisted_equal t img] is [Image.equal (persisted_image t) img]
    without the snapshot. *)

(** {1 Fingerprints}

    A 128-bit fingerprint of an image: the sum, lane by lane modulo
    2{^64}, of one MD5 per 64-byte line taken over the line's index and
    bytes, where an all-zero line hashes to zero (so a fresh pool's
    fingerprint is zero). Equal images have equal fingerprints; distinct
    ones collide with negligible probability. *)

val image_fingerprint : Image.t -> string
(** The fingerprint of an image, computed from scratch over every line. *)

val fingerprint : t -> policy:crash_policy -> string
(** [fingerprint t ~policy] is [image_fingerprint (crash t ~policy)],
    kept incrementally on a device created with [~fingerprint:true]: a
    request rehashes only the lines written to the persisted image or the
    cache, poisoned or evicted since the previous request, so it costs
    what changed since then, not what the cache holds. [Adr_with_pending]
    also rehashes the pending flush captures.
    @raise Invalid_argument on a device that keeps no fingerprint. *)

val persisted_fingerprint : t -> string
(** [image_fingerprint (persisted_image t)], kept like {!fingerprint}; it
    equals [fingerprint ~policy:Adr] on a device without eADR. *)

val volatile_view : t -> Image.t
(** The program's own view of memory: persistent image overlaid with all
    cached stores. This is what loads observe. *)

val line_versions : t -> (int * bytes list) list
(** For every line holding unpersisted data, the candidate contents that a
    crash could leave behind, oldest first (pending flush snapshot, then
    current dirty contents if newer). Used by the exhaustive (Yat-style)
    crash-state enumerator. *)

val unpersisted_line_count : t -> int
