(** Address arithmetic for the simulated persistent-memory device.

    Addresses are plain byte offsets into a pool. The simulator uses 64-byte
    cache lines (the x86 line size) and 8-byte failure-atomic slots (the
    granularity at which PM guarantees atomic persistence, see paper section
    2). *)

val line_size : int
(** Cache-line size in bytes (64). *)

val atomic_size : int
(** Failure-atomicity granularity in bytes (8). *)

val line_of : int -> int
(** [line_of addr] is the index of the cache line containing [addr]. *)

val line_base : int -> int
(** [line_base line] is the first byte address of cache line [line]. *)

val slot_of : int -> int
(** [slot_of addr] is the index of the 8-byte atomic slot containing [addr]. *)

val lines_spanned : addr:int -> size:int -> int list
(** [lines_spanned ~addr ~size] lists the cache-line indices touched by a
    [size]-byte access at [addr], in increasing order. [size] must be
    positive. *)

val slots_spanned : addr:int -> size:int -> int list
(** [slots_spanned ~addr ~size] lists the 8-byte slot indices touched by a
    [size]-byte access at [addr], in increasing order. *)

val align_up : int -> int -> int
(** [align_up n a] rounds [n] up to the next multiple of [a]. *)

val is_aligned : int -> int -> bool
(** [is_aligned n a] is true when [n] is a multiple of [a]. *)
