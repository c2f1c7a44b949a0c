(** A persistent object pool: the libpmemobj analogue.

    A pool owns a whole {!Pmem.Device}; all offsets are device addresses.
    The pool exposes raw typed accessors plus the persist primitives
    applications use. Crash consistency of pool metadata is delegated to
    {!Lowlog}/{!Redo} (allocator and header updates) and {!Tx} (user
    transactions); {!Recovery.open_pool} composes their recovery steps. *)

type t

exception Corrupted of string
(** The persistent state cannot be brought to a consistent state: the
    signal the recovery oracle turns into a bug report. *)

exception Not_initialised
(** The device holds no committed pool: either it is blank or a crash hit
    pool creation before the commit marker (the header checksum) was
    written. The caller re-creates the pool. *)

val create : ?version:Version.t -> Pmem.Device.t -> t
(** Format a fresh pool (default version 1.12). Creation is failure-atomic:
    everything is written first and committed by a single atomic store of
    the header checksum. *)

val attach : Pmem.Device.t -> t
(** Attach to an existing pool without running recovery; validates the
    header. Raises {!Not_initialised} or {!Corrupted}. *)

val attach_unchecked : Pmem.Device.t -> t
(** Attach without validation — recovery repairs the redo log first, then
    calls {!validate_header}. *)

val validate_header : t -> unit
(** Raises {!Not_initialised} when the pool was never committed and
    {!Corrupted} when the header fails its checksum. *)

val device : t -> Pmem.Device.t
val layout : t -> Layout.t
val version : t -> Version.t
val size : t -> int

(** {1 Raw access} — offsets are device addresses *)

val read_i64 : t -> off:int -> int64
val write_i64 : t -> off:int -> int64 -> unit
val read_bytes : t -> off:int -> len:int -> bytes
val write_bytes : t -> off:int -> bytes -> unit
val read_u8 : t -> off:int -> int
val write_u8 : t -> off:int -> int -> unit

val read_into : t -> off:int -> len:int -> bytes -> unit
(** [read_into t ~off ~len dst] is {!read_bytes} into the first [len]
    bytes of [dst] ({!Pmem.Device.load_into}). *)

(** {1 Persistency primitives} *)

val flush : t -> off:int -> size:int -> unit
(** Write back ([clwb]) every line of the range, without draining. *)

val drain : t -> unit
(** [sfence]: make every pending flush durable. *)

val persist : t -> off:int -> size:int -> unit
(** [flush] + [drain]: the everyday "make this range durable" helper, like
    libpmemobj's [pmemobj_persist]. *)

val persist_i64 : t -> off:int -> int64 -> unit
(** Store then persist one word. *)

val volatile_scratch_addr : t -> int
(** An address guaranteed to lie outside the pool: flushing it reproduces
    the "flush acts on a volatile address" performance bug. *)

(** {1 Header and root object} *)

val header_checksum : t -> int64
(** The checksum the current header fields should carry. *)

val set_root : t -> off:int -> size:int -> unit
(** Publish the application root object, failure-atomically (the update
    and its checksum refresh go through the redo log). *)

val root : t -> (int * int) option
(** [root t] is [Some (off, size)] once a root was published. *)
