(** Persistent chunk allocator.

    The heap is an array of 64-byte chunks described by a persisted bitmap;
    every bitmap mutation goes through the redo log as whole-word writes,
    so allocation and free are failure-atomic. A volatile mirror of the
    bitmap accelerates the free-run search; it is rebuilt from PM on
    {!attach}.

    Version note: under {!Version.V1_6} fresh allocations are zero-filled
    and persisted; from 1.8 on they are handed out uninitialised (garbage),
    matching the allocator change that breaks Hashmap Atomic (paper
    section 6.1). *)

type t

exception Out_of_space of { requested_chunks : int }

val attach : Pool.t -> t
(** Build the volatile mirror from the persisted bitmap (one read of the
    whole bitmap). *)

val pool : t -> Pool.t
val chunk_count : t -> int

val used_chunks : t -> int
(** Chunks the mirror marks as allocated (starts and continuations),
    counted from the mirror on each call. *)

val alloc : ?zero:bool -> t -> bytes:int -> int
(** Allocate at least [bytes] (chunk-rounded); returns the address.
    [zero] forces zero-filling regardless of library version. *)

val alloc_size : t -> int -> int
(** Size in bytes of the allocation starting at the given address. *)

val free : t -> int -> unit
(** Release an allocation. Raises [Invalid_argument] if the address is not
    the start of one. *)

val is_allocation_start : t -> int -> bool

val check : Pool.t -> (unit, string) result
(** Structural validation of the persisted bitmap (no orphan continuation
    chunks, no invalid marks), reading it once. Returns the first
    structural error in index order. Used by recovery procedures. *)
