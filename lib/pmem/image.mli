(** A persistent-memory image: the bytes that actually survive a crash.

    The image models the contents of the physical medium (including the
    write-pending queue, which sits inside the ADR persistence domain).
    Everything written here is durable; everything not yet written here is
    lost on a crash. *)

type t

val create : size:int -> t
(** [create ~size] is a zero-filled image of [size] bytes. *)

val size : t -> int

val snapshot : t -> t
(** [snapshot t] is an independent deep copy of [t]. *)

val cow : t -> t
(** [cow t] is a copy-on-write view of [t]'s current contents: reads fall
    through to [t], writes materialize private 4 KiB pages, and [t] itself
    is never mutated through the view. Creating a view of a plain image
    copies nothing — the caller must not mutate [t] while the view is live
    (the batched materializer guarantees this by finishing each oracle run
    before rolling the shared prefix image forward). A view of a view
    reads through one private copy of [t]'s current contents. *)

val cow_pages : t -> bytes * (int * bytes) list
(** [cow_pages v] is what a {!cow} view is made of: the base buffer it
    reads through, and the private pages written through it so far as
    [(byte offset, 4 KiB page)] pairs in ascending offset order. A page's
    bytes at or past [size v] are padding. Copies nothing; the result is
    valid as long as the view is.
    @raise Invalid_argument when [v] is not a copy-on-write view (never
    was one, or was flattened by {!unsafe_bytes}). *)

val read : t -> addr:int -> size:int -> bytes
(** [read t ~addr ~size] copies [size] bytes starting at [addr]. *)

val write : t -> addr:int -> bytes -> unit
(** [write t ~addr b] writes all of [b] at [addr]. *)

val read_i64 : t -> addr:int -> int64
(** Little-endian 8-byte load. *)

val write_i64 : t -> addr:int -> int64 -> unit
(** Little-endian 8-byte store. *)

val blit_from : t -> src_addr:int -> dst:bytes -> dst_off:int -> len:int -> unit
val blit_to : t -> dst_addr:int -> src:bytes -> src_off:int -> len:int -> unit

val equal : t -> t -> bool
(** Byte-wise equality of two images. *)

val unsafe_bytes : t -> bytes
(** The underlying buffer, for bulk operations. Mutating it bypasses the
    persistence model; reserved for the device implementation. On a {!cow}
    view this flattens the overlay into a private flat buffer first (one
    full copy), after which the view no longer reads through. *)
