(** A persistent-memory image: the bytes that actually survive a crash.

    The image models the contents of the physical medium (including the
    write-pending queue, which sits inside the ADR persistence domain).
    Everything written here is durable; everything not yet written here is
    lost on a crash. *)

type t
(** A table of 4 KiB pages. A page nothing has written is one zero page
    shared by every image and never written, so an image costs the pages
    written to it plus its table. *)

val create : size:int -> t
(** [create ~size] is a zero-filled image of [size] bytes. It allocates
    only its page table: every page is the shared zero page. *)

val size : t -> int

val snapshot : t -> t
(** [snapshot t] is an independent deep copy of [t]: it copies the pages
    written to [t] (through a view, its base's and its own) and shares
    the zero page. *)

val cow : t -> t
(** [cow t] is a copy-on-write view of [t]'s current contents: reads fall
    through to [t]'s pages, writes materialize private 4 KiB pages, and
    [t] itself is never mutated through the view. Creating a view of a
    plain image copies nothing, not even the page table — the caller
    must not mutate [t] while the view is live (the batched materializer
    guarantees this by finishing each oracle run before rolling the
    shared prefix image forward). A view of a view reads through a
    {!snapshot} of [t]. *)

val cow_pages : t -> (int * bytes * bytes) list
(** [cow_pages v] is what a {!cow} view has written: each private page as
    [(byte offset, base page, private page)], the base page being the
    4 KiB page of the image [v] reads through that the private one
    shadows, in ascending offset order. A page's bytes at or past
    [size v] are padding. Copies nothing; the pages must not be mutated,
    and the result is valid as long as the view is.
    @raise Invalid_argument when [v] is not a copy-on-write view. *)

val read : t -> addr:int -> size:int -> bytes
(** [read t ~addr ~size] copies [size] bytes starting at [addr]. *)

val write : t -> addr:int -> bytes -> unit
(** [write t ~addr b] writes all of [b] at [addr]. A page whose bytes the
    write leaves unchanged (zeros into an untouched page, say) stays
    shared. *)

val read_i64 : t -> addr:int -> int64
(** Little-endian 8-byte load. *)

val write_i64 : t -> addr:int -> int64 -> unit
(** Little-endian 8-byte store. *)

val blit_from : t -> src_addr:int -> dst:bytes -> dst_off:int -> len:int -> unit
val blit_to : t -> dst_addr:int -> src:bytes -> src_off:int -> len:int -> unit

val equal : t -> t -> bool
(** Byte-wise equality of two images, compared page by page in place;
    pages the two share are skipped. *)
