(** Compact trace storage: packed event records in a flat [Bigarray] plus
    int-indexed call-path interning and a payload slab.

    A boxed {!Event.t} costs ~13 words per event before counting its stack
    capture, whose [string list] path (one per frame activation) would be
    retained for the lifetime of the trace. The arena packs each event into
    seven integers and interns call paths, so equal paths are stored once
    and every event references them by index; events are decoded back into
    ordinary {!Event.t} values on access (short-lived, minor-heap cheap),
    and single fields of a slot ({!kind}, {!seq}, the op's fields and the
    stack's {!code}) are read without decoding. The recorder
    ({!Replay.record}) is the only writer of a recording's arena: it
    appends each event's fields straight from the device's op and the
    live call stack ({!add_op}). Replay recordings keep store payloads in
    a {!Slab}: one growing byte buffer plus one offset per event position,
    instead of one heap [bytes] per store. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh arena; [capacity] is the initial event capacity (grows by
    doubling). *)

val length : t -> int
(** Events stored. *)

val add : t -> Event.t -> unit
(** Append one event (amortized O(1)). The event's stack path, if any, is
    interned: structurally equal paths share one stored copy. A path
    physically equal to the previous event's (consecutive events of one
    frame activation) reuses its id without hashing the list. *)

val add_op : t -> seq:int -> Pmem.Op.t -> path:string list -> op_index:int -> unit
(** [add_op t ~seq op ~path ~op_index] is [add] of the event
    [{seq; op; stack = Some {path; op_index}}], building neither the event
    nor its capture. *)

val get : t -> int -> Event.t
(** [get t i] decodes the [i]-th event (0-based, insertion order). Decoded
    events of equal paths share the {e same} path list physically —
    the interning-stability property the tests assert.
    @raise Invalid_argument when [i] is out of bounds. *)

val iter : t -> (Event.t -> unit) -> unit
(** Apply to every event in insertion order. *)

val fold : t -> 'a -> ('a -> Event.t -> 'a) -> 'a

val to_list : t -> Event.t list
(** Decode the whole arena, insertion order. *)

val digest : t -> string
(** Hex MD5 of every event's {!Pmem.Op.to_string} rendering followed by
    ['\n'], in insertion order — written straight from the packed slots,
    decoding no event, into one [bytes] of the text's exact length. *)

(** The kind of op an event packs. *)
type kind = Store | Flush | Fence | Load

val kind_of_op : Pmem.Op.t -> kind
(** The kind an op packs as. *)

val kind : t -> int -> kind
(** [kind t i] is the [i]-th event's op kind, read from its packed slot.
    This and the readers below, up to {!code}, decode nothing and allocate
    nothing.
    @raise Invalid_argument when [i] is out of bounds (as do the others). *)

val seq : t -> int -> int
(** The [i]-th event's seq. *)

val addr : t -> int -> int
(** The [i]-th event's address, when it is a store or a load. *)

val size : t -> int -> int
(** The [i]-th event's size, when it is a store or a load. *)

val nt : t -> int -> bool
(** Whether the [i]-th event, a store, is non-temporal. *)

val flush_kind : t -> int -> Pmem.Op.flush_kind
(** The [i]-th event's instruction, when it is a flush; {!line},
    {!dirty} and {!volatile} read its other fields. *)

val line : t -> int -> int
val dirty : t -> int -> bool
val volatile : t -> int -> bool

val pending_flushes : t -> int -> int
(** The [i]-th event's drained flushes, when it is a fence; {!pending_nt}
    its drained non-temporal stores. *)

val pending_nt : t -> int -> int

val code : t -> int -> int
(** The [i]-th event's code path as one int: its interned path id and its
    op_index. Two events of one arena have equal codes exactly when their
    stacks are equal; an event without a stack has code 0 and every other
    code is positive. *)

val capture : t -> int -> Callstack.capture option
(** The [i]-th event's stack, read from its packed slot without decoding
    the op; physically the path {!get} returns. *)

val clear : t -> unit
(** Drop all events (interned paths are kept: ids remain stable across
    [clear], and a stale entry costs only its one stored copy). *)

val path_count : t -> int
(** Distinct call paths interned so far. *)

val path_id : t -> string list -> int option
(** The interning index of a path, if it has been seen. Stable: once
    assigned, a path's id never changes. *)

(** Payload slab: store payload bytes appended to one growing buffer,
    indexed by event position (0-based, the arena's order). A payload's
    length is its store's size, which the caller passes back in. *)
module Slab : sig
  type slab

  val create : ?capacity:int -> unit -> slab

  val snoop : slab -> pos:int -> Pmem.Device.t -> addr:int -> size:int -> unit
  (** Bind position [pos] to the [size] bytes the device's program view
      holds at [addr] ({!Pmem.Device.peek_into}), read straight into the
      buffer. Rebinding a position abandons its old bytes in the buffer
      (the recorder binds each store once). *)

  val copy : slab -> pos:int -> size:int -> into:slab -> at:int -> unit
  (** [copy t ~pos ~size ~into ~at] binds position [at] of [into] to the
      [size] bytes bound to [pos] in [t], blitted buffer to buffer; nothing
      when [pos] is unbound. *)

  val mem : slab -> int -> bool
  (** Is the position bound? Any position out of range, negative ones
      included, is not. *)

  val read : slab -> pos:int -> size:int -> bytes
  (** A fresh copy of the payload bound to [pos]; [size] zero bytes when it
      is unbound. *)

  val blit_to_image : slab -> pos:int -> size:int -> Pmem.Image.t -> addr:int -> unit
  (** Write the payload bound to [pos] into the image at [addr], straight
      from the buffer; [size] zero bytes when it is unbound. *)

  val bytes_used : slab -> int
  (** Bytes appended to the buffer (including abandoned rebinding slack). *)
end
