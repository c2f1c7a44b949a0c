(** Compact trace storage: packed event records in a flat [Bigarray] plus
    int-indexed call-path interning and a payload slab.

    A boxed {!Event.t} costs ~13 words per event before counting its stack
    capture, whose [string list] path (one per frame activation) would be
    retained for the lifetime of the trace. The arena packs each event into
    seven integers and interns call paths, so equal paths are stored once
    and every event references them by index; events are decoded back into
    ordinary {!Event.t} values on access (short-lived, minor-heap cheap).
    Replay recordings keep store payloads in a {!Slab}: one growing byte
    buffer plus a seq-indexed offset table, instead of one heap [bytes] per
    store. *)

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

val clear : t -> unit
(** Drop all events (interned paths are kept: ids remain stable across
    [clear], and a stale entry costs only its one stored copy). *)

val path_count : t -> int
(** Distinct call paths interned so far. *)

val path_id : t -> string list -> int option
(** The interning index of a path, if it has been seen. Stable: once
    assigned, a path's id never changes. *)

val words : t -> int
(** Approximate resident size in words: packed storage plus interned path
    storage — the arena analogue of the old 13-words-per-event estimate. *)

(** Payload slab: store payload bytes appended to one growing buffer,
    indexed by event seq. *)
module Slab : sig
  type slab

  val create : ?capacity:int -> unit -> slab
  val set : slab -> key:int -> bytes -> unit
  (** Bind [key] to a copy of the payload. Rebinding a key abandons the old
      bytes in the buffer (the recorder binds each store seq once). *)

  val find : slab -> int -> bytes option
  (** A fresh copy of the payload bound to [key], if any. *)

  val iter : slab -> (int -> bytes -> unit) -> unit
  (** Visit every binding (unspecified order); payloads are fresh copies. *)

  val length : slab -> int
  (** Number of bindings. *)

  val bytes_used : slab -> int
  (** Bytes appended to the buffer (including abandoned rebinding slack). *)
end
