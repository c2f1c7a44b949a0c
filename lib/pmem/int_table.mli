(** A hash table keyed by an int, hashed inline, whose probe answers a
    miss with a sentinel the caller supplies: a probe allocates nothing on
    a hit and raises nothing on a miss. It backs the device's line table,
    an image view's page overlay and the analyses' per-line and per-code
    tables. *)

type 'a t

val create : int -> 'a t
(** [create n] — an empty table with at least [n] (and at least 16)
    buckets. *)

val find_or : 'a t -> int -> 'a -> 'a
(** [find_or t key default] — the newest binding of [key], or [default]
    when [key] is unbound. *)

val mem : 'a t -> int -> bool

val add : 'a t -> int -> 'a -> unit
(** [add t key data] binds [key] to [data], hiding (not replacing) an
    earlier binding of [key], as [Hashtbl.add] does. *)

val remove : 'a t -> int -> unit
(** [remove t key] drops the newest binding of [key], uncovering the one
    it hid; nothing when [key] is unbound. *)

val length : 'a t -> int
(** The number of bindings, hidden ones included. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Every binding, hidden ones included, newest first within a key. [f]
    must not add to or remove from the table. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** As {!iter}, threading an accumulator. *)
