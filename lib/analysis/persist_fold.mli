(** The per-line persistency fold: one streaming pass over the PM access
    stream that decides once what each flush and fence does and when each
    store becomes durable. Trace analysis, lint and the static analyzer's
    redundancy findings are views over it.

    A flush is clean when the event's device-computed [dirty] bit says so;
    a fence drains every capture of its epoch. Line positions are
    persistency indices (loads not counted); the durability residue keeps
    each store's raw event [seq]. *)

type t

(** What the event just fed did. *)
type step =
  | Load
  | Store
  | Volatile_flush  (** the flushed address is outside the PM pool *)
  | Clean_flush  (** nothing unpersisted in the line *)
  | Clean_nt_flush  (** clean, and the line was written non-temporally this epoch *)
  | Dirty_flush  (** captures the line: see {!captured_stores} and {!overwritten} *)
  | Fence  (** closes the epoch: see {!stranded} *)

val create : ?residue:bool -> unit -> t
(** A fresh fold. With [residue] (default false) it also follows every
    8-byte slot from store to durability, for {!iter_residue}; only trace
    analysis reads that, and a fold without it keeps no per-slot state. *)

(** {1 The step}

    One function per kind of event, taking the event's fields; a load
    changes nothing and steps [Load]. {!feed} is the same step over a
    decoded event. *)

val store : t -> seq:int -> addr:int -> size:int -> nt:bool -> step
val flush : t -> Pmem.Op.flush_kind -> line:int -> dirty:bool -> volatile:bool -> step
val fence : t -> step
val feed : t -> Pmtrace.Event.t -> step

val redundancy : step -> Pmem.Op.t -> string option
(** How every view describes a flush or fence that does no work — a
    volatile or clean flush, a fence with nothing pending; [None] for any
    other event. {!flush_redundancy} and {!fence_redundancy} are the same
    description from the event's fields. *)

val flush_redundancy : step -> line:int -> string option
val fence_redundancy : pending_flushes:int -> pending_nt:int -> string option

val pseq : t -> int
(** Persistency index of the last non-load event fed (1-based). *)

val captured_stores : t -> int
(** After a [Dirty_flush]: cached stores to the line since its last dirty flush. *)

val overwritten : t -> int
(** After a [Dirty_flush]: the persistency index of the same line's
    clflushopt/clwb capture, in the same epoch, that it re-captures; 0 if none. *)

val stranded : t -> (int -> int -> unit) -> unit
(** After a [Fence]: [f line store_pseq] for every line that took a cached
    store in the epoch the fence closed and is still dirty, at the line's
    latest cached store; in no particular order. *)

val last_flush : t -> int -> int
(** Persistency index of the line's latest non-volatile flush; 0 if never. *)

val iter_residue : t -> (slot:int -> seq:int -> captured:bool -> line_flushed:bool -> unit) -> unit
(** Every 8-byte slot whose latest store never became durable — [captured]
    if a flush or non-temporal store captured it but no fence drained it,
    [line_flushed] if its line is flushed anywhere in the trace — in the
    order trace analysis reports them.
    @raise Invalid_argument on a fold made without [~residue:true]. *)
