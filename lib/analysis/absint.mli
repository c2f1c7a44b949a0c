(** Path-sensitive persistency abstract interpreter over the merged
    multi-trace automaton ({!Cfg}).

    Abstracts each cache line through the persistency chain
    [bot < clean < dirty < flushed-pending < persisted], refined into a
    powerset with an epoch split (dirty/pending facts from before the
    current store epoch are distinguished from the current epoch's), with
    transfer functions mirroring {!Pmem.Device} semantics. Produces
    missing-flush / missing-fence / ordering findings on merged paths no
    single recording exercised, each with a concrete path witness, and
    per-site safety proofs the optimizer ranks its plans by. *)

module Lattice : sig
  (** The per-cache-line chain. *)
  type elem = Bot | Clean | Dirty | Flushed_pending | Persisted

  val join : elem -> elem -> elem
  val leq : elem -> elem -> bool
  val rank : elem -> int
  val elem_to_string : elem -> string
  val all_elems : elem list

  (** Powerset refinement used by the fixpoint: a bitmask of chain facts
      holding on some merged path, with dirty/pending split by store
      epoch. Join is bitwise-or. *)
  type mask = int

  val bot : mask
  val clean : mask
  val dirty_epoch : mask
  val dirty_stale : mask
  val pending_epoch : mask
  val pending_stale : mask
  val persisted : mask
  val dirty_bits : mask
  val pending_bits : mask
  val mask_join : mask -> mask -> mask
  val mask_leq : mask -> mask -> bool
  val all_masks : mask list

  val elem_of_mask : mask -> elem
  (** Summarize a mask back onto the chain (worst outstanding fact). *)
end

(** Abstract value of one cache line: fact mask plus deterministic witness
    sites for the outstanding dirty/pending facts. *)
type value = {
  mask : Lattice.mask;
  wit_dirty : string option;
  wit_pending : string option;
}

module Lines : Map.S with type key = int

type state = value Lines.t

val state_join : state -> state -> state
val state_equal : state -> state -> bool
val transfer : Cfg.node -> state -> state

type kind = Missing_flush | Missing_fence | Ordering

val kind_to_string : kind -> string
val kind_rank : kind -> int

type finding = {
  f_kind : kind;
  f_line : int;
  f_site : Pmtrace.Callstack.capture option;
  f_pseq : int;
  f_detail : string;
}

type t = {
  cfg : Cfg.t;
  ins : (string, state) Hashtbl.t;
  exit_state : state;
  findings : finding list;
  proven : (string, unit) Hashtbl.t;
  eadr : bool;
}

val analyze : eadr:bool -> Pmtrace.Event.t list list -> t
(** Merge the recordings, run the fixpoint, derive findings and proofs.
    Under eADR durability findings are suppressed; proofs are unaffected
    (crash images are program-prefix cuts either way). *)

val proven_count : t -> int

val proven_safe_at : t -> Pmtrace.Callstack.capture -> bool
(** Whether the site is proven safe: on every merged path into it, no line
    carries a stale (pre-epoch) dirty or pending fact. *)

val pp : Format.formatter -> t -> unit

val finding_to_json : finding -> Telemetry.Json.t
val to_json : t -> Telemetry.Json.t
(** Ledger encoding: CFG size, safety-proof count, findings with their
    path witnesses. *)
