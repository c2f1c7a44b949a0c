(** Merged multi-trace control-flow automaton.

    Merges the event sequences of several recorded executions keyed on the
    (frame path, per-frame ordinal) instruction identity
    ({!Pmtrace.Callstack.capture}) into one automaton: shared sites become
    single nodes, divergent successors become branches and joins. Paths
    through the merged automaton include combinations no single recording
    exercised — the abstract interpreter ({!Absint}) walks those.

    Construction is canonical (sorted, deduplicated node/instruction/edge
    sets), so merging is idempotent and insensitive to recording order. *)

(** A persistency-relevant instruction instance observed at a site. *)
type instr =
  | Store of { lines : int list; nt : bool }
      (** cache lines spanned by the store *)
  | Flush of { kind : Pmem.Op.flush_kind; line : int }
  | Fence of { kind : Pmem.Op.fence_kind }

val instr_compare : instr -> instr -> int
val instr_to_string : instr -> string

val instr_of_op : Pmem.Op.t -> instr option
(** The persistency instruction of an event; [None] for loads. *)

type node = {
  capture : Pmtrace.Callstack.capture;
  key : string;  (** [capture_to_string capture]; the node identity *)
  mutable instrs : instr list;  (** sorted, deduplicated observations *)
  mutable succs : string list;  (** sorted, deduplicated successor keys *)
  mutable first_pseq : int;
      (** smallest persistency index at which any run reached the site *)
  mutable runs : int;  (** number of recordings that reached the site *)
}

type t = {
  nodes : (string, node) Hashtbl.t;
  mutable entry_succs : string list;  (** sites some run started at *)
  mutable exit_preds : string list;  (** sites some run ended at *)
  mutable runs : int;
  mutable events : int;  (** persistency events folded in, across runs *)
}

val create : unit -> t

val add_run : t -> Pmtrace.Event.t list -> unit
(** Merge one recorded execution. Events must carry stacks (recorded with a
    [with_stacks] tracer); loads are ignored. *)

val build : Pmtrace.Event.t list list -> t
(** [build runs] merges every recording into one automaton. *)

val find_opt : t -> string -> node option
val node_count : t -> int
val edge_count : t -> int

val sorted_nodes : t -> node list
(** Deterministic order: by first persistency index, then key. *)

val signature : t -> string
(** Canonical rendering of the merged structure (excludes observation
    counters); two automata are structurally equal iff signatures match. *)

val equal : t -> t -> bool

val witness : t -> string -> string list
(** [witness t key] — deterministic concrete path (node keys, entry first)
    from the automaton entry to [key]; [[]] if unreachable. *)

val witness_tail : ?limit:int -> t -> string -> string
(** Compact rendering of the witness path tail for finding details. *)
