(** The per-cacheline persistency dependency graph, built offline from one
    recorded execution trace.

    Nodes are {e persists} (one cache line reaching durability at one fence
    epoch: the store → flush → fence lineage of the line's pending window);
    edges are {e read-after-persist} dependencies witnessing that one
    line's new content was derived from another line's persisted content.
    Pointer chases (consecutive loads in the same frame activation) record
    the reader-side ordering requirements that write-side edges cannot see.

    All [*_p] fields are {e persistency-index} coordinates: the event
    position counting only non-load events, which equals the instruction
    counter of a load-free execution of the same deterministic workload —
    directly comparable with trace-analysis seqs and failure-point first
    occurrences. Store locations are the stores' stack captures, whose
    ordinals skip loads ({!Pmtrace.Callstack.capture}): one load-traced
    recording yields the same locations a load-free one would. *)

type node = {
  id : int;  (** creation order: nondecreasing in (epoch, fence) *)
  line : int;
  epoch : int;  (** index of the fence that persisted this window *)
  first_store : int;  (** raw trace seq *)
  last_store : int;
  store_count : int;
  flush : int option;  (** raw seq of the capturing flush; [None] = NT store *)
  fence : int;  (** raw seq of the persisting fence *)
  first_store_p : int;
  last_store_p : int;
  flush_p : int option;
  fence_p : int;
  locs : string list;  (** store locations (captures), when recorded *)
}

type edge = {
  src : int;  (** node id of the persisted line that was read *)
  dst : int;  (** node id of the window a later store contributed to *)
  witness : int;  (** raw seq of the witnessing load *)
}

(** What the second load of a pointer chase found for the pointee line. *)
type pointee = Persisted of int  (** node id *) | Dirty_window | Unknown

type chase = {
  c_src : int;  (** node id of the pointer line's persist *)
  c_dst : pointee;
  c_dst_line : int;
  c_seq : int;  (** raw seq of the pointee load *)
  c_seq_p : int;  (** persistency index right before the pointee load *)
  c_paths : string * string;  (** frame paths of the two loads, for grouping *)
}

(** A store window that never reached durability. *)
type dangling = {
  d_line : int;
  d_first_store_p : int;
  d_last_store_p : int;
  d_flush_p : int option;  (** [Some _]: flushed but never fenced *)
  d_locs : string list;
  d_line_flushed : bool;  (** the line is flushed elsewhere in the trace *)
  d_line_persisted : bool;  (** the line has earlier persist nodes *)
}

type t = {
  nodes : node array;
  edges : edge list;
  chases : chase list;
  dangling : dangling list;
  epochs : int;  (** number of fences in the trace *)
  events : int;
}

val build : Pmtrace.Event.t list -> t
(** [build events] folds a recorded trace (execution order) into a graph.
    Traces recorded with load tracing enabled yield dependency edges and
    chases; load-free traces yield the persist lineage only. Store
    locations are the stores' own stack captures. *)

val node : t -> int -> node

val epoch_groups : t -> (int * node list) list
(** Persist nodes grouped by fence epoch, ascending. *)

val check : t -> string list
(** Structural-property violations (empty on every graph [build] can
    produce): per-node seq monotonicity (stores <= flush < fence, in both
    coordinate systems), creation-ordered ids, strictly epoch-forward edges
    with their witness load inside (src fence, dst fence), and explicit
    DFS acyclicity. The qcheck suite drives this over generated workloads. *)

val pp : t Fmt.t
