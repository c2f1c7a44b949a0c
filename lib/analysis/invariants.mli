(** Likely-invariant inference over persistency dependency graphs
    (Witcher-style): ordering and atomicity conditions mined from how the
    program usually behaves, gated by support/confidence thresholds. The
    graphs come from one load-traced recording; the static analyzer pools
    its graph once per configured run. *)

type ordering_stat = {
  o_src_path : string;  (** frame path of the pointer load *)
  o_dst_path : string;  (** frame path of the pointee load *)
  o_instances : int;
  o_enforced : int;  (** pointee epoch strictly before pointer epoch *)
  o_unordered : int;  (** both persisted by the same fence *)
  o_inverted : int;  (** pointee persisted after the pointer *)
  o_dangling : int;  (** pointee never persisted (dirty window at chase) *)
}

val o_confidence : ordering_stat -> float
(** Fraction of enforced instances; 1.0 when the group saw only
    [Unknown]-pointee chases. *)

type dep_stat = {
  dep_src : string;  (** store location whose line must persist first *)
  dep_dst : string;
  dep_count : int;  (** edge instances witnessing the dependence *)
  dep_co : int;  (** epochs where both locations persisted together *)
}

type atomic_stat = {
  a_loc1 : string;
  a_loc2 : string;
  a_co : int;  (** epochs where both locations persisted together *)
  a_split : int;  (** near misses: persisted in distinct epochs <= 2 apart *)
  a_split_instances : (int * int * int) list;
      (** (graph index, node id of loc1, node id of loc2), capped *)
}

val a_confidence : atomic_stat -> float

type t = {
  orderings : ordering_stat list;  (** supported chase groups, instances desc *)
  deps : dep_stat list;  (** supported edge-dependence pairs *)
  atomic_pairs : atomic_stat list;  (** accepted atomicity invariants *)
}

val mine :
  support:int ->
  confidence:float ->
  (Dep_graph.t * (Dep_graph.node -> string list)) list ->
  t
(** [mine ~support ~confidence graphs] pools instances across the given
    graphs. Each graph comes with a resolver mapping a persist node to its
    stable store locations (the stores' captures, whose ordinals skip
    loads, so they compare across dynamic instances).
    [support] is the minimum pooled instance count for any candidate;
    [confidence] additionally gates the atomicity family (ordering
    candidates keep their measured confidence, since a deterministic bug
    violates its invariant in every instance). *)
