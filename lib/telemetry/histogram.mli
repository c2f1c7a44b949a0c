(** Log-bucketed latency histograms (nanosecond samples).

    Bucket [i] holds samples [v] with [2^(i-1) <= v < 2^i] (bucket 0 holds
    0 and 1): ~2x resolution over the full 63-bit range in {!buckets}
    fixed cells, so merging is a component-wise sum — associative and
    commutative, which is what lets per-domain histograms from parallel
    injection workers merge deterministically in any order. *)

val buckets : int

(** The record is deliberately concrete: the summary fields ([count],
    [sum], extrema) are the histogram's public statistics and are read
    directly by tests and exporters. Mutate only through {!observe}. *)
type t = {
  counts : int array;  (** [buckets] cells *)
  mutable count : int;
  mutable sum : int;
  mutable min : int;  (** [max_int] when empty *)
  mutable max : int;  (** [min_int] when empty *)
}

val create : unit -> t
val bucket_of : int -> int

val bucket_floor : int -> int
(** Lower bound of bucket [i] (inclusive). *)

val bucket_ceil : int -> int
(** Upper bound of bucket [i] (exclusive). *)

val observe : t -> int -> unit

val merge : t -> t -> t
(** Component-wise sum; neither argument is modified. *)

val copy : t -> t
val equal : t -> t -> bool

val quantile : t -> float -> int
(** Approximate quantile: walks the cumulative bucket counts and reports
    the geometric midpoint of the bucket containing rank [q * count]. *)

val to_json : t -> Json.t
(** Summary encoding used by the JSONL export and the bench result files:
    count, sum, extrema, mean, approximate p50/p90/p99, and the non-empty
    buckets as [[index, count]] pairs. *)
