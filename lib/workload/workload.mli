(** Deterministic workload generation.

    The evaluation drives every target with sequences of puts, gets and
    deletes in equal proportion (paper section 6.1). Generation is seeded
    and fully deterministic — a requirement of Mumak's reproducible fault
    injection — and keys are strictly positive (several structures reserve
    key 0 as the empty-slot sentinel). *)

type op = Put of int64 * int64 | Get of int64 | Delete of int64

type dist = Uniform | Zipfian of float  (** skew exponent *)

type spec = {
  ops : int;
  key_range : int;  (** keys are drawn from [1, key_range] *)
  dist : dist;
  seed : int64;
  put_fraction : float;
  get_fraction : float;  (** deletes get the remainder *)
}

val default_spec : spec
(** 1000 ops, 1000 keys, uniform, equal thirds. *)

val generate : spec -> op list

val standard : ops:int -> key_range:int -> seed:int64 -> op list
(** The evaluation mix: equal thirds of puts, gets and deletes. *)

val count_puts : op list -> int
