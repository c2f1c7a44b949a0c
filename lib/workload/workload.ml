(** Deterministic workload generation.

    The evaluation drives every target with sequences of puts, gets and
    deletes in equal proportion (paper section 6.1). Generation is seeded
    and fully deterministic — a requirement of Mumak's reproducible fault
    injection — and keys are strictly positive (several structures reserve
    key 0 as the empty-slot sentinel). *)

type op = Put of int64 * int64 | Get of int64 | Delete of int64

type dist = Uniform | Zipfian of float

type spec = {
  ops : int;
  key_range : int;  (** keys are drawn from [1, key_range] *)
  dist : dist;
  seed : int64;
  put_fraction : float;
  get_fraction : float; (* delete gets the remainder *)
}

let default_spec =
  {
    ops = 1000;
    key_range = 1000;
    dist = Uniform;
    seed = 42L;
    put_fraction = 1. /. 3.;
    get_fraction = 1. /. 3.;
  }

(* SplitMix64 stream. *)
let next state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let to_unit_float v =
  Int64.to_float (Int64.shift_right_logical v 11) /. 9007199254740992.0 (* 2^53 *)

(* Zipfian rank via the inverse-power method (approximate but cheap and
   deterministic). *)
let zipf_rank ~theta ~n u =
  let r = int_of_float (float_of_int n *. (u ** theta)) in
  min (n - 1) (max 0 r)

let key_of spec state =
  let v = next state in
  let idx =
    match spec.dist with
    | Uniform -> Int64.to_int (Int64.rem (Int64.logand v Int64.max_int) (Int64.of_int spec.key_range))
    | Zipfian theta -> zipf_rank ~theta ~n:spec.key_range (to_unit_float v)
  in
  Int64.of_int (idx + 1)

let generate spec =
  let state = ref spec.seed in
  List.init spec.ops (fun _ ->
      let k = key_of spec state in
      let roll = to_unit_float (next state) in
      if roll < spec.put_fraction then Put (k, next state)
      else if roll < spec.put_fraction +. spec.get_fraction then Get k
      else Delete k)

(** Standard evaluation mix: equal puts/gets/deletes. *)
let standard ~ops ~key_range ~seed =
  generate { default_spec with ops; key_range; seed }

let count_puts ops =
  List.length (List.filter (function Put _ -> true | Get _ | Delete _ -> false) ops)
