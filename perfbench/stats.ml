(* Sample statistics and host normalization. *)

(* A percentile is reported only when at least ten samples lie beyond it:
   p90 needs 100 samples. *)
let min_samples_for q = int_of_float (Float.ceil (10. /. (1. -. q) -. 1e-9))

(* Linear interpolation between closest ranks (R type 7, NumPy's default). *)
let quantile_sorted a q =
  let n = Array.length a in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile xs q =
  match xs with
  | [] -> None
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      Some (quantile_sorted a q)

let median xs = quantile xs 0.5

(* [tail xs q] — the [q] percentile, refused (None) when fewer than ten
   samples would lie beyond it. *)
let tail xs q = if List.length xs < min_samples_for q then None else quantile xs q

let sum = List.fold_left ( +. ) 0.

(* A reference sample: [units] kernel units that took [ms] in all,
   started at monotonic time [at] (ns). *)
type ref_sample = { at : int; ms : float; units : int }

(* Host normalization. A duration measured while one reference unit took
   [ref_ms] on average is scaled by [(r0 / ref_ms) ** sensitivity] to the
   host speed at which the unit takes [r0] ms. [sensitivity] is how strongly
   the measured work reacts to the host, relative to the reference: 1 when
   both slow down alike. *)
let normalize ~r0 ~sensitivity ~ref_ms raw = raw *. ((r0 /. ref_ms) ** sensitivity)

(* The factor [normalize] applies to a duration that started at [t], with
   [ref_ms] the mean unit of the samples within [radius] ns of [t]
   (Σreference ÷ units over that window). *)
let factor_at ~r0 ~sensitivity ~radius refs t =
  let ms, units =
    List.fold_left
      (fun (ms, units) r ->
        if abs (r.at - t) <= radius then (ms +. r.ms, units + r.units) else (ms, units))
      (0., 0) refs
  in
  normalize ~r0 ~sensitivity ~ref_ms:(ms /. float_of_int units) 1.
