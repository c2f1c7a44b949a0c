(** Log-bucketed latency histograms (nanosecond samples).

    Bucket [i] holds samples [v] with [2^(i-1) <= v < 2^i] (bucket 0 holds
    0 and 1): ~2x resolution over the full 63-bit range in 63 fixed
    buckets, so merging is a component-wise sum — associative and
    commutative, which is what lets per-domain histograms from parallel
    injection workers merge deterministically in any order. *)

let buckets = 63

type t = {
  counts : int array;  (** [buckets] cells *)
  mutable count : int;
  mutable sum : int;
  mutable min : int;  (** [max_int] when empty *)
  mutable max : int;  (** [min_int] when empty *)
}

let create () =
  { counts = Array.make buckets 0; count = 0; sum = 0; min = max_int; max = min_int }

(* Index of the highest set bit + 1, i.e. bits needed to represent [v];
   0 and 1 both land in bucket 0. *)
let bucket_of v =
  let v = max 0 v in
  let rec bits acc v = if v <= 1 then acc else bits (acc + 1) (v lsr 1) in
  bits 0 v

(** Lower bound of bucket [i] (inclusive). *)
let bucket_floor i = if i = 0 then 0 else 1 lsl (i - 1)

(** Upper bound of bucket [i] (exclusive). *)
let bucket_ceil i = if i = 0 then 2 else 1 lsl i

let observe t v =
  let v = max 0 v in
  t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v

(** Component-wise sum; neither argument is modified. *)
let merge a b =
  {
    counts = Array.init buckets (fun i -> a.counts.(i) + b.counts.(i));
    count = a.count + b.count;
    sum = a.sum + b.sum;
    min = min a.min b.min;
    max = max a.max b.max;
  }

let copy t = { t with counts = Array.copy t.counts }

let equal a b =
  a.count = b.count && a.sum = b.sum && a.min = b.min && a.max = b.max
  && Array.for_all2 ( = ) a.counts b.counts

let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

(** Approximate quantile: walk the cumulative bucket counts and report the
    geometric midpoint of the bucket containing rank [q * count]. *)
let quantile t q =
  if t.count = 0 then 0
  else begin
    let rank = int_of_float (Float.of_int t.count *. q) |> max 0 |> min (t.count - 1) in
    let acc = ref 0 and result = ref t.max in
    (try
       for i = 0 to buckets - 1 do
         acc := !acc + t.counts.(i);
         if !acc > rank then begin
           result := min t.max (max t.min ((bucket_floor i + bucket_ceil i) / 2));
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

(** Summary encoding used by the JSONL export and the bench result files:
    count, sum, extrema, mean, approximate p50/p90/p99, and the non-empty
    buckets as [[index, count]] pairs. *)
let to_json t =
  let non_empty =
    Array.to_list t.counts
    |> List.mapi (fun i c -> (i, c))
    |> List.filter (fun (_, c) -> c > 0)
    |> List.map (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ])
  in
  Json.Assoc
    [
      ("count", Json.Int t.count);
      ("sum_ns", Json.Int t.sum);
      ("min_ns", if t.count = 0 then Json.Null else Json.Int t.min);
      ("max_ns", if t.count = 0 then Json.Null else Json.Int t.max);
      ("mean_ns", Json.Float (mean t));
      ("p50_ns", Json.Int (quantile t 0.5));
      ("p90_ns", Json.Int (quantile t 0.9));
      ("p99_ns", Json.Int (quantile t 0.99));
      ("buckets", Json.List non_empty);
    ]
