(** Resource accounting for the evaluation (Table 2): wall-clock time, CPU
    load, and memory high-water marks.

    RAM is approximated by the OCaml heap growth and total allocation during
    the measured section — the analogue of peak RSS overhead; PM usage comes
    from the device counters. *)

type t = {
  wall_seconds : float;
  cpu_seconds : float;
  allocated_bytes : float; (* total bytes allocated during the section *)
  heap_growth_words : int; (* major-heap growth during the section *)
}

let cpu_load t = if t.wall_seconds > 0. then t.cpu_seconds /. t.wall_seconds else 0.

(** Bytes allocated so far by the calling domain, exactly: minor words,
    the current minor heap's included, plus words allocated directly in
    the major heap. On OCaml 5.1 [Gc.allocated_bytes] and [Gc.counters]'
    minor field count the minor heap only at minor collections, so a short
    section reads near zero or a whole minor heap. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* Wall time comes from the monotonic clock ([Telemetry.Clock], backed by
   clock_gettime(CLOCK_MONOTONIC)), so an NTP step during a measured
   section cannot produce negative or absurd phase times. On platforms
   without CLOCK_MONOTONIC the clock falls back to wall time
   (Clock.is_monotonic = false) and elapsed_s clamps at 0, which is the
   documented degradation. The allocation reads sit right around [f] so
   the section's count carries only the reads' own few words; it is
   clamped at 0 like heap_growth_words, which keeps the invariant
   explicit. *)
let measure f =
  let wall0 = Telemetry.Clock.now_ns () and cpu0 = Sys.time () in
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  let alloc0 = allocated_bytes () in
  let result = f () in
  let alloc = allocated_bytes () -. alloc0 in
  let wall = Telemetry.Clock.elapsed_s wall0 (Telemetry.Clock.now_ns ()) in
  let cpu = Sys.time () -. cpu0 in
  let heap = (Gc.quick_stat ()).Gc.heap_words - heap0 in
  ( result,
    {
      wall_seconds = wall;
      cpu_seconds = Float.max 0. cpu;
      allocated_bytes = Float.max 0. alloc;
      heap_growth_words = max 0 heap;
    } )

let zero =
  { wall_seconds = 0.; cpu_seconds = 0.; allocated_bytes = 0.; heap_growth_words = 0 }

let add a b =
  {
    wall_seconds = a.wall_seconds +. b.wall_seconds;
    cpu_seconds = a.cpu_seconds +. b.cpu_seconds;
    allocated_bytes = a.allocated_bytes +. b.allocated_bytes;
    heap_growth_words = a.heap_growth_words + b.heap_growth_words;
  }

let sum = List.fold_left add zero

(** [absorb_workers phase workers] folds the allocation counters measured
    inside worker domains into a phase measurement taken on the spawning
    domain. GC counters are domain-local in OCaml 5, so the enclosing
    {!measure} cannot see worker allocations; wall-clock and CPU time are
    process-wide and already accounted for by the enclosing measurement. *)
let absorb_workers phase workers =
  let w = sum workers in
  {
    phase with
    allocated_bytes = phase.allocated_bytes +. w.allocated_bytes;
    heap_growth_words = phase.heap_growth_words + w.heap_growth_words;
  }

(** Machine encoding of a measurement; {!pp} renders these same fields, so
    the human-readable result line and the bench/JSONL emitters cannot
    drift. *)
let to_json t =
  Telemetry.Json.Assoc
    [
      ("wall_seconds", Telemetry.Json.Float t.wall_seconds);
      ("cpu_seconds", Telemetry.Json.Float t.cpu_seconds);
      ("cpu_load", Telemetry.Json.Float (cpu_load t));
      ("allocated_bytes", Telemetry.Json.Float t.allocated_bytes);
      ("heap_growth_words", Telemetry.Json.Int t.heap_growth_words);
    ]

let pp ppf t =
  match to_json t with
  | Telemetry.Json.Assoc fields -> Telemetry.Json.pp_kv ppf fields
  | _ -> assert false
