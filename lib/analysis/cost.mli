(** The optimizer's cost model: per-instruction cycle weights that price
    persistency traffic, used by {!Opt} to rank transformation plans by
    projected savings.

    Weights come from two sources. {!static_weights} (the default) are
    fixed, deterministic numbers whose flush/fence anchors also price the
    lint phase's estimates, so lint cycle counts and optimizer projections
    read on one scale. {!fit} rescales weights from measured latency
    histograms — recorded live by {!measure} or re-imported from a
    telemetry JSONL export — anchored on the clwb mean. Fitting only
    reorders plan rankings; verdicts stay the verifier's business. *)

type weights = {
  w_store : int;
  w_nt_store : int;
  w_clflush : int;
  w_clflushopt : int;
  w_clwb : int;
  w_sfence : int;
  w_mfence : int;
  w_rmw : int;
  w_source : string;  (** "static" or "fitted" *)
}

val static_weights : weights

val op_cycles : weights -> Pmem.Op.t -> int
(** Modelled cycles of one instruction; loads are free. *)

val trace_cycles : weights -> Pmtrace.Event.t list -> int

val class_names : string list
(** The "cost.<class>_ns" histogram names {!measure} records and {!fit}
    consumes. *)

val class_of_op : Pmem.Op.t -> string option

val measure : pool_size:int -> Pmtrace.Event.t list -> (string * Telemetry.Histogram.t) list
(** One timed pass over a recorded event stream against a fresh simulated
    device: a latency histogram per op class, suitable for {!fit} and for
    the telemetry JSONL export. *)

val fit : (string * Telemetry.Histogram.t) list -> weights
(** Weights from measured latency means, rescaled so the sampled clwb mean
    maps onto [static_weights.w_clwb] (first sampled class as fallback
    anchor). Unsampled classes keep their static weight; an empty list is
    exactly {!static_weights}. *)

val histograms_of_jsonl : string -> (string * Telemetry.Histogram.t) list
(** Recover "cost.*" histograms from a telemetry JSONL document; lines
    that are not cost histograms are skipped. *)

val to_json : weights -> Telemetry.Json.t
val pp : weights Fmt.t
