(** The optimizer's cost model: per-instruction cycle weights that price
    persistency traffic, used by {!Opt} to rank transformation plans by
    projected savings.

    {!static_weights} is one fixed, deterministic table whose flush/fence
    anchors also price the lint phase's estimates, so lint cycle counts
    and optimizer projections read on one scale. The weights only rank
    plans; verdicts stay the verifier's business. *)

type weights = {
  w_store : int;
  w_nt_store : int;
  w_clflush : int;
  w_clflushopt : int;
  w_clwb : int;
  w_sfence : int;
  w_mfence : int;
  w_rmw : int;
}

val static_weights : weights

val op_cycles : weights -> Pmem.Op.t -> int
(** Modelled cycles of one instruction; loads are free. *)

val trace_cycles : weights -> Pmtrace.Event.t list -> int

val to_json : weights -> Telemetry.Json.t
