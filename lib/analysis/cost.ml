(** The optimizer's cost model: per-instruction cycle weights used to rank
    transformation plans by projected savings.

    One fixed table, {!static_weights}, in line with published
    CLWB/CLFLUSH/SFENCE microbenchmark figures (the lint phase prices its
    savings with it too), so plan rankings never drift between runs or
    hosts. The weights only rank plans; verdicts stay the verifier's
    business. *)

type weights = {
  w_store : int;
  w_nt_store : int;  (** non-temporal stores bypass the cache but cost more to issue *)
  w_clflush : int;  (** invalidating flush: the most expensive *)
  w_clflushopt : int;
  w_clwb : int;  (** cache-preserving write-back (the kvstores' flush) *)
  w_sfence : int;
  w_mfence : int;
  w_rmw : int;  (** lock-prefixed RMW, fence semantics included *)
}

(* The flush/fence anchors (250/30) also price the lint phase's savings
   estimates, so lint cycle counts and optimizer projections read on one
   scale. *)
let static_weights =
  {
    w_store = 12;
    w_nt_store = 90;
    w_clflush = 400;
    w_clflushopt = 260;
    w_clwb = 250;
    w_sfence = 30;
    w_mfence = 60;
    w_rmw = 45;
  }

let op_cycles w : Pmem.Op.t -> int = function
  | Pmem.Op.Store { nt = false; _ } -> w.w_store
  | Pmem.Op.Store { nt = true; _ } -> w.w_nt_store
  | Pmem.Op.Flush { kind = Pmem.Op.Clflush; _ } -> w.w_clflush
  | Pmem.Op.Flush { kind = Pmem.Op.Clflushopt; _ } -> w.w_clflushopt
  | Pmem.Op.Flush { kind = Pmem.Op.Clwb; _ } -> w.w_clwb
  | Pmem.Op.Fence { kind = Pmem.Op.Sfence; _ } -> w.w_sfence
  | Pmem.Op.Fence { kind = Pmem.Op.Mfence; _ } -> w.w_mfence
  | Pmem.Op.Fence { kind = Pmem.Op.Rmw; _ } -> w.w_rmw
  | Pmem.Op.Load _ -> 0

(** Modelled cycles of a whole trace (loads are free: the model prices
    persistency traffic, which is what the transformations change). *)
let trace_cycles w events =
  List.fold_left (fun acc (e : Pmtrace.Event.t) -> acc + op_cycles w e.Pmtrace.Event.op) 0 events

let to_json w =
  let open Telemetry.Json in
  Assoc
    [
      ("store", Int w.w_store);
      ("nt_store", Int w.w_nt_store);
      ("clflush", Int w.w_clflush);
      ("clflushopt", Int w.w_clflushopt);
      ("clwb", Int w.w_clwb);
      ("sfence", Int w.w_sfence);
      ("mfence", Int w.w_mfence);
      ("rmw", Int w.w_rmw);
    ]
