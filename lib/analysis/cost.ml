(** The optimizer's cost model: per-instruction cycle weights used to rank
    transformation plans by projected savings.

    Two sources of weights. {!static_weights} are fixed numbers in line
    with published CLWB/CLFLUSH/SFENCE microbenchmark figures (the lint
    phase prices its savings with them too) — fully deterministic, so plan
    rankings never drift between runs; they are the default. {!fit}
    derives weights from measured latency histograms — either recorded
    live by {!measure} (one timed replay of the recording, one histogram
    per op class) or re-imported from a telemetry JSONL export
    ({!Telemetry.Histogram.of_json}) — rescaled so the clwb weight anchors
    the static scale. Fitting is opt-in: it only reorders plan rankings,
    never verdicts, which stay the verifier's business. *)

type weights = {
  w_store : int;
  w_nt_store : int;  (** non-temporal stores bypass the cache but cost more to issue *)
  w_clflush : int;  (** invalidating flush: the most expensive *)
  w_clflushopt : int;
  w_clwb : int;  (** cache-preserving write-back (the kvstores' flush) *)
  w_sfence : int;
  w_mfence : int;
  w_rmw : int;  (** lock-prefixed RMW, fence semantics included *)
  w_source : string;  (** "static" or "fitted" — stamped into bench rows *)
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
    w_source = "static";
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

(* The histogram names {!measure} records and {!fit} looks for. *)
let class_names =
  [
    "cost.store_ns";
    "cost.nt_store_ns";
    "cost.clflush_ns";
    "cost.clflushopt_ns";
    "cost.clwb_ns";
    "cost.sfence_ns";
    "cost.mfence_ns";
    "cost.rmw_ns";
  ]

let class_of_op : Pmem.Op.t -> string option = function
  | Pmem.Op.Store { nt = false; _ } -> Some "cost.store_ns"
  | Pmem.Op.Store { nt = true; _ } -> Some "cost.nt_store_ns"
  | Pmem.Op.Flush { kind = Pmem.Op.Clflush; _ } -> Some "cost.clflush_ns"
  | Pmem.Op.Flush { kind = Pmem.Op.Clflushopt; _ } -> Some "cost.clflushopt_ns"
  | Pmem.Op.Flush { kind = Pmem.Op.Clwb; _ } -> Some "cost.clwb_ns"
  | Pmem.Op.Fence { kind = Pmem.Op.Sfence; _ } -> Some "cost.sfence_ns"
  | Pmem.Op.Fence { kind = Pmem.Op.Mfence; _ } -> Some "cost.mfence_ns"
  | Pmem.Op.Fence { kind = Pmem.Op.Rmw; _ } -> Some "cost.rmw_ns"
  | Pmem.Op.Load _ -> None

(** One timed pass over a recorded event stream: each op is re-applied to
    a fresh simulated device with {!Telemetry.Clock} stamps around it, one
    latency histogram per op class (store payloads are not needed — the
    model times the instruction, not the bytes). The result feeds {!fit};
    it can also be exported through the telemetry JSONL and re-imported
    elsewhere. *)
let measure ~pool_size (events : Pmtrace.Event.t list) =
  let device = Pmem.Device.create ~size:pool_size () in
  let tbl = Hashtbl.create 8 in
  let hist name =
    match Hashtbl.find_opt tbl name with
    | Some h -> h
    | None ->
        let h = Telemetry.Histogram.create () in
        Hashtbl.replace tbl name h;
        h
  in
  List.iter
    (fun (e : Pmtrace.Event.t) ->
      match class_of_op e.Pmtrace.Event.op with
      | None -> ()
      | Some cls ->
          let t0 = Telemetry.Clock.now_ns () in
          (match e.Pmtrace.Event.op with
          | Pmem.Op.Store { addr; size; nt } ->
              let b = Bytes.make size '\000' in
              if nt then Pmem.Device.store_nt device ~addr b
              else Pmem.Device.store device ~addr b
          | Pmem.Op.Flush { kind; line; volatile; _ } ->
              Pmem.Device.flush_line device ~kind ~line ~volatile
          | Pmem.Op.Fence { kind; _ } -> (
              match kind with
              | Pmem.Op.Sfence -> Pmem.Device.sfence device
              | Pmem.Op.Mfence -> Pmem.Device.mfence device
              | Pmem.Op.Rmw -> Pmem.Device.rmw_fence device)
          | Pmem.Op.Load _ -> ());
          Telemetry.Histogram.observe (hist cls) (Telemetry.Clock.now_ns () - t0))
    events;
  List.filter_map
    (fun name -> Option.map (fun h -> (name, h)) (Hashtbl.find_opt tbl name))
    class_names

(** Fit weights from latency histograms: each op class's mean latency is
    rescaled so the sampled clwb mean maps onto the static clwb weight
    (falling back to the first sampled class when no clwb was observed),
    keeping fitted and static numbers on one scale. Classes without
    samples keep their static weight; an empty histogram list is exactly
    {!static_weights}. *)
let fit histograms =
  let mean name =
    match List.assoc_opt name histograms with
    | Some h when h.Telemetry.Histogram.count > 0 -> Some (Telemetry.Histogram.mean h)
    | _ -> None
  in
  let anchor =
    match mean "cost.clwb_ns" with
    | Some m -> Some (float_of_int static_weights.w_clwb /. m)
    | None ->
        List.find_map
          (fun (name, st) ->
            Option.map (fun m -> (float_of_int st /. m)) (mean name))
          [
            ("cost.clflushopt_ns", static_weights.w_clflushopt);
            ("cost.clflush_ns", static_weights.w_clflush);
            ("cost.sfence_ns", static_weights.w_sfence);
            ("cost.store_ns", static_weights.w_store);
          ]
  in
  match anchor with
  | None -> static_weights
  | Some scale ->
      let weight name st =
        match mean name with
        | Some m -> max 1 (int_of_float (Float.round (m *. scale)))
        | None -> st
      in
      {
        w_store = weight "cost.store_ns" static_weights.w_store;
        w_nt_store = weight "cost.nt_store_ns" static_weights.w_nt_store;
        w_clflush = weight "cost.clflush_ns" static_weights.w_clflush;
        w_clflushopt = weight "cost.clflushopt_ns" static_weights.w_clflushopt;
        w_clwb = weight "cost.clwb_ns" static_weights.w_clwb;
        w_sfence = weight "cost.sfence_ns" static_weights.w_sfence;
        w_mfence = weight "cost.mfence_ns" static_weights.w_mfence;
        w_rmw = weight "cost.rmw_ns" static_weights.w_rmw;
        w_source = "fitted";
      }

(** Re-import "cost.*" histograms from a telemetry JSONL document (the
    export format of {!Telemetry.Jsonl}), for fitting from a previously
    recorded run. Unparseable lines are skipped — the caller decides
    whether an empty result is an error. *)
let histograms_of_jsonl doc =
  String.split_on_char '\n' doc
  |> List.filter_map (fun lineS ->
         match Telemetry.Json.of_string (String.trim lineS) with
         | Error _ -> None
         | Ok record -> (
             match
               ( Option.bind (Telemetry.Json.member "type" record)
                   Telemetry.Json.to_string_opt,
                 Option.bind (Telemetry.Json.member "name" record)
                   Telemetry.Json.to_string_opt )
             with
             | Some "histogram", Some name when List.mem name class_names ->
                 Option.map (fun h -> (name, h)) (Telemetry.Histogram.of_json record)
             | _ -> None))

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
      ("source", String w.w_source);
    ]

let pp ppf w =
  Fmt.pf ppf
    "cost weights (%s): store=%d nt=%d clflush=%d clflushopt=%d clwb=%d sfence=%d mfence=%d \
     rmw=%d"
    w.w_source w.w_store w.w_nt_store w.w_clflush w.w_clflushopt w.w_clwb w.w_sfence w.w_mfence
    w.w_rmw
