(* The traced run: one analysis decomposed into the public calls of each
   layer, made in the order Engine.analyze makes them for the workload's
   configuration, each call wrapped in a span; then Engine.analyze itself,
   and (on detect-matrix) the ledger append. Spans stay in memory until the
   run ends. *)

type span = {
  id : int;
  parent : int;  (** -1 for the root span of a configuration-pass *)
  group : int;  (** shared by every span of one configuration-pass *)
  name : string;
  t0 : int;
  t1 : int;  (** monotonic ns *)
  alloc : float;  (** bytes allocated inside the span *)
  minor : int;
  major : int;  (** GC collections inside the span *)
}

type tracer = { mutable spans : span list; mutable next : int }

let tracer () = { spans = []; next = 0 }

let gc_now () =
  let q = Gc.quick_stat () in
  (Gc.allocated_bytes (), q.Gc.minor_collections, q.Gc.major_collections)

(* [with_span tr ~group ~parent name f] runs [f id] inside a new span and
   returns its result with the span. *)
let with_span tr ~group ~parent name f =
  let id = tr.next in
  tr.next <- id + 1;
  let a0, mi0, ma0 = gc_now () in
  let t0 = Telemetry.Clock.now_ns () in
  let v = f id in
  let t1 = Telemetry.Clock.now_ns () in
  let a1, mi1, ma1 = gc_now () in
  let s =
    { id; parent; group; name; t0; t1; alloc = a1 -. a0; minor = mi1 - mi0; major = ma1 - ma0 }
  in
  tr.spans <- s :: tr.spans;
  (v, s)

let ns s = float_of_int (s.t1 - s.t0)

let image_oracle ~eadr (target : Mumak.Target.t) img =
  match Mumak.Oracle.classify target.Mumak.Target.recover (Pmem.Device.of_image ~eadr img) with
  | Mumak.Oracle.Consistent -> None
  | Mumak.Oracle.Unrecoverable msg ->
      Some (Mumak.Report.kind_to_string Mumak.Report.Unrecoverable_state, msg)
  | Mumak.Oracle.Crashed msg ->
      Some (Mumak.Report.kind_to_string Mumak.Report.Recovery_crash, msg)

let oracle_flagged (r : Mumak.Engine.result) =
  List.length
    (List.filter
       (fun f -> f.Mumak.Report.phase = Mumak.Report.Fault_injection)
       (Mumak.Report.findings r.Mumak.Engine.report))

(* [analyze tr ~group ~config ~ledger c] — the decomposed analysis of [c]
   followed by the traced Engine.analyze. Returns the engine's result, the
   raw quantities of the analysis (durations in ns under [*_ns], allocations
   in bytes under [*_alloc], counts), the per-call oracle durations (ns) and the faithfulness
   mismatches (empty when the decomposed calls reproduce the engine's
   failure points, oracle verdicts, trace events, executions and, under the
   optimizer, plan counts). *)
let analyze tr ~group ~(config : Mumak.Config.t) ~ledger (c : Matrix.t) =
  let eadr = config.Mumak.Config.eadr in
  let target = c.Matrix.target in
  let m = Hashtbl.create 32 in
  let put k v = Hashtbl.replace m k (v +. Option.value ~default:0. (Hashtbl.find_opt m k)) in
  let oracle_ns = ref [] in
  Bugreg.with_enabled c.Matrix.bugs @@ fun () ->
  let (result, mismatches), _ =
    with_span tr ~group ~parent:(-1) "analysis" @@ fun root ->
    let span ?(key = "") name f =
      let v, s = with_span tr ~group ~parent:root name (fun _ -> f ()) in
      let key = if key = "" then name else key in
      put (key ^ "_ns") (ns s);
      put (key ^ "_alloc") s.alloc;
      v
    in
    let recording =
      span "record" (fun () ->
          Pmtrace.Replay.record ~loads:false ~eadr ~pool_size:target.Mumak.Target.pool_size
            (fun ~device ~framer -> target.Mumak.Target.run ~device ~framer))
    in
    let events = span "unpack" (fun () -> Pmtrace.Replay.events recording) in
    put "events" (float_of_int (List.length events));
    let absint =
      if config.Mumak.Config.absint then
        Some
          (span "absint" (fun () ->
               Analysis.Absint.analyze ~eadr
                 (List.init (max 1 config.Mumak.Config.invariant_runs) (fun _ -> events))))
      else None
    in
    if config.Mumak.Config.lint then
      ignore (span "lint" (fun () -> Analysis.Lint.analyze ~eadr events));
    let opt =
      if config.Mumak.Config.optimize then begin
        let weights = Analysis.Cost.static_weights in
        let plans = span "synthesize" (fun () -> Analysis.Opt.synthesize ?absint ~weights events) in
        put "plans_synthesized" (float_of_int (List.length plans));
        Some
          (span "optimize" (fun () ->
               Analysis.Opt.optimize ?absint ~weights ~support:config.Mumak.Config.invariant_support
                 ~confidence:config.Mumak.Config.invariant_confidence ~eadr
                 ~oracle:(image_oracle ~eadr target)
                 ~points:(Mumak.Fault_injection.offline_points config)
                 recording))
      end
      else None
    in
    let ta = Mumak.Trace_analysis.create config in
    span ~key:"trace_analysis" "trace_analysis.feed" (fun () ->
        List.iter (Mumak.Trace_analysis.feed ta) events);
    let points = span "enumerate" (fun () -> Mumak.Fault_injection.offline_points config events) in
    let flagged = ref 0 and images = ref 0 in
    let oracle_total = ref 0. and oracle_alloc = ref 0. in
    let (_ : int list), mat =
      with_span tr ~group ~parent:root "materialize" @@ fun mat_id ->
      Pmtrace.Replay.materialize recording
        ~points:(List.map (fun (ordinal, pseq, _) -> (ordinal, pseq)) points)
        ~f:(fun ~key:_ image ->
          incr images;
          let outcome, s =
            with_span tr ~group ~parent:mat_id "oracle" (fun _ ->
                Mumak.Oracle.classify target.Mumak.Target.recover
                  (Pmem.Device.adopt ~eadr image))
          in
          if Mumak.Oracle.is_bug outcome then incr flagged;
          oracle_ns := ns s :: !oracle_ns;
          oracle_total := !oracle_total +. ns s;
          oracle_alloc := !oracle_alloc +. s.alloc)
    in
    put "materialize_ns" (ns mat -. !oracle_total);
    put "materialize_alloc" (mat.alloc -. !oracle_alloc);
    put "images" (float_of_int !images);
    put "oracle_ns" !oracle_total;
    put "oracle_alloc" !oracle_alloc;
    put "oracle_calls" (float_of_int !images);
    put "oracle_flagged" (float_of_int !flagged);
    ignore
      (span ~key:"trace_analysis" "trace_analysis.finish" (fun () ->
           Mumak.Trace_analysis.finish ta));
    let result = span "engine" (fun () -> Mumak.Engine.analyze ~config target) in
    put "findings" (float_of_int (List.length (Mumak.Report.findings result.Mumak.Engine.report)));
    put "image_diffs"
      (float_of_int
         (List.length
            (List.filter
               (fun p -> p.Mumak.Provenance.p_image_diff <> None)
               result.Mumak.Engine.provenance)));
    (match ledger with
    | None -> ()
    | Some l ->
        let record =
          span "append" (fun () ->
              let record =
                Store.Record.of_result ~target:c.Matrix.ledger_target
                  ~workload:c.Matrix.descriptor ~config result
              in
              ignore (Store.Ledger.append_run l record);
              record)
        in
        put "record_bytes"
          (float_of_int (String.length (Telemetry.Json.to_string (Store.Record.to_json record)))));
    let expect what decomposed engine =
      if decomposed = engine then None
      else Some (Printf.sprintf "%s: decomposed %d, engine %d" what decomposed engine)
    in
    let r = result in
    let checks =
      [
        expect "failure_points" (List.length points) r.Mumak.Engine.failure_points;
        expect "oracle_flagged" !flagged (oracle_flagged r);
        expect "trace_events" (Mumak.Trace_analysis.event_count ta) r.Mumak.Engine.trace_events;
        expect "executions" 1 r.Mumak.Engine.executions;
      ]
      @
      match (opt, r.Mumak.Engine.opt) with
      | None, None -> []
      | Some (o : Analysis.Opt.t), Some e ->
          [
            expect "plans_synthesized" o.Analysis.Opt.synthesized e.Analysis.Opt.synthesized;
            expect "plans_verified" o.Analysis.Opt.verified e.Analysis.Opt.verified;
            expect "plans_proven" o.Analysis.Opt.proven e.Analysis.Opt.proven;
          ]
      | _ -> [ Some "optimizer ran on one side only" ]
    in
    (match opt with
    | None -> ()
    | Some o ->
        put "plans_verified" (float_of_int o.Analysis.Opt.verified);
        put "plans_proven" (float_of_int o.Analysis.Opt.proven);
        put "replays" (float_of_int o.Analysis.Opt.replays));
    (result, List.filter_map Fun.id checks)
  in
  (result, m, !oracle_ns, mismatches)

(* One JSON object per span, for the run's span file. *)
let span_json ~origin s =
  let open Telemetry.Json in
  Assoc
    [
      ("group", Int s.group);
      ("id", Int s.id);
      ("parent", if s.parent < 0 then Null else Int s.parent);
      ("name", String s.name);
      ("start_us", Float (float_of_int (s.t0 - origin) /. 1e3));
      ("dur_us", Float (ns s /. 1e3));
      ("alloc_bytes", Float s.alloc);
      ("minor_gcs", Int s.minor);
      ("major_gcs", Int s.major);
    ]

let write_spans tr ~origin path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (Telemetry.Json.to_string (span_json ~origin s));
          output_char oc '\n')
        (List.rev tr.spans))
