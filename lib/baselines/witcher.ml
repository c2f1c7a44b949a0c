(** Witcher-style systematic crash-consistency testing (SOSP'21).

    Witcher (a) traces PM accesses of a deterministic key-value test case,
    (b) infers {e likely ordering/atomicity invariants} from the trace —
    building large cross-product tables of persist-ordering candidates,
    which is where its enormous memory appetite comes from (it exhausted
    256 GB in the paper's Table 2) — and (c) for each candidate violation
    constructs a crash image that breaks the invariant and applies
    {e output equivalence checking}: after recovery, the remaining
    operations must behave as if the interrupted operation either fully
    happened or never happened. No false positives, but an order of
    magnitude slower than other systems, and tied to KV semantics.

    Simulation: candidate violations are the fences that drain more than
    one flush (their persist order is unconstrained); for each, every
    single-line subset image is generated and the full key universe is
    compared against the two acceptable serialisations of the interrupted
    operation. *)

let name = "Witcher"

type candidate = { fence_index : int; op_index : int }

let analyze ?budget_s (kv : Kv_target.t) =
  let clock = Tool_intf.clock ?budget_s () in
  let target = kv.Kv_target.base in
  let report = Mumak.Report.create ~target:target.Mumak.Target.name in
  let timed_out = ref false in
  let tracking = ref 0 in
  let keys = Kv_target.keys_of kv.Kv_target.ops in
  let add kind ~stack detail =
    ignore
      (Mumak.Report.add report
         { Mumak.Report.kind; phase = Mumak.Report.Fault_injection; stack; seq = None;
           detail; fix = None })
  in
  let candidates = ref [] and n_candidates = ref 0 and processed = ref 0 in
  let (), metrics =
    Mumak.Metrics.measure (fun () ->
        (* Pass 1: trace; collect candidate fences and build the invariant
           tables (persist-ordering pairs observed across the whole trace —
           the memory hog). *)
        let pair_table : (int * int, int) Hashtbl.t = Hashtbl.create 65536 in
        let pending_lines = ref [] in
        let fence_index = ref 0 in
        let current_op = ref 0 in
        let ta = Mumak.Trace_analysis.create Mumak.Config.default in
        let listener (event : Pmtrace.Event.t) _stack =
          Mumak.Trace_analysis.feed ta event;
          match event.Pmtrace.Event.op with
          | Pmem.Op.Flush { line; volatile = false; _ } ->
              pending_lines := line :: !pending_lines
          | Pmem.Op.Flush _ | Pmem.Op.Load _ -> ()
          | Pmem.Op.Store _ -> ()
          | Pmem.Op.Fence { pending_flushes; _ } ->
              incr fence_index;
              (* likely-invariant inference: record every ordered pair of
                 lines that this fence co-persists *)
              let lines = List.sort_uniq compare !pending_lines in
              List.iter
                (fun a ->
                  List.iter
                    (fun b ->
                      if a <> b then
                        Hashtbl.replace pair_table (a, b)
                          (1 + Option.value ~default:0 (Hashtbl.find_opt pair_table (a, b))))
                    lines)
                lines;
              tracking := max !tracking (Hashtbl.length pair_table * 5);
              if pending_flushes > 1 then begin
                candidates := { fence_index = !fence_index; op_index = !current_op } :: !candidates;
                incr n_candidates
              end;
              pending_lines := []
        in
        let device = Pmem.Device.create ~size:target.Mumak.Target.pool_size () in
        let tracer = Pmtrace.Tracer.create device in
        Pmtrace.Tracer.add_listener tracer listener;
        kv.Kv_target.run_prefix ~device
          ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer))
          ~on_op:(fun i -> current_op := i)
          ~upto:(List.length kv.Kv_target.ops) ();
        Pmtrace.Tracer.detach tracer;
        ignore (Mumak.Trace_analysis.finish ta);
        (* Pass 2: for each candidate, construct the violating crash images
           and output-equivalence-check them against the two acceptable
           states of the interrupted operation. *)
        let check_candidate c =
          (* re-execute up to the candidate fence, capturing the device *)
          let device = Pmem.Device.create ~size:target.Mumak.Target.pool_size () in
          let tracer = Pmtrace.Tracer.create device in
          let fences = ref 0 in
          let stop = ref None in
          Pmtrace.Tracer.add_listener tracer (fun event stack ->
              match event.Pmtrace.Event.op with
              | Pmem.Op.Fence _ ->
                  incr fences;
                  if !fences = c.fence_index && !stop = None then begin
                    stop := Some (Pmtrace.Callstack.capture stack);
                    raise Mumak.Fault_injection.Crash_now
                  end
              | _ -> ());
          (try
             kv.Kv_target.run_prefix ~device
               ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer))
               ~upto:(List.length kv.Kv_target.ops) ()
           with
          | Mumak.Fault_injection.Crash_now
          | Fun.Finally_raised Mumak.Fault_injection.Crash_now ->
            ()
          | _ when !stop <> None -> ());
          Pmtrace.Tracer.detach tracer;
          match !stop with
          | None -> ()
          | Some capture ->
              let before = Kv_target.model_after kv.Kv_target.ops ~upto:c.op_index in
              let after = Kv_target.model_after kv.Kv_target.ops ~upto:(c.op_index + 1) in
              let images, _total = Pmem.Enumerate.images device ~limit:128 in
              Seq.iter
                (fun image ->
                  if not (Tool_intf.expired clock) then begin
                    match kv.Kv_target.probe (Pmem.Device.of_image image) keys with
                    | observed ->
                        let matches model =
                          List.for_all2
                            (fun k v -> v = Hashtbl.find_opt model k)
                            keys observed
                        in
                        if not (matches before || matches after) then
                          add Mumak.Report.Unrecoverable_state ~stack:(Some capture)
                            "output equivalence violated: post-crash state matches \
                             neither serialisation of the interrupted operation"
                    | exception _ ->
                        add Mumak.Report.Recovery_crash ~stack:(Some capture)
                          "post-crash probe crashed while replaying the key universe"
                  end)
                images
        in
        List.iter
          (fun c ->
            if Tool_intf.expired clock then timed_out := true
            else begin
              check_candidate c;
              incr processed
            end)
          (List.rev !candidates))
  in
  {
    Tool_intf.tool = name;
    report;
    metrics;
    timed_out = !timed_out;
    work_done = !processed;
    work_total = max 1 !n_candidates;
    tracking_words = !tracking;
    pm_overhead = 0.;
  }
