(** Agamotto-style symbolic exploration (OSDI'20).

    Agamotto symbolically executes the program, prioritising paths dense in
    PM accesses, and applies "universal persistency bug oracles" (our trace
    analysis) plus a PMDK-transaction oracle along every explored path. It
    does not execute the concrete application against real PM (Table 2
    shows no PM use) but pays for state exploration in time and memory
    (KLEE state objects: 3.8-5.8x RAM in the original).

    Simulation: one state per workload prefix, explored shortest-first
    (the PM-access prioritisation means useful findings arrive early); each
    state re-interprets the whole prefix — the cost of forking a symbolic
    state — and applies the transaction oracle at every persistency
    instruction of the state's final operation. Each explored state retains
    a snapshot image, the KLEE-state memory footprint. *)

let name = "Agamotto"

let analyze ?budget_s (kv : Kv_target.t) =
  let clock = Tool_intf.clock ?budget_s () in
  let target = kv.Kv_target.base in
  let report = Mumak.Report.create ~target:target.Mumak.Target.name in
  let timed_out = ref false in
  let explored = ref 0 in
  let tracking = ref 0 in
  let n_ops = List.length kv.Kv_target.ops in
  let state_table : (int, Pmem.Image.t) Hashtbl.t = Hashtbl.create 64 in
  let add kind ~stack ~seq detail =
    ignore
      (Mumak.Report.add report
         { Mumak.Report.kind; phase = Mumak.Report.Fault_injection; stack; seq; detail;
           fix = None })
  in
  let (), metrics =
    Mumak.Metrics.measure (fun () ->
        (* Oracle sweep over one full path: the universal (trace-analysis)
           oracles. *)
        let ta = Mumak.Trace_analysis.create Mumak.Config.default in
        let (_ : Pmem.Device.t) =
          Tool_intf.run_instrumented target ~listener:(fun event _ ->
              Mumak.Trace_analysis.feed ta event)
        in
        List.iter
          (fun (r : Mumak.Trace_analysis.raw) ->
            ignore
              (Mumak.Report.add report
                 {
                   Mumak.Report.kind = r.Mumak.Trace_analysis.kind;
                   phase = Mumak.Report.Trace_analysis;
                   stack = None;
                   seq = Some r.Mumak.Trace_analysis.seq;
                   detail = r.Mumak.Trace_analysis.detail;
                   fix = None;
                 }))
          (Mumak.Trace_analysis.finish ta);
        (* State exploration with the PMDK-transaction oracle. *)
        let tree = Mumak.Fp_tree.create () in
        let state = ref 0 in
        while (not !timed_out) && !state < n_ops do
          if Tool_intf.expired clock then timed_out := true
          else begin
            incr explored;
            let device = Pmem.Device.create ~size:target.Mumak.Target.pool_size () in
            let tracer = Pmtrace.Tracer.create device in
            (* KLEE applies the universal oracles along every explored
               path: each state pays for its own trace-analysis pass *)
            let state_ta = Mumak.Trace_analysis.create Mumak.Config.default in
            Pmtrace.Tracer.add_listener tracer (fun event _ ->
                Mumak.Trace_analysis.feed state_ta event);
            let current_op = ref (-1) in
            let detect =
              Mumak.Fault_injection.fp_listener
                ~granularity:Mumak.Config.Persistency_instruction ~on_fp:(fun capture ->
                  if !current_op = !state then
                    match Mumak.Fp_tree.insert tree capture with
                    | `Existing _ -> ()
                    | `Added point ->
                        let image =
                          Pmem.Device.crash device ~policy:Pmem.Device.Program_prefix
                        in
                        (match
                           Mumak.Oracle.classify target.Mumak.Target.recover
                             (Pmem.Device.of_image image)
                         with
                        | Mumak.Oracle.Consistent -> ()
                        | Mumak.Oracle.Unrecoverable msg ->
                            add Mumak.Report.Unrecoverable_state
                              ~stack:(Some point.Mumak.Fp_tree.capture) ~seq:None msg
                        | Mumak.Oracle.Crashed msg ->
                            add Mumak.Report.Recovery_crash
                              ~stack:(Some point.Mumak.Fp_tree.capture) ~seq:None msg))
            in
            Pmtrace.Tracer.add_listener tracer detect;
            kv.Kv_target.run_prefix ~device
              ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer))
              ~on_op:(fun i -> current_op := i)
              ~upto:(!state + 1) ();
            Pmtrace.Tracer.detach tracer;
            (* retain a KLEE state object for this prefix; KLEE states share
               memory copy-on-write, so the per-state footprint is a
               fraction of the address space (we keep one concrete image
               and account for the shared remainder analytically) *)
            Hashtbl.reset state_table;
            Hashtbl.replace state_table !state (Pmem.Device.persisted_image device);
            tracking := !tracking + (target.Mumak.Target.pool_size / 64 / 8);
            incr state
          end
        done)
  in
  {
    Tool_intf.tool = name;
    report;
    metrics;
    timed_out = !timed_out;
    work_done = !explored;
    work_total = n_ops;
    tracking_words = !tracking;
    pm_overhead = 0. (* Agamotto does not execute against PM *);
  }
