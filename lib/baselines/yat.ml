(** Yat-style exhaustive replay (USENIX ATC'14).

    Yat records all PM operations and replays the stores in {e every}
    permissible persist ordering, checking each resulting state with a
    consistency checker (here: the application's recovery). The search
    space is exponential in the unpersisted data per fence interval — the
    original estimates {e years} for full coverage of a few thousand
    operations — so the interesting output is the fraction of states it
    covers before the budget expires.

    Implementation: a single recorded execution; at every fence the
    enumerator produces all post-failure images of the current device state
    (capped), and the checker runs on each. *)

let name = "Yat"

let images_per_interval = 4096 (* cap per fence interval, like Yat's batching *)

let analyze ?budget_s (target : Mumak.Target.t) =
  let clock = Tool_intf.clock ?budget_s () in
  let report = Mumak.Report.create ~target:target.Mumak.Target.name in
  let checked = ref 0 in
  let total_states = ref 0 in
  let timed_out = ref false in
  let tracking = ref 0 in
  let (), metrics =
    Mumak.Metrics.measure (fun () ->
        let device = Pmem.Device.create ~size:target.Mumak.Target.pool_size () in
        let tracer = Pmtrace.Tracer.create device in
        Pmtrace.Tracer.add_listener tracer (fun event stack ->
            match event.Pmtrace.Event.op with
            | Pmem.Op.Fence _ when not !timed_out ->
                if Tool_intf.expired clock then timed_out := true
                else begin
                  let images, total =
                    Pmem.Enumerate.images device ~limit:images_per_interval
                  in
                  total_states :=
                    (if !total_states > max_int - total then max_int
                     else !total_states + total);
                  tracking := max !tracking (Pmem.Device.unpersisted_line_count device * 16);
                  let capture = Pmtrace.Callstack.capture stack in
                  Seq.iter
                    (fun image ->
                      if not (Tool_intf.expired clock) then begin
                        incr checked;
                        match
                          Mumak.Oracle.classify target.Mumak.Target.recover
                            (Pmem.Device.of_image image)
                        with
                        | Mumak.Oracle.Consistent -> ()
                        | Mumak.Oracle.Unrecoverable msg ->
                            ignore
                              (Mumak.Report.add report
                                 {
                                   Mumak.Report.kind = Mumak.Report.Unrecoverable_state;
                                   phase = Mumak.Report.Fault_injection;
                                   stack = Some capture;
                                   seq = None;
                                   detail = msg;
                                   fix = None;
                                 })
                        | Mumak.Oracle.Crashed msg ->
                            ignore
                              (Mumak.Report.add report
                                 {
                                   Mumak.Report.kind = Mumak.Report.Recovery_crash;
                                   phase = Mumak.Report.Fault_injection;
                                   stack = Some capture;
                                   seq = None;
                                   detail = msg;
                                   fix = None;
                                 })
                      end
                      else timed_out := true)
                    images
                end
            | _ -> ());
        target.Mumak.Target.run ~device
          ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer));
        Pmtrace.Tracer.detach tracer)
  in
  {
    Tool_intf.tool = name;
    report;
    metrics;
    timed_out = !timed_out;
    work_done = !checked;
    work_total = max !total_states 1;
    tracking_words = !tracking;
    pm_overhead = 1.0;
  }
