(** Jaaru-style model checking (ASPLOS'21).

    Jaaru simulates cache/memory instructions with full persistency
    semantics and — unlike Yat's eager enumeration of every post-failure
    state — explores {e lazily}: it only considers the values of cache
    lines that post-failure executions actually {e read}, constraining each
    read to the versions the line could hold. This collapses the
    commit-store pattern to a handful of executions, though other patterns
    still blow up exponentially.

    Simulation: at every fence interval, run the recovery once on the
    nothing-extra-persisted image with load tracing to discover which
    unpersisted lines the post-failure execution reads; then explore only
    the version combinations of {e those} lines (cap applies). Compare with
    {!Yat}, which enumerates all combinations of all unpersisted lines. *)

let name = "Jaaru"

let lazy_line_cap = 10 (* explore at most 2^cap combinations per interval *)

let read_lines_during_recovery (target : Mumak.Target.t) image candidates =
  let dev = Pmem.Device.of_image image in
  Pmem.Device.trace_loads dev true;
  let read = Hashtbl.create 16 in
  Pmem.Device.set_hook dev
    (Some
       (function
       | Pmem.Op.Load { addr; size } ->
           List.iter
             (fun line -> if List.mem_assoc line candidates then Hashtbl.replace read line ())
             (Pmem.Addr.lines_spanned ~addr ~size)
       | Pmem.Op.Store _ | Pmem.Op.Flush _ | Pmem.Op.Fence _ -> ()));
  let outcome = Mumak.Oracle.classify target.Mumak.Target.recover dev in
  (outcome, Hashtbl.fold (fun l () acc -> l :: acc) read [])

let analyze ?budget_s (target : Mumak.Target.t) =
  let clock = Tool_intf.clock ?budget_s () in
  let report = Mumak.Report.create ~target:target.Mumak.Target.name in
  let timed_out = ref false in
  let explored = ref 0 and lazy_skipped = ref 0 in
  let tracking = ref 0 in
  let record capture outcome =
    match outcome with
    | Mumak.Oracle.Consistent -> ()
    | Mumak.Oracle.Unrecoverable msg ->
        ignore
          (Mumak.Report.add report
             { Mumak.Report.kind = Mumak.Report.Unrecoverable_state;
               phase = Mumak.Report.Fault_injection; stack = Some capture; seq = None;
               detail = msg; fix = None })
    | Mumak.Oracle.Crashed msg ->
        ignore
          (Mumak.Report.add report
             { Mumak.Report.kind = Mumak.Report.Recovery_crash;
               phase = Mumak.Report.Fault_injection; stack = Some capture; seq = None;
               detail = msg; fix = None })
  in
  let (), metrics =
    Mumak.Metrics.measure (fun () ->
        let device = Pmem.Device.create ~size:target.Mumak.Target.pool_size () in
        let tracer = Pmtrace.Tracer.create device in
        Pmtrace.Tracer.add_listener tracer (fun event stack ->
            match event.Pmtrace.Event.op with
            | Pmem.Op.Fence _ when not !timed_out ->
                if Tool_intf.expired clock then timed_out := true
                else begin
                  let capture = Pmtrace.Callstack.capture stack in
                  let versions = Pmem.Device.line_versions device in
                  let base = Pmem.Device.persisted_image device in
                  (* constraint pass: which unpersisted lines does the
                     post-failure execution actually read? *)
                  let outcome, read_lines =
                    read_lines_during_recovery target base versions
                  in
                  incr explored;
                  record capture outcome;
                  let relevant =
                    List.filter (fun (l, _) -> List.mem l read_lines) versions
                  in
                  let relevant =
                    if List.length relevant > lazy_line_cap then begin
                      lazy_skipped := !lazy_skipped + 1;
                      List.filteri (fun i _ -> i < lazy_line_cap) relevant
                    end
                    else relevant
                  in
                  lazy_skipped := !lazy_skipped + (List.length versions - List.length relevant);
                  tracking := max !tracking (List.length versions * 12);
                  (* explore only the read-relevant combinations *)
                  let rec explore chosen = function
                    | [] ->
                        if chosen <> [] && not (Tool_intf.expired clock) then begin
                          let img = Pmem.Image.snapshot base in
                          List.iter
                            (fun (line, content) ->
                              let addr = Pmem.Addr.line_base line in
                              let avail =
                                min Pmem.Addr.line_size (Pmem.Image.size img - addr)
                              in
                              if avail > 0 then
                                Pmem.Image.blit_to img ~dst_addr:addr ~src:content
                                  ~src_off:0 ~len:avail)
                            chosen;
                          incr explored;
                          record capture
                            (Mumak.Oracle.classify target.Mumak.Target.recover
                               (Pmem.Device.of_image img))
                        end
                    | (line, vs) :: rest ->
                        explore chosen rest;
                        List.iter (fun v -> explore ((line, v) :: chosen) rest) vs
                  in
                  explore [] relevant
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
    work_done = !explored;
    work_total = !explored + !lazy_skipped;
    tracking_words = !tracking;
    pm_overhead = 0.;
  }
