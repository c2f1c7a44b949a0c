(** XFDetector-style cross-failure bug detection (ASPLOS'20).

    Approach (section 3 of the paper): inject a failure at {e every} store
    to PM, maintain a shadow memory of persistence status, and run the
    {e instrumented} post-failure execution, flagging reads of data that was
    not persisted at the crash (cross-failure reads). Both the pre- and
    post-failure executions run fully instrumented, which is why the
    original needs ~40 s per operation and never finishes the 150k-op
    workloads.

    Here: the pre-failure run is re-executed per failure point (store-level
    granularity), the crash image is the ADR state (only fenced data
    survives — unlike Mumak's graceful prefix, this exposes missing
    persists directly), and the recovery runs with load tracing against a
    shadow map of unpersisted slots. *)

let name = "XFDetector"

(* Shadow memory: slots that were stored but not durable at the crash. *)
let shadow_of_device dev =
  let shadow = Hashtbl.create 1024 in
  List.iter
    (fun (line, _versions) ->
      let lo = Pmem.Addr.line_base line / Pmem.Addr.atomic_size in
      for slot = lo to lo + (Pmem.Addr.line_size / Pmem.Addr.atomic_size) - 1 do
        Hashtbl.replace shadow slot ()
      done)
    (Pmem.Device.line_versions dev);
  shadow

let subset_images_per_fp = 24

let analyze ?budget_s (target : Mumak.Target.t) =
  let clock = Tool_intf.clock ?budget_s () in
  let report = Mumak.Report.create ~target:target.Mumak.Target.name in
  let tracking = ref 0 in
  (* Pass 1: count the dynamic stores — XFDetector injects at every one of
     them, without any code-path deduplication (Table 3). *)
  let total = ref 0 in
  let count_stores (event : Pmtrace.Event.t) _ =
    match event.Pmtrace.Event.op with
    | Pmem.Op.Store _ -> incr total
    | _ -> ()
  in
  let (_ : Pmem.Device.t) = Tool_intf.run_instrumented target ~listener:count_stores in
  let total = !total in
  let injected = ref 0 in
  let timed_out = ref false in
  let (), measured =
   Mumak.Metrics.measure @@ fun () ->
  (* Pass 2: one fully instrumented re-execution per dynamic store. *)
  let next_store = ref 1 in
  let continue_ = ref true in
  while !continue_ && !next_store <= total && not !timed_out do
    if Tool_intf.expired clock then timed_out := true
    else begin
      let injected_here = ref None in
      let device = Pmem.Device.create ~size:target.Mumak.Target.pool_size () in
      let tracer = Pmtrace.Tracer.create device in
      let stores_seen = ref 0 in
      let detect (event : Pmtrace.Event.t) stack =
        match event.Pmtrace.Event.op with
        | Pmem.Op.Store _ when !injected_here = None ->
            incr stores_seen;
            if !stores_seen = !next_store then begin
              let extra, _total =
                Pmem.Enumerate.images device ~limit:subset_images_per_fp
              in
              injected_here :=
                Some
                  ( Pmtrace.Callstack.capture stack,
                    Pmem.Device.crash device ~policy:Pmem.Device.Adr,
                    shadow_of_device device,
                    List.of_seq extra );
              raise Mumak.Fault_injection.Crash_now
            end
        | _ -> ()
      in
      Pmtrace.Tracer.add_listener tracer detect;
      (try
         target.Mumak.Target.run ~device
           ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer))
       with
      | Mumak.Fault_injection.Crash_now | Fun.Finally_raised Mumak.Fault_injection.Crash_now
        ->
          ()
      | _ when !injected_here <> None -> ());
      Pmtrace.Tracer.detach tracer;
      incr next_store;
      match !injected_here with
      | None -> continue_ := false
      | Some (capture, image, shadow, extra_images) ->
          incr injected;
          tracking := max !tracking (Hashtbl.length shadow * 3);
          (* instrumented post-failure execution with cross-failure checks,
             on the ADR image and on the controlled shadow-PM variants
             (XFDetector steers the values the post-failure code reads) *)
          List.iter
            (fun variant ->
              (* the post-failure execution runs fully instrumented under
                 Pin: charge the DBI platform cost per recovery *)
              Dbi.charge ~cost:60_000 ();
              match
                Mumak.Oracle.classify target.Mumak.Target.recover
                  (Pmem.Device.of_image variant)
              with
              | Mumak.Oracle.Consistent -> ()
              | Mumak.Oracle.Unrecoverable msg ->
                  ignore
                    (Mumak.Report.add report
                       { Mumak.Report.kind = Mumak.Report.Unrecoverable_state;
                         phase = Mumak.Report.Fault_injection;
                         stack = Some capture; seq = None;
                         detail = msg; fix = None })
              | Mumak.Oracle.Crashed msg ->
                  ignore
                    (Mumak.Report.add report
                       { Mumak.Report.kind = Mumak.Report.Recovery_crash;
                         phase = Mumak.Report.Fault_injection;
                         stack = Some capture; seq = None;
                         detail = msg; fix = None }))
            extra_images;
          Dbi.charge ~cost:60_000 ();
          let rdev = Pmem.Device.of_image image in
          Pmem.Device.trace_loads rdev true;
          let cross_failure = ref false in
          Pmem.Device.set_hook rdev
            (Some
               (function
               | Pmem.Op.Load { addr; size } ->
                   if
                     List.exists
                       (fun slot -> Hashtbl.mem shadow slot)
                       (Pmem.Addr.slots_spanned ~addr ~size)
                   then cross_failure := true
               | Pmem.Op.Store { addr; size; _ } ->
                   (* post-failure writes update the shadow *)
                   List.iter
                     (fun slot -> Hashtbl.remove shadow slot)
                     (Pmem.Addr.slots_spanned ~addr ~size)
               | Pmem.Op.Flush _ | Pmem.Op.Fence _ -> ()));
          let oracle = Mumak.Oracle.classify target.Mumak.Target.recover rdev in
          let add kind detail =
            ignore
              (Mumak.Report.add report
                 {
                   Mumak.Report.kind;
                   phase = Mumak.Report.Fault_injection;
                   stack = Some capture;
                   seq = None;
                   detail;
                   fix = None;
                 })
          in
          (match oracle with
          | Mumak.Oracle.Consistent -> ()
          | Mumak.Oracle.Unrecoverable msg -> add Mumak.Report.Unrecoverable_state msg
          | Mumak.Oracle.Crashed msg -> add Mumak.Report.Recovery_crash msg);
          if !cross_failure then
            add Mumak.Report.Durability_bug
              "post-failure execution read data that was not persisted at the crash"
    end
  done
  in
  let metrics = measured in
  {
    Tool_intf.tool = name;
    report;
    metrics;
    timed_out = !timed_out;
    work_done = !injected;
    work_total = total;
    tracking_words = !tracking;
    pm_overhead = 1.9 (* analysis metadata kept in PM, per the original *);
  }
