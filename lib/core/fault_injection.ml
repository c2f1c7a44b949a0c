(** Fault injection (paper section 4.1): crash the workload once per unique
    failure point, run the application's own recovery on the resulting
    program-order-prefix image, and report the states recovery cannot
    handle.

    A failure point is a persistency instruction (flush or fence) reached
    through a unique call stack, and only counts if at least one PM store
    happened since the previous failure point (equivalent post-failure
    states are skipped). The [Store_level] granularity — every store is a
    failure point — exists for the ablation study and mirrors what
    XFDetector-style tools pay. *)

type record = {
  point : Fp_tree.point;
  oracle : Oracle.outcome;
  image_diff : Provenance.image_diff option;
      (* what recovery persisted over the crash image, taken at the
         verdict when the oracle flagged a bug *)
}

type result = {
  tree : Fp_tree.t;
  records : record list; (* sorted by failure-point ordinal *)
  worker_metrics : Metrics.t list;
      (* per-worker-domain resource usage of the parallel injection phase;
         empty when the schedule ran inline *)
}

exception Crash_now

(* The failure-point rule shared by the live and the offline detector:
   does an event of this kind fire a failure point? Honours granularity
   and the store-since guard, so it is stateful: create one per event
   stream. *)
let fp_rule granularity =
  let stores_since = ref 0 in
  fun (kind : Pmtrace.Arena.kind) ->
    match (kind, granularity) with
    | Pmtrace.Arena.Load, _ -> false
    | Pmtrace.Arena.Store, _ ->
        incr stores_since;
        granularity = Config.Store_level
    | (Pmtrace.Arena.Flush | Pmtrace.Arena.Fence), Config.Store_level -> false
    | (Pmtrace.Arena.Flush | Pmtrace.Arena.Fence), Config.Persistency_instruction ->
        let fires = !stores_since > 0 in
        if fires then stores_since := 0;
        fires

(* Shared live failure-point detector: calls [on_fp] with the captured
   stack at every failure point. *)
let fp_listener ~granularity ~on_fp =
  let fires = fp_rule granularity in
  fun (event : Pmtrace.Event.t) (stack : Pmtrace.Callstack.t) ->
    if fires (Pmtrace.Arena.kind_of_op event.Pmtrace.Event.op) then
      on_fp (Pmtrace.Callstack.capture stack)

(* The offline failure-point detector as a step function over recorded
   events (which must carry stacks). Mirroring [fp_listener] and
   [Fp_tree.insert] exactly, it assigns the ordinals {!build_tree} assigns
   on a live execution of the same workload, and its tree is the one the
   replay strategy injects on. *)
type enumeration = {
  fires : Pmtrace.Arena.kind -> bool;
  tree : Fp_tree.t;
  codes : unit Pmem.Int_table.t;  (** the stack codes already in [tree] *)
  mutable pseq : int;  (** persistency index: count of non-[Load] events *)
  mutable found : (int * Fp_tree.point) list;
      (** each new point with the pseq of its first occurrence, newest first *)
}

let enumeration config =
  { fires = fp_rule config.Config.granularity; tree = Fp_tree.create ();
    codes = Pmem.Int_table.create 64; pseq = 0; found = [] }

(* The next event, by kind: does it fire? *)
let advance en (kind : Pmtrace.Arena.kind) =
  (match kind with Pmtrace.Arena.Load -> () | _ -> en.pseq <- en.pseq + 1);
  en.fires kind

let add_point en capture =
  match Fp_tree.insert en.tree capture with
  | `Added p -> en.found <- (en.pseq, p) :: en.found
  | `Existing _ -> ()

let enumerate_step en (e : Pmtrace.Event.t) =
  if advance en (Pmtrace.Arena.kind_of_op e.Pmtrace.Event.op) then
    Option.iter (add_point en) e.Pmtrace.Event.stack

(* A firing event's stack code names its code path, so the tree is walked
   once per point, not once per dynamic instance. *)
let enumerate_slot en trace i =
  if advance en (Pmtrace.Arena.kind trace i) then begin
    let code = Pmtrace.Arena.code trace i in
    if code <> 0 && not (Pmem.Int_table.mem en.codes code) then begin
      Pmem.Int_table.add en.codes code ();
      Option.iter (add_point en) (Pmtrace.Arena.capture trace i)
    end
  end

let enumerated en =
  List.rev_map (fun (pseq, p) -> (p.Fp_tree.ordinal, pseq, p.Fp_tree.capture)) en.found

(** [(ordinal, pseq, capture)] of each unique failure point of [events]:
    its discovery ordinal, the persistency index of its first dynamic
    occurrence, and the call-stack capture it fires under. *)
let offline_points config (events : Pmtrace.Event.t list) =
  let en = enumeration config in
  List.iter (enumerate_step en) events;
  enumerated en

(** Build the failure-point tree with one instrumented execution (steps 4-5
    of Figure 1). [extra_listener] lets the engine run the trace-analysis
    feed on the same execution. *)
let build_tree ?(extra_listener = fun _ _ -> ()) config (target : Target.t) =
  let tree = Fp_tree.create () in
  let device = Pmem.Device.create ~eadr:config.Config.eadr ~size:target.Target.pool_size () in
  let tracer = Pmtrace.Tracer.create device in
  let detect =
    fp_listener ~granularity:config.Config.granularity ~on_fp:(fun capture ->
        ignore (Fp_tree.insert tree capture))
  in
  Pmtrace.Tracer.add_listener tracer (fun event stack ->
      extra_listener event stack;
      detect event stack);
  target.Target.run ~device ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer));
  Pmtrace.Tracer.detach tracer;
  (tree, Pmem.Device.stats device)

(* The oracle call site: recovery runs on [view], a copy-on-write view of
   the crash image adopted by a fresh device, and when the oracle flags a
   bug the record takes the image diff of what recovery persisted — read
   here, while the view is still valid. *)
let judge config (target : Target.t) point view =
  let oracle =
    Telemetry.Collector.span ~cat:"inject" ~hist:"oracle_ns" "oracle"
      ~args:[ ("ordinal", Telemetry.Json.Int point.Fp_tree.ordinal) ]
      (fun () ->
        Oracle.classify target.Target.recover
          (Pmem.Device.adopt ~eadr:config.Config.eadr view))
  in
  let bug = Oracle.is_bug oracle in
  Telemetry.Progress.tick ~bug ();
  { point; oracle; image_diff = (if bug then Some (Provenance.image_diff view) else None) }

(* The injection schedule both strategies share (paper section 4.1: one
   fault per unique failure point, in discovery order). The tree's points
   are dealt round-robin by discovery ordinal over [Config.jobs] worker
   domains (inline when there is one); [crash] injects one share and
   returns its records. The tree is only read while the shares run, and
   the ambient framer and transaction state are domain-local, so the
   workers share no mutable state. Records merge back sorted by ordinal —
   the deterministic-merge rule that makes the result identical for any
   worker count. *)
let schedule config tree ~crash =
  let points = Fp_tree.points tree in
  Telemetry.Progress.set_total (List.length points);
  (* never spawn more domains than there are points to inject *)
  let jobs = max 1 (min config.Config.jobs (List.length points)) in
  let shares, worker_metrics =
    if jobs = 1 then ([ crash points ], [])
    else
      List.init jobs (fun w ->
          Domain.spawn (fun () ->
              Metrics.measure (fun () ->
                  crash (List.filter (fun p -> p.Fp_tree.ordinal mod jobs = w) points))))
      |> List.map Domain.join |> List.split
  in
  {
    tree;
    records =
      List.sort
        (fun a b -> compare a.point.Fp_tree.ordinal b.point.Fp_tree.ordinal)
        (List.concat_map Fun.id shares);
    worker_metrics;
  }

(* One targeted injection execution: re-run the workload and crash at the
   first dynamic occurrence of the point with [ordinal] — ordinals are
   assigned in discovery order, so this is the occurrence, hence the
   program-prefix image, the point was discovered at. Returns the crash
   image, or None if the run never reached the point. *)
let reexecute config (target : Target.t) tree ~ordinal =
  Telemetry.Collector.span ~cat:"inject" ~hist:"injection_exec_ns"
    ~args:[ ("ordinal", Telemetry.Json.Int ordinal) ]
    "exec"
  @@ fun () ->
  let device = Pmem.Device.create ~eadr:config.Config.eadr ~size:target.Target.pool_size () in
  let tracer = Pmtrace.Tracer.create device in
  let image = ref None in
  Pmtrace.Tracer.add_listener tracer
    (fp_listener ~granularity:config.Config.granularity ~on_fp:(fun capture ->
         if !image = None then
           match Fp_tree.find tree capture with
           | Some point when point.Fp_tree.ordinal = ordinal ->
               (* the image is captured here, before the crash unwinds, so
                  cleanup code cannot pollute the post-failure state *)
               image :=
                 Some
                   (Telemetry.Collector.span ~cat:"inject" ~hist:"crash_image_ns"
                      ~args:[ ("ordinal", Telemetry.Json.Int ordinal) ]
                      "crash_image" (fun () ->
                        Pmem.Device.crash device ~policy:Pmem.Device.Program_prefix));
               raise Crash_now
           | Some _ | None -> ()));
  (try
     target.Target.run ~device
       ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer))
   with
  | Crash_now -> ()
  | Fun.Finally_raised Crash_now -> ()
  | _ when !image <> None ->
      (* unwinding code (e.g. a transaction abort) may fail after the
         simulated crash; the run is over either way *)
      ());
  Pmtrace.Tracer.detach tracer;
  !image

(** The paper's injection loop ([Config.Reexecute], steps 6-9 of Figure
    1): one targeted re-execution per failure point of [tree]. A point its
    run misses is counted in ["fp.unreached"] and the rest of the share
    still runs. *)
let inject_reexecute config (target : Target.t) tree =
  schedule config tree ~crash:
    (List.filter_map (fun point ->
         match reexecute config target tree ~ordinal:point.Fp_tree.ordinal with
         | Some image -> Some (judge config target point (Pmem.Image.cow image))
         | None ->
             Telemetry.Collector.count "fp.unreached" 1;
             None))

(** Replay-first injection ([Config.Replay], the default) on the
    enumeration's own tree: each share's crash images come out of one
    batched prefix-incremental materialization pass over the shared,
    immutable recording ({!Pmtrace.Replay.materialize}) and stream straight
    into the oracle, so at most one image per worker is live and the target
    is never re-executed. The enumeration walked this recording, so every
    point is reached. *)
let inject_replay config (target : Target.t) ~recording en =
  (* the enumeration's points by ordinal: ordinals are dense, 0 first *)
  let found = Array.of_list (List.rev en.found) in
  schedule config en.tree ~crash:(fun share ->
      let records = ref [] in
      let unreached =
        Pmtrace.Replay.materialize recording
          ~points:(List.map (fun p -> (p.Fp_tree.ordinal, fst found.(p.Fp_tree.ordinal))) share)
          ~f:(fun ~key image ->
            (* the image is already a copy-on-write view of the rolling
               prefix: recovery adopts it directly *)
            records := judge config target (snd found.(key)) image :: !records)
      in
      assert (unreached = []);
      !records)

let bug_records result = List.filter (fun r -> Oracle.is_bug r.oracle) result.records

(** 1-based position of the first injection whose oracle flagged a bug, or
    [None] when no injection found one. Records are in ordinal order, which
    is the order faults are injected in. *)
let injections_to_first_bug result =
  let rec scan i = function
    | [] -> None
    | r :: rest -> if Oracle.is_bug r.oracle then Some i else scan (i + 1) rest
  in
  scan 1 result.records
