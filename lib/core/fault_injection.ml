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
  executions : int; (* workload executions performed *)
  worker_metrics : Metrics.t list;
      (* per-worker-domain resource usage of the parallel injection phase;
         empty for the sequential loop *)
}

exception Crash_now

(* The failure-point rule shared by the live and the offline detector:
   does [op] fire a failure point? Honours granularity and the store-since
   guard, so it is stateful: create one per event stream. *)
let fp_rule granularity =
  let stores_since = ref 0 in
  fun (op : Pmem.Op.t) ->
    match (op, granularity) with
    | Pmem.Op.Load _, _ -> false
    | Pmem.Op.Store _, _ ->
        incr stores_since;
        granularity = Config.Store_level
    | (Pmem.Op.Flush _ | Pmem.Op.Fence _), Config.Store_level -> false
    | (Pmem.Op.Flush _ | Pmem.Op.Fence _), Config.Persistency_instruction ->
        let fires = !stores_since > 0 in
        if fires then stores_since := 0;
        fires

(* Shared live failure-point detector: calls [on_fp] with the captured
   stack at every failure point. *)
let fp_listener ~granularity ~on_fp =
  let fires = fp_rule granularity in
  fun (event : Pmtrace.Event.t) (stack : Pmtrace.Callstack.t) ->
    if fires event.Pmtrace.Event.op then on_fp (Pmtrace.Callstack.capture stack)

(* The offline failure-point detector as a step function over recorded
   events (which must carry stacks). Mirroring [fp_listener] and
   [Fp_tree.insert] exactly, it assigns the ordinals {!build_tree} assigns
   on a live execution of the same workload — which is what lets the
   replay strategy address the live tree offline. *)
type enumeration = {
  fires : Pmem.Op.t -> bool;
  tree : Fp_tree.t;
  mutable pseq : int;  (** persistency index: count of non-[Load] events *)
  mutable found : (int * int * Pmtrace.Callstack.capture) list;  (** newest first *)
}

let enumeration config =
  { fires = fp_rule config.Config.granularity; tree = Fp_tree.create (); pseq = 0; found = [] }

let enumerate_step en (e : Pmtrace.Event.t) =
  (match e.Pmtrace.Event.op with Pmem.Op.Load _ -> () | _ -> en.pseq <- en.pseq + 1);
  if en.fires e.Pmtrace.Event.op then
    match e.Pmtrace.Event.stack with
    | None -> ()
    | Some capture -> (
        match Fp_tree.insert en.tree capture with
        | `Added p -> en.found <- (p.Fp_tree.ordinal, en.pseq, capture) :: en.found
        | `Existing _ -> ())

let enumerated en = List.rev en.found

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
  let tracer = Pmtrace.Tracer.create ~collect:false device in
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

(* One injection execution: crash at the first dynamic occurrence of an
   unvisited failure point. Returns the injected point and its crash
   image, or None if the run reached no such point. With [ordinal], only
   that point is crashed at: ordinals are assigned in discovery order, so
   this is the occurrence — hence the program-prefix image — the standard
   loop crashes at when that point's turn comes; the replay strategy uses
   it for points its recording does not reach. *)
let reexecute ?ordinal config (target : Target.t) tree =
  let args = Option.map (fun o -> [ ("ordinal", Telemetry.Json.Int o) ]) ordinal in
  Telemetry.Collector.span ~cat:"inject" ~hist:"injection_exec_ns" ?args "exec" @@ fun () ->
  let device = Pmem.Device.create ~eadr:config.Config.eadr ~size:target.Target.pool_size () in
  let tracer = Pmtrace.Tracer.create ~collect:false device in
  let injected = ref None in
  let wanted (point : Fp_tree.point) =
    (not point.Fp_tree.visited)
    && match ordinal with Some o -> point.Fp_tree.ordinal = o | None -> true
  in
  Pmtrace.Tracer.add_listener tracer
    (fp_listener ~granularity:config.Config.granularity ~on_fp:(fun capture ->
         if !injected = None then
           match Fp_tree.find tree capture with
           | Some point when wanted point ->
               point.Fp_tree.visited <- true;
               (* the image is captured here, before the crash unwinds, so
                  cleanup code cannot pollute the post-failure state *)
               injected :=
                 Some
                   ( point,
                     Telemetry.Collector.span ~cat:"inject" ~hist:"crash_image_ns"
                       ~args:[ ("ordinal", Telemetry.Json.Int point.Fp_tree.ordinal) ]
                       "crash_image" (fun () ->
                         Pmem.Device.crash device ~policy:Pmem.Device.Program_prefix) );
               raise Crash_now
           | Some _ | None -> ()));
  (try
     target.Target.run ~device
       ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer))
   with
  | Crash_now -> ()
  | Fun.Finally_raised Crash_now -> ()
  | _ when !injected <> None ->
      (* unwinding code (e.g. a transaction abort) may fail after the
         simulated crash; the run is over either way *)
      ());
  Pmtrace.Tracer.detach tracer;
  !injected

(* Drive the injection loop over [tree] until every leaf is visited or an
   execution makes no progress. Returns records in execution order. *)
let reexecute_loop config (target : Target.t) tree =
  let records = ref [] and executions = ref 0 in
  let continue_ = ref true in
  while !continue_ && Fp_tree.unvisited_count tree > 0 do
    incr executions;
    match reexecute config target tree with
    | None -> continue_ := false (* nondeterminism guard: no progress *)
    | Some (point, image) ->
        records := judge config target point (Pmem.Image.cow image) :: !records
  done;
  (List.rev !records, !executions)

(* The deterministic-merge rule: reports are ordered by failure-point
   discovery ordinal, so the result is identical regardless of how the
   leaves were scheduled over workers. *)
let sort_records =
  List.sort (fun a b -> compare a.point.Fp_tree.ordinal b.point.Fp_tree.ordinal)

(* Each worker owns a private copy of the tree (rebuilt from the serialized
   form, which preserves ordinals) with every leaf outside its round-robin
   share pre-marked visited, so the standard loop only injects its own
   assignment. Workers share no mutable state: each execution creates its
   own device and tracer, and the ambient framer/transaction state is
   domain-local. *)
let inject_parallel config (target : Target.t) tree ~jobs =
  let serialized = Fp_tree.serialize tree in
  let worker w () =
    Metrics.measure (fun () ->
        let local = Fp_tree.deserialize serialized in
        Fp_tree.iter local (fun p ->
            if p.Fp_tree.ordinal mod jobs <> w then p.Fp_tree.visited <- true);
        reexecute_loop config target local)
  in
  let domains = List.init jobs (fun w -> Domain.spawn (worker w)) in
  let results = List.map Domain.join domains in
  let worker_metrics = List.map snd results in
  (* Re-anchor worker records on the master tree's points (the worker trees
     are projections of it) and mark the master leaves visited. *)
  let records =
    List.concat_map
      (fun ((recs, _), _) ->
        List.map
          (fun r ->
            match Fp_tree.find tree r.point.Fp_tree.capture with
            | Some master ->
                master.Fp_tree.visited <- true;
                { r with point = master }
            | None -> assert false)
          recs)
      results
  in
  let executions = List.fold_left (fun acc ((_, e), _) -> acc + e) 0 results in
  { tree; records = sort_records records; executions; worker_metrics }

(** The paper's injection loop: re-execute the workload until every leaf of
    the tree is visited, injecting one fault per execution (steps 6-9 of
    Figure 1, [Config.Reexecute]). With [Config.jobs > 1] the loop runs on
    that many worker domains — each fault injection is an independent
    re-execution, so the leaves are partitioned round-robin by ordinal and
    the per-worker records merged back in ordinal order, making the result
    byte-for-byte identical to the sequential schedule. *)
let inject_reexecute config (target : Target.t) tree =
  (* never spawn more domains than there are leaves to inject *)
  let jobs = max 1 (min config.Config.jobs (max 1 (Fp_tree.size tree))) in
  if jobs = 1 then begin
    let records, executions = reexecute_loop config target tree in
    { tree; records = sort_records records; executions; worker_metrics = [] }
  end
  else inject_parallel config target tree ~jobs

(** Replay-first injection ([Config.Replay], the default): rebuild the
    failure-point tree from [points] (the recording's {!enumerated}
    failure points), materialize every point's crash image in one batched
    prefix-incremental replay pass per worker
    ({!Pmtrace.Replay.materialize}), and stream the recovery oracle over
    the images — no image is ever retained and the target is never
    re-executed on the replayed path. Points the replay pass cannot reach
    (nondeterminism with respect to the recording) fall back to one live
    targeted re-execution each. *)
let inject_replay config (target : Target.t) ~recording ~points =
  (* Re-inserting the captures in discovery order reproduces the ordinals
     the enumeration reported — the same ordinals a live [build_tree]
     assigns on this deterministic workload. *)
  let tree = Fp_tree.create () in
  let pts =
    List.map
      (fun (ordinal, pseq, capture) ->
        match Fp_tree.insert tree capture with
        | `Added p ->
            assert (p.Fp_tree.ordinal = ordinal);
            (ordinal, pseq, p)
        | `Existing _ -> assert false)
      points
  in
  let by_ordinal = Hashtbl.create (max 16 (List.length pts)) in
  List.iter (fun (o, _, p) -> Hashtbl.replace by_ordinal o p) pts;
  (* One materialization pass over a share of the points: crash images
     stream straight into the oracle, so at most one image is live at a
     time. The recording is immutable and safely shared across domains. *)
  let materialize_share mine =
    let out = ref [] in
    let unreached =
      Pmtrace.Replay.materialize recording
        ~points:(List.map (fun (o, pseq, _) -> (o, pseq)) mine)
        ~f:(fun ~key image ->
          (* the image is already a copy-on-write view of the shared
             prefix: recovery adopts it directly, no pool copy per point *)
          out := judge config target (Hashtbl.find by_ordinal key) image :: !out)
    in
    (List.rev !out, unreached)
  in
  let jobs = max 1 (min config.Config.jobs (max 1 (List.length pts))) in
  let replayed, unreached, worker_metrics =
    if jobs = 1 then
      let records, unreached = materialize_share pts in
      (records, unreached, [])
    else begin
      let worker w () =
        Metrics.measure (fun () ->
            materialize_share (List.filter (fun (o, _, _) -> o mod jobs = w) pts))
      in
      let domains = List.init jobs (fun w -> Domain.spawn (worker w)) in
      let results = List.map Domain.join domains in
      ( List.concat_map (fun ((recs, _), _) -> recs) results,
        List.concat_map (fun ((_, unr), _) -> unr) results,
        List.map snd results )
    end
  in
  (* Visit state is committed on the spawning domain after the join. *)
  List.iter (fun r -> r.point.Fp_tree.visited <- true) replayed;
  (* Fallback: a point the recording never reached is injected live, one
     targeted re-execution each (expected never to fire on deterministic
     targets — the counter makes any divergence visible). *)
  let fallback_records = ref [] and fallback_execs = ref 0 in
  List.iter
    (fun ordinal ->
      Telemetry.Collector.count "fp.replay_fallback" 1;
      incr fallback_execs;
      match reexecute ~ordinal config target tree with
      | None -> Telemetry.Collector.count "fp.unreached" 1
      | Some (point, image) ->
          fallback_records :=
            judge config target point (Pmem.Image.cow image) :: !fallback_records)
    (List.sort compare unreached);
  {
    tree;
    records = sort_records (replayed @ List.rev !fallback_records);
    executions = !fallback_execs;
    worker_metrics;
  }

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
