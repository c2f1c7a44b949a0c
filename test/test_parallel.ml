(* The differential harness for the parallel fault-injection engine.

   The default [Replay] strategy promises to detect exactly the same bugs
   as the cost-faithful [Reexecute] loop, and the injection schedule both
   strategies share, which deals the failure points round-robin by ordinal
   over [Config.jobs] domains, promises that no worker count changes the
   result. This harness enforces both mechanically: for every registered
   target — the full application suite, the Montage variants, the larger
   KV stores, and the seeded-bug variants from the application registry,
   pmalloc, and Montage — [Replay], [Reexecute jobs=1] and
   [Reexecute jobs=4] must produce byte-for-byte identical deduplicated
   reports, identical failure-point counts, and identical injection counts.

   Also covers [Engine.resolve_stacks] (the instruction-counter stack
   re-attachment of paper section 5), previously untested. *)

let app name =
  match Pmapps.Registry.find name with
  | Some m -> m
  | None -> Alcotest.failf "unknown app %s" name

let version_for name =
  if String.equal name "hashmap_atomic" then Pmalloc.Version.V1_6
  else Pmalloc.Version.V1_12

(* --- the differential check itself --- *)

let strategies =
  [
    ("replay", Mumak.Config.Replay, 1);
    ("reexecute j=1", Mumak.Config.Reexecute, 1);
    ("reexecute j=4", Mumak.Config.Reexecute, 4);
  ]

let differential ?(expect_bugs = false) ~bugs name make_target =
  Bugreg.with_enabled bugs (fun () ->
      let results =
        List.map
          (fun (label, strategy, jobs) ->
            let config = { Mumak.Config.default with strategy; jobs } in
            (label, Mumak.Engine.analyze ~config (make_target ())))
          strategies
      in
      let (_, base), rest = (List.hd results, List.tl results) in
      List.iter
        (fun (label, r) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s failure points" name label)
            base.Mumak.Engine.failure_points r.Mumak.Engine.failure_points;
          Alcotest.(check int)
            (Printf.sprintf "%s: %s injections" name label)
            base.Mumak.Engine.injections r.Mumak.Engine.injections;
          Alcotest.(check (list string))
            (Printf.sprintf "%s: %s report signature" name label)
            (Mumak.Report.signature base.Mumak.Engine.report)
            (Mumak.Report.signature r.Mumak.Engine.report))
        rest;
      (* the two re-execution schedules must also pay the same cost *)
      (match rest with
      | [ (_, seq); (_, par) ] ->
          Alcotest.(check int)
            (name ^ ": sequential and parallel executions")
            seq.Mumak.Engine.executions par.Mumak.Engine.executions;
          Alcotest.(check bool)
            (name ^ ": parallel run used worker domains")
            true
            (List.length par.Mumak.Engine.worker_metrics
             = min 4 (max 1 par.Mumak.Engine.failure_points))
      | _ -> Alcotest.fail "expected two re-execution results");
      if expect_bugs then
        Alcotest.(check bool)
          (name ^ ": seeded bug detected")
          true
          (Mumak.Report.correctness_bugs base.Mumak.Engine.report <> []))

let wl ?(ops = 80) ?(key_range = 30) ?(seed = 42L) () =
  Workload.standard ~ops ~key_range ~seed

(* --- clean targets: the whole registry + Montage + the KV stores --- *)

let test_clean_apps () =
  List.iter
    (fun name ->
      differential ~bugs:[] name (fun () ->
          Targets.of_app (app name) ~version:(version_for name) ~workload:(wl ()) ()))
    [ "btree"; "rbtree"; "hashmap_atomic"; "hashmap_tx"; "wort"; "level_hash"; "cceh";
      "fast_fair"; "art" ]

let test_clean_grouped () =
  differential ~bugs:[] "btree (grouped)" (fun () ->
      Targets.of_app (app "btree") ~version:Pmalloc.Version.V1_12
        ~tx_mode:(Targets.Grouped 16) ~workload:(wl ()) ())

let test_clean_montage () =
  differential ~bugs:[] "montage.Hashtable" (fun () ->
      Targets.of_montage ~variant:`Buffered ~workload:(wl ~ops:60 ()) ());
  differential ~bugs:[] "montage.LfHashtable" (fun () ->
      Targets.of_montage ~variant:`Lockfree ~workload:(wl ~ops:60 ()) ())

let test_clean_kvstores () =
  differential ~bugs:[] "pmemkv.cmap" (fun () ->
      Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Cmap ~workload:(wl ~ops:60 ()) ());
  differential ~bugs:[] "pmemkv.stree" (fun () ->
      Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Stree ~workload:(wl ~ops:60 ()) ());
  differential ~bugs:[] "redis" (fun () ->
      Targets.of_redis ~workload:(wl ~ops:60 ()) ());
  differential ~bugs:[] "rocksdb" (fun () ->
      Targets.of_rocksdb ~workload:(wl ~ops:60 ()) ())

(* --- seeded-bug variants: application, pmalloc-library, Montage bugs --- *)

let test_seeded_app_bugs () =
  differential ~expect_bugs:true ~bugs:[ "btree_insert_no_tx" ] "btree+insert_no_tx"
    (fun () ->
      Targets.of_app (app "btree") ~version:Pmalloc.Version.V1_12 ~workload:(wl ()) ());
  differential ~bugs:[ "hm_atomic_count_never_flushed" ] "hashmap_atomic+never_flushed"
    (fun () ->
      Targets.of_app (app "hashmap_atomic") ~version:Pmalloc.Version.V1_6
        ~workload:(wl ()) ())

let test_seeded_pmalloc_bugs () =
  (* the library bugs need large grouped transactions to fire *)
  let grouped () =
    Targets.of_app (app "btree") ~version:Pmalloc.Version.V1_12
      ~tx_mode:(Targets.Grouped 64) ~workload:(wl ~ops:120 ()) ()
  in
  differential ~expect_bugs:true ~bugs:[ "pmdk112_tx_overflow_commit" ]
    "btree+pmdk112_tx_overflow_commit" grouped;
  differential ~bugs:[ "pmalloc_redo_missing_drain" ] "btree+redo_missing_drain" grouped;
  differential ~bugs:[ "pmalloc_persist_double_flush" ] "btree+persist_double_flush"
    grouped

let test_seeded_montage_bugs () =
  differential ~expect_bugs:true ~bugs:[ "montage_alloc_head_unpersisted" ]
    "montage+alloc_head_unpersisted" (fun () ->
      Targets.of_montage ~variant:`Buffered ~workload:(wl ~ops:60 ()) ());
  differential ~expect_bugs:true ~bugs:[ "montage_dtor_window" ] "montage+dtor_window"
    (fun () -> Targets.of_montage ~variant:`Buffered ~workload:(wl ~ops:60 ()) ())

(* --- parallel scheduler mechanics --- *)

let test_parallel_visits_every_leaf () =
  let target =
    Targets.of_app (app "btree") ~version:Pmalloc.Version.V1_12 ~workload:(wl ()) ()
  in
  let config = { Mumak.Config.faithful with Mumak.Config.jobs = 4 } in
  let tree, _stats = Mumak.Fault_injection.build_tree config target in
  (* count the target's runs as the workers make them *)
  let runs = Atomic.make 0 in
  let counted =
    {
      target with
      Mumak.Target.run =
        (fun ~device ~framer ->
          Atomic.incr runs;
          target.Mumak.Target.run ~device ~framer);
    }
  in
  let result = Mumak.Fault_injection.inject_reexecute config counted tree in
  let ordinals =
    List.map
      (fun r -> r.Mumak.Fault_injection.point.Mumak.Fp_tree.ordinal)
      result.Mumak.Fault_injection.records
  in
  Alcotest.(check (list int)) "every leaf injected"
    (List.init (Mumak.Fp_tree.size tree) Fun.id)
    (List.sort_uniq compare ordinals);
  Alcotest.(check int) "one injection per leaf" (Mumak.Fp_tree.size tree)
    (List.length result.Mumak.Fault_injection.records);
  Alcotest.(check int) "one execution per leaf" (Mumak.Fp_tree.size tree) (Atomic.get runs);
  Alcotest.(check int) "four workers reported metrics" 4
    (List.length result.Mumak.Fault_injection.worker_metrics);
  (* the deterministic-merge rule: records come back sorted by ordinal *)
  Alcotest.(check (list int)) "records sorted by discovery ordinal"
    (List.sort compare ordinals) ordinals

let test_more_jobs_than_leaves () =
  (* jobs far beyond the leaf count must degrade gracefully *)
  let target =
    Targets.of_app (app "wort") ~version:Pmalloc.Version.V1_12
      ~workload:(wl ~ops:12 ~key_range:6 ()) ()
  in
  let run jobs =
    Mumak.Engine.analyze
      ~config:{ Mumak.Config.faithful with Mumak.Config.jobs } target
  in
  let seq = run 1 and par = run 64 in
  Alcotest.(check (list string)) "identical reports at jobs=64"
    (Mumak.Report.signature seq.Mumak.Engine.report)
    (Mumak.Report.signature par.Mumak.Engine.report);
  Alcotest.(check bool) "worker pool clamped to leaf count" true
    (List.length par.Mumak.Engine.worker_metrics <= par.Mumak.Engine.failure_points)

(* --- Engine.resolve_stacks --- *)

(* Observe the ground truth: one instrumented execution capturing the stack
   at every instruction counter. *)
let observe_stacks (target : Mumak.Target.t) =
  let observed = Hashtbl.create 256 in
  let device = Pmem.Device.create ~size:target.Mumak.Target.pool_size () in
  let tracer = Pmtrace.Tracer.create device in
  Pmtrace.Tracer.add_listener tracer (fun event stack ->
      Hashtbl.replace observed event.Pmtrace.Event.seq (Pmtrace.Callstack.capture stack));
  target.Mumak.Target.run ~device
    ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer));
  Pmtrace.Tracer.detach tracer;
  observed

let test_resolve_stacks_matches_first_execution () =
  let target =
    Targets.of_app (app "btree") ~version:Pmalloc.Version.V1_12 ~workload:(wl ()) ()
  in
  let observed = observe_stacks target in
  let total = Hashtbl.length observed in
  Alcotest.(check bool) "execution produced events" true (total > 50);
  (* ask for a spread of instruction counters, including both ends *)
  let wanted =
    [ 1; 2; total / 3; total / 2; total - 1; total ]
    |> List.filter (fun s -> s >= 1 && s <= total)
    |> List.sort_uniq compare
  in
  let resolved = Mumak.Engine.resolve_stacks target ~wanted in
  List.iter
    (fun seq ->
      match Hashtbl.find_opt resolved seq with
      | None -> Alcotest.failf "seq %d not resolved" seq
      | Some capture ->
          Alcotest.(check bool)
            (Printf.sprintf "stack at seq %d matches the first execution" seq)
            true
            (Pmtrace.Callstack.capture_equal capture (Hashtbl.find observed seq)))
    wanted;
  Alcotest.(check int) "nothing beyond the wanted set" (List.length wanted)
    (Hashtbl.length resolved)

let test_resolve_stacks_findings () =
  (* a trace-analysis finding's attached stack must be the stack observed
     at the same instruction counter in the first execution... *)
  let make_target () =
    Targets.of_app (app "hashmap_atomic") ~version:Pmalloc.Version.V1_6
      ~workload:(wl ()) ()
  in
  Bugreg.with_enabled [ "hm_atomic_count_never_flushed" ] (fun () ->
      let observed = observe_stacks (make_target ()) in
      let result = Mumak.Engine.analyze (make_target ()) in
      let ta_findings =
        List.filter
          (fun f -> f.Mumak.Report.phase = Mumak.Report.Trace_analysis)
          (Mumak.Report.findings result.Mumak.Engine.report)
      in
      Alcotest.(check bool) "trace-analysis findings present" true (ta_findings <> []);
      List.iter
        (fun f ->
          match (f.Mumak.Report.stack, f.Mumak.Report.seq) with
          | Some capture, Some seq ->
              Alcotest.(check bool)
                (Printf.sprintf "finding stack at seq %d matches observation" seq)
                true
                (Pmtrace.Callstack.capture_equal capture (Hashtbl.find observed seq))
          | None, _ -> Alcotest.fail "finding lost its stack with resolve_stacks:true"
          | Some _, None -> Alcotest.fail "trace finding without an instruction counter")
        ta_findings;
      (* ...and resolve_stacks:false must yield stackless findings *)
      let bare =
        Mumak.Engine.analyze
          ~config:{ Mumak.Config.default with Mumak.Config.resolve_stacks = false }
          (make_target ())
      in
      let bare_ta =
        List.filter
          (fun f -> f.Mumak.Report.phase = Mumak.Report.Trace_analysis)
          (Mumak.Report.findings bare.Mumak.Engine.report)
      in
      Alcotest.(check bool) "findings survive without stacks" true (bare_ta <> []);
      Alcotest.(check bool) "resolve_stacks:false yields stack = None" true
        (List.for_all (fun f -> f.Mumak.Report.stack = None) bare_ta);
      (* under the replay-first default, stacks ride on the shared recording
         and resolution is free: the execution count must not change *)
      Alcotest.(check int) "resolution costs no execution under replay"
        result.Mumak.Engine.executions bare.Mumak.Engine.executions;
      (* under live re-execution, skipping the resolution execution must be
         visible in the count *)
      let faithful = Mumak.Engine.analyze ~config:Mumak.Config.faithful (make_target ()) in
      let faithful_bare =
        Mumak.Engine.analyze
          ~config:{ Mumak.Config.faithful with Mumak.Config.resolve_stacks = false }
          (make_target ())
      in
      Alcotest.(check int) "one fewer execution without resolution"
        (faithful.Mumak.Engine.executions - 1) faithful_bare.Mumak.Engine.executions)

let () =
  Alcotest.run "parallel"
    [
      ( "differential",
        [
          Alcotest.test_case "clean application suite" `Slow test_clean_apps;
          Alcotest.test_case "clean grouped transactions" `Slow test_clean_grouped;
          Alcotest.test_case "clean Montage variants" `Slow test_clean_montage;
          Alcotest.test_case "clean KV stores" `Slow test_clean_kvstores;
          Alcotest.test_case "seeded application bugs" `Slow test_seeded_app_bugs;
          Alcotest.test_case "seeded pmalloc bugs" `Slow test_seeded_pmalloc_bugs;
          Alcotest.test_case "seeded Montage bugs" `Slow test_seeded_montage_bugs;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "parallel visits every leaf" `Slow
            test_parallel_visits_every_leaf;
          Alcotest.test_case "more jobs than leaves" `Quick test_more_jobs_than_leaves;
        ] );
      ( "resolve-stacks",
        [
          Alcotest.test_case "matches first execution" `Quick
            test_resolve_stacks_matches_first_execution;
          Alcotest.test_case "findings carry resolved stacks" `Slow
            test_resolve_stacks_findings;
        ] );
    ]
