(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 6) on the simulated substrate.

   Usage: main.exe [table1|fig3|fig4|table2|coverage|fig5|newbugs|table3|
                    ablation|scaling|micro|trend]...
   With no argument, every experiment runs in sequence. Workload sizes and
   timeouts are scaled down (seconds instead of hours); EXPERIMENTS.md maps
   each output to the corresponding paper claim. *)

let line = String.make 78 '='
let section title =
  Fmt.pr "@.%s@.== %s@.%s@." line title line

(* ------------------------------------------------------------------ *)
(* Machine-readable results: BENCH_<experiment>.json                   *)
(* ------------------------------------------------------------------ *)

(* MUMAK_BENCH_SMOKE=1 scales the instrumented experiments down (smaller
   workloads, fewer configurations) so CI can exercise the full emit +
   validate path in seconds. The flag is recorded in the output. *)
let smoke = Sys.getenv_opt "MUMAK_BENCH_SMOKE" <> None

(* Per-experiment wall/alloc totals for the envelope's meta stamp, reset by
   [bench_telemetry_begin]. *)
let bench_clock = ref (Unix.gettimeofday ())
let bench_alloc = ref (Mumak.Metrics.allocated_bytes ())

(* Start an instrumented experiment: turn the collector on and discard
   anything a previous experiment left buffered, so the dump written by
   [write_bench] covers exactly this experiment's runs. *)
let bench_telemetry_begin () =
  Telemetry.Collector.enable ();
  ignore (Telemetry.Collector.drain ());
  bench_clock := Unix.gettimeofday ();
  bench_alloc := Mumak.Metrics.allocated_bytes ()

let git_commit =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
       let line = try input_line ic with End_of_file -> "" in
       ignore (Unix.close_process_in ic);
       if String.trim line = "" then "unknown" else String.trim line
     with _ -> "unknown")

(* The v2 meta stamp: enough provenance to interpret an envelope long after
   the run — which commit, which compiler, how parallel the host was — plus
   the wall/alloc totals the `trend` gate compares across recorded runs. *)
let bench_meta () =
  let open Telemetry.Json in
  Assoc
    [
      ("git_commit", String (Lazy.force git_commit));
      ("ocaml_version", String Sys.ocaml_version);
      ("host_cores", Int (Domain.recommended_domain_count ()));
      ("smoke", Bool smoke);
      ("wall_seconds", Float (Unix.gettimeofday () -. !bench_clock));
      ("allocated_bytes", Float (Mumak.Metrics.allocated_bytes () -. !bench_alloc));
    ]

(* Envelope shared with `mumak validate`: schema "mumak.bench" version 2
   with the experiment name, target, full Config, per-configuration result
   rows, the telemetry counters/histograms of the experiment's runs, the
   report signature (so a regression in *what* was found, not just how
   fast, is visible from the artifact alone) and the meta stamp. When
   MUMAK_STORE names a results ledger the envelope is also appended to its
   bench history, which is what `main.exe trend` judges. *)
let write_bench ~experiment ~target ~config ~rows ~signature =
  let dump = Telemetry.Collector.drain () in
  let open Telemetry.Json in
  let json =
    Assoc
      [
        ("schema", String "mumak.bench");
        ("version", Int 2);
        ("experiment", String experiment);
        ("target", String target);
        ("smoke", Bool smoke);
        ("meta", bench_meta ());
        ("config", Mumak.Config.to_json config);
        ("rows", List rows);
        ( "counters",
          Assoc
            (List.map
               (fun (k, v) -> (k, Int v))
               dump.Telemetry.Collector.counters) );
        ( "histograms",
          Assoc
            (List.map
               (fun (k, h) -> (k, Telemetry.Histogram.to_json h))
               dump.Telemetry.Collector.histograms) );
        ("report_signature", List (List.map (fun s -> String s) signature));
      ]
  in
  let path = Printf.sprintf "BENCH_%s.json" experiment in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string json);
      output_char oc '\n');
  Fmt.pr "@.machine-readable results: %s@." path;
  match Sys.getenv_opt "MUMAK_STORE" with
  | Some dir when dir <> "" ->
      let ledger = Store.Ledger.open_ ~dir () in
      Store.Ledger.append_bench ledger json;
      Fmt.pr "appended envelope to %s@." (Store.Ledger.bench_path ledger)
  | _ -> ()

let phase_metrics (r : Mumak.Engine.result) =
  Telemetry.Json.Assoc
    (("total", Mumak.Metrics.to_json r.Mumak.Engine.metrics)
    :: List.map
         (fun (phase, m) -> (Mumak.Report.phase_to_string phase, Mumak.Metrics.to_json m))
         r.Mumak.Engine.phase_metrics)

(* One phase's measurement; raises [Not_found] if the phase did not run. *)
let phase_metric (r : Mumak.Engine.result) phase = List.assoc phase r.Mumak.Engine.phase_metrics

(* ------------------------------------------------------------------ *)
(* Table 1: taxonomy coverage matrix                                   *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: tool classification against the bug taxonomy";
  Fmt.pr "(Y = supported, Y* = with manual annotations, Y+ = conflated with durability)@.@.";
  Fmt.pr "%a" Mumak.Taxonomy.pp_table1 ()

(* ------------------------------------------------------------------ *)
(* Figure 3: unique execution paths vs workload size                   *)
(* ------------------------------------------------------------------ *)

let count_unique_paths target =
  let pi_tree = Mumak.Fp_tree.create () and st_tree = Mumak.Fp_tree.create () in
  let device = Pmem.Device.create ~size:target.Mumak.Target.pool_size () in
  let tracer = Pmtrace.Tracer.create ~collect:false device in
  let detect_pi =
    Mumak.Fault_injection.fp_listener ~granularity:Mumak.Config.Persistency_instruction
      ~on_fp:(fun c -> ignore (Mumak.Fp_tree.insert pi_tree c))
  in
  let detect_st =
    Mumak.Fault_injection.fp_listener ~granularity:Mumak.Config.Store_level
      ~on_fp:(fun c -> ignore (Mumak.Fp_tree.insert st_tree c))
  in
  Pmtrace.Tracer.add_listener tracer (fun e s ->
      detect_pi e s;
      detect_st e s);
  target.Mumak.Target.run ~device
    ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer));
  Pmtrace.Tracer.detach tracer;
  (Mumak.Fp_tree.size pi_tree, Mumak.Fp_tree.size st_tree)

let fig3 () =
  section "Figure 3: PMDK data store coverage based on workload size";
  let sizes = [ 30; 100; 300; 1000; 3000 ] in
  let apps = [ "btree"; "rbtree"; "hashmap_atomic" ] in
  let results =
    List.map
      (fun name ->
        let m = Option.get (Pmapps.Registry.find name) in
        ( name,
          List.map
            (fun ops ->
              let workload = Workload.standard ~ops ~key_range:(max 20 (ops / 3)) ~seed:42L in
              let target = Targets.of_app m ~version:Pmalloc.Version.V1_6 ~workload () in
              count_unique_paths target)
            sizes ))
      apps
  in
  let print_table title pick =
    Fmt.pr "@.(%s) unique execution paths@." title;
    Fmt.pr "%-16s" "workload (ops)";
    List.iter (fun s -> Fmt.pr " %8d" s) sizes;
    Fmt.pr "@.";
    List.iter
      (fun (name, counts) ->
        Fmt.pr "%-16s" name;
        List.iter (fun c -> Fmt.pr " %8d" (pick c)) counts;
        Fmt.pr "@.")
      results
  in
  print_table "3a: persistency instructions" fst;
  print_table "3b: stores to PM" snd;
  Fmt.pr
    "@.expected shape: both grow with workload size; (3b) is several times (3a) -- the\n\
     reason Mumak injects at persistency instructions (section 6.1).@."

(* ------------------------------------------------------------------ *)
(* Figure 4 + Table 2: analysis time and resource usage                *)
(* ------------------------------------------------------------------ *)

type tool_row = {
  row_tool : string;
  row_target : string;
  seconds : float;
  infinite : bool;
  cpu_load : float;
  ram_ratio : float;
  pm_ratio : float;
  bugs_found : int;
}

let timeout_s = 4.0 (* the 12-hour-limit analogue *)
let fig4_ops = 400

let vanilla_cost target =
  let (), m =
    Mumak.Metrics.measure (fun () ->
        let device = Pmem.Device.create ~size:target.Mumak.Target.pool_size () in
        target.Mumak.Target.run ~device ~framer:Pmtrace.Framer.null)
  in
  m

(* the application's own working set: its pool plus whatever volatile heap
   a vanilla run grows; tool overheads are measured against this *)
let app_words target vanilla =
  (target.Mumak.Target.pool_size / 8) + vanilla.Mumak.Metrics.heap_growth_words

let run_mumak target =
  let vanilla = vanilla_cost target in
  let result = Mumak.Engine.analyze ~config:Mumak.Config.faithful target in
  let m = result.Mumak.Engine.metrics in
  let base = app_words target vanilla in
  {
    row_tool = "Mumak";
    row_target = target.Mumak.Target.name;
    seconds = m.Mumak.Metrics.wall_seconds;
    infinite = false;
    cpu_load = Mumak.Metrics.cpu_load m;
    ram_ratio =
      float_of_int (base + m.Mumak.Metrics.heap_growth_words) /. float_of_int base;
    pm_ratio = 1.0;
    bugs_found = List.length (Mumak.Report.bugs result.Mumak.Engine.report);
  }

let run_baseline (analyze : ?budget_s:float -> Mumak.Target.t -> Baselines.Tool_intf.result)
    target =
  let vanilla = vanilla_cost target in
  let r = analyze ~budget_s:timeout_s target in
  let m = r.Baselines.Tool_intf.metrics in
  let base = app_words target vanilla in
  {
    row_tool = r.Baselines.Tool_intf.tool;
    row_target = target.Mumak.Target.name;
    seconds = m.Mumak.Metrics.wall_seconds;
    infinite = r.Baselines.Tool_intf.timed_out;
    cpu_load = Mumak.Metrics.cpu_load m;
    ram_ratio =
      float_of_int
        (base + m.Mumak.Metrics.heap_growth_words + r.Baselines.Tool_intf.tracking_words)
      /. float_of_int base;
    pm_ratio = r.Baselines.Tool_intf.pm_overhead;
    bugs_found = List.length (Mumak.Report.bugs r.Baselines.Tool_intf.report);
  }

let kv_of (module A : Pmapps.Kv_intf.S) version workload =
  Baselines.Kv_target.make (module A) ~version ~workload ()

let print_rows rows =
  Fmt.pr "%-14s %-28s %10s %6s %8s %8s %6s@." "tool" "target" "time" "" "CPU" "RAM" "bugs";
  List.iter
    (fun r ->
      Fmt.pr "%-14s %-28s %10s %6s %8.2f %7.1fx %6d@." r.row_tool r.row_target
        (if r.infinite then "INF" else Printf.sprintf "%.2fs" r.seconds)
        (if r.infinite then "(cap)" else "")
        r.cpu_load r.ram_ratio r.bugs_found)
    rows

let fig4_rows = ref ([] : tool_row list)

let fig4 () =
  section
    (Printf.sprintf
       "Figure 4: analysis time of libpmemobj benchmarks (timeout %.0fs = the 12h cap)"
       timeout_s);
  let workload = Workload.standard ~ops:fig4_ops ~key_range:60 ~seed:42L in
  let rows = ref [] in
  let push r = rows := r :: !rows in
  (* --- Figure 4a: library version 1.6: Mumak vs Agamotto vs XFDetector --- *)
  Fmt.pr "@.(4a) pmalloc V1.6@.";
  let v = Pmalloc.Version.V1_6 in
  List.iter
    (fun (name, spt) ->
      let m = Option.get (Pmapps.Registry.find name) in
      let tx_mode = if spt then Targets.Spt else Targets.Grouped 64 in
      let target = Targets.of_app m ~version:v ~tx_mode ~workload () in
      push (run_mumak target);
      push
        (run_baseline
           (fun ?budget_s t ->
             ignore t;
             Baselines.Agamotto.analyze ?budget_s (kv_of m v workload))
           target);
      if spt then
        (* XFDetector's artifact only supports the SPT shape (section 6.1) *)
        push (run_baseline Baselines.Xfdetector.analyze target))
    [ ("btree", false); ("rbtree", false); ("hashmap_atomic", false);
      ("btree", true); ("rbtree", true); ("hashmap_atomic", true) ];
  (* --- Figure 4b: library version 1.8: Mumak vs PMDebugger vs Witcher --- *)
  Fmt.pr "@.(4b) pmalloc V1.8 (hashmap_atomic excluded: broken on 1.8)@.";
  let v = Pmalloc.Version.V1_8 in
  List.iter
    (fun (name, spt) ->
      let m = Option.get (Pmapps.Registry.find name) in
      let tx_mode = if spt then Targets.Spt else Targets.Grouped 64 in
      let target = Targets.of_app m ~version:v ~tx_mode ~workload () in
      push (run_mumak target);
      push (run_baseline Baselines.Pmdebugger.analyze target);
      if spt then
        (* Witcher requires the single-put-per-transaction driver shape *)
        push
          (run_baseline
             (fun ?budget_s t ->
               ignore t;
               Baselines.Witcher.analyze ?budget_s (kv_of m v workload))
             target))
    [ ("btree", false); ("rbtree", false); ("btree", true); ("rbtree", true) ];
  let all = List.rev !rows in
  fig4_rows := all;
  print_rows all;
  (* headline ratios *)
  let mumak_max =
    List.fold_left (fun acc r -> if r.row_tool = "Mumak" then max acc r.seconds else acc) 0.
      all
  in
  let others_best_finished =
    List.filter_map
      (fun r -> if r.row_tool <> "Mumak" && not r.infinite then Some r.seconds else None)
      all
  in
  let timeouts = List.length (List.filter (fun r -> r.infinite) all) in
  Fmt.pr
    "@.Mumak worst case: %.2fs; %d baseline run(s) hit the cap (INF); fastest finishing \
     baseline: %s@."
    mumak_max timeouts
    (match others_best_finished with
    | [] -> "none"
    | l -> Printf.sprintf "%.2fs" (List.fold_left min infinity l))

let table2 () =
  section "Table 2: average CPU load, peak RAM and PM overheads (from the Figure 4 runs)";
  if !fig4_rows = [] then fig4 ();
  Fmt.pr "%-14s %-28s %8s %8s %6s@." "tool" "target" "CPU" "RAM" "PM";
  List.iter
    (fun r ->
      Fmt.pr "%-14s %-28s %8.2f %7.1fx %6s@." r.row_tool r.row_target r.cpu_load
        r.ram_ratio
        (if r.pm_ratio = 0. then "-" else Printf.sprintf "%.1fx" r.pm_ratio))
    !fig4_rows;
  Fmt.pr
    "@.expected shape: Witcher's invariant tables dominate RAM; PMDebugger's bookkeeping \
     is next; Mumak needs the least; only XFDetector keeps metadata in PM (~1.9x).@."

(* ------------------------------------------------------------------ *)
(* Section 6.2: coverage against the seeded bug list                   *)
(* ------------------------------------------------------------------ *)

let coverage_target_for (bug : Bugreg.t) =
  let version name =
    if String.equal name "hashmap_atomic" then Pmalloc.Version.V1_6
    else Pmalloc.Version.V1_12
  in
  let wl = Workload.standard ~ops:250 ~key_range:80 ~seed:13L in
  match bug.Bugreg.component with
  | "pmalloc" ->
      (* the library bugs need large grouped transactions to fire *)
      Targets.of_app (module Pmapps.Btree) ~version:Pmalloc.Version.V1_12
        ~tx_mode:(Targets.Grouped 64) ~workload:wl ()
  | "montage" -> Targets.of_montage ~variant:`Buffered ~workload:wl ()
  | app ->
      Targets.of_app
        (Option.get (Pmapps.Registry.find app))
        ~version:(version app) ~workload:wl ()

let kind_class (k : Mumak.Report.kind) : Bugreg.taxonomy option =
  match k with
  | Mumak.Report.Unrecoverable_state | Mumak.Report.Recovery_crash -> None
  | Mumak.Report.Durability_bug | Mumak.Report.Dirty_overwrite -> Some Bugreg.Durability
  | Mumak.Report.Redundant_flush -> Some Bugreg.Redundant_flush
  | Mumak.Report.Redundant_fence -> Some Bugreg.Redundant_fence
  | Mumak.Report.Transient_data_warning -> Some Bugreg.Transient_data
  | Mumak.Report.Missing_flush_warning -> Some Bugreg.Durability
  | Mumak.Report.Multi_store_flush_warning | Mumak.Report.Unordered_flushes_warning
  | Mumak.Report.Ordering_violation | Mumak.Report.Atomicity_violation
  | Mumak.Report.Missing_fence_warning -> None

let count_kind report taxonomy =
  List.length
    (List.filter
       (fun f -> kind_class f.Mumak.Report.kind = Some taxonomy)
       (Mumak.Report.findings report))

let detected_by_mumak (bug : Bugreg.t) =
  let target = coverage_target_for bug in
  let analyze () = Mumak.Engine.analyze target in
  if Bugreg.is_correctness bug.Bugreg.taxonomy then begin
    (* the clean suite reports no correctness bugs, so any correctness
       finding is attributable to the seeded bug *)
    let result = Bugreg.with_enabled [ bug.Bugreg.id ] analyze in
    Mumak.Report.correctness_bugs result.Mumak.Engine.report <> []
  end
  else begin
    (* performance classes exist benignly in released code (the paper's 101
       performance bugs); score by the delta against the clean baseline *)
    let baseline = Bugreg.with_enabled [] analyze in
    let result = Bugreg.with_enabled [ bug.Bugreg.id ] analyze in
    count_kind result.Mumak.Engine.report bug.Bugreg.taxonomy
    > count_kind baseline.Mumak.Engine.report bug.Bugreg.taxonomy
  end

let coverage () =
  section "Section 6.2: Mumak coverage of the seeded bug list (the Witcher-list analogue)";
  let bugs = Pmapps.Registry.all_bugs @ Pmalloc.Bugs.all @ Montage.Mt_alloc.bugs in
  (* the Level Hashing story: stock recovery first, enhanced afterwards *)
  Pmapps.Level_hash.use_enhanced_recovery := false;
  let score enhanced =
    Pmapps.Level_hash.use_enhanced_recovery := enhanced;
    List.map (fun b -> (b, detected_by_mumak b)) bugs
  in
  let stock = score false in
  let enhanced = score true in
  Pmapps.Level_hash.use_enhanced_recovery := false;
  Fmt.pr "%-30s %-14s %-12s %8s %9s@." "bug id" "component" "class" "stock" "enhanced";
  List.iter2
    (fun (b, d0) ((_, d1) : Bugreg.t * bool) ->
      Fmt.pr "%-30s %-14s %-12s %8s %9s@." b.Bugreg.id b.Bugreg.component
        (Bugreg.taxonomy_to_string b.Bugreg.taxonomy)
        (if d0 then "Y" else "-")
        (if d1 then "Y" else "-"))
    stock enhanced;
  let summarize label scored =
    let det = List.length (List.filter snd scored) and tot = List.length scored in
    let c, ct =
      List.fold_left
        (fun (c, ct) ((b : Bugreg.t), d) ->
          if Bugreg.is_correctness b.Bugreg.taxonomy then ((if d then c + 1 else c), ct + 1)
          else (c, ct))
        (0, 0) scored
    in
    Fmt.pr "%s: %d/%d bugs detected (%.0f%%); correctness: %d/%d; performance: %d/%d@."
      label det tot
      (100. *. float_of_int det /. float_of_int tot)
      c ct (det - c) (tot - ct)
  in
  summarize "stock recovery   " stock;
  summarize "enhanced recovery" enhanced;
  Fmt.pr
    "@.expected shape: ~90%% with the enhanced (20-line) Level Hashing recovery, \
     noticeably less with the stock one; the misses are ordering bugs whose crash \
     states do not respect program order (Mumak emits warnings for those).@."

(* ------------------------------------------------------------------ *)
(* Figure 5: scalability -- analysis time vs codebase size             *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "Figure 5: Mumak analysis time relative to code size";
  let wl = Workload.standard ~ops:120 ~key_range:40 ~seed:21L in
  let targets =
    [
      Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Cmap ~workload:wl ();
      Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Stree ~workload:wl ();
      Targets.of_montage ~variant:`Buffered ~workload:wl ();
      Targets.of_montage ~variant:`Lockfree ~workload:wl ();
      Targets.of_redis ~workload:wl ();
      Targets.of_rocksdb ~workload:wl ();
    ]
  in
  Fmt.pr "%-24s %14s %12s %10s@." "target" "code (k lines)" "time" "fail.points";
  let points =
    List.map
      (fun target ->
        let result = Mumak.Engine.analyze ~config:Mumak.Config.faithful target in
        let t = result.Mumak.Engine.metrics.Mumak.Metrics.wall_seconds in
        Fmt.pr "%-24s %14.1f %11.2fs %10d@." target.Mumak.Target.name
          (float_of_int target.Mumak.Target.loc /. 1000.)
          t result.Mumak.Engine.failure_points;
        (float_of_int target.Mumak.Target.loc, t))
      targets
  in
  (* Pearson correlation between code size and analysis time *)
  let n = float_of_int (List.length points) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. points in
  let syy = List.fold_left (fun a (_, y) -> a +. (y *. y)) 0. points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. points in
  let denom = sqrt (((n *. sxx) -. (sx *. sx)) *. ((n *. syy) -. (sy *. sy))) in
  let r = if denom = 0. then 0. else ((n *. sxy) -. (sx *. sy)) /. denom in
  Fmt.pr
    "@.Pearson correlation(code size, analysis time) = %.2f -- analysis time is driven \
     by the workload's unique paths, not by codebase size (the paper's claim).@."
    r

(* ------------------------------------------------------------------ *)
(* Section 6.4: the new bugs                                           *)
(* ------------------------------------------------------------------ *)

let newbugs () =
  section "Section 6.4: new bugs (seeded reproductions of the published ones)";
  let wl = Workload.standard ~ops:200 ~key_range:60 ~seed:7L in
  let cases =
    [
      ( "Montage allocator recoverability (urcs-sync/Montage#36)",
        "montage_alloc_head_unpersisted",
        Targets.of_montage ~variant:`Buffered ~workload:wl () );
      ( "Montage destructor window (urcs-sync/Montage 3384e50)",
        "montage_dtor_window",
        Targets.of_montage ~variant:`Buffered ~workload:wl () );
      ( "PMDK 1.12 large-tx commit (pmem/pmdk#5461, high priority)",
        "pmdk112_tx_overflow_commit",
        Targets.of_app (module Pmapps.Btree) ~version:Pmalloc.Version.V1_12
          ~tx_mode:(Targets.Grouped 64) ~workload:wl () );
      ( "PMDK libart count/children inconsistency (pmem/pmdk#5512)",
        "art_count_before_child",
        Targets.of_app (module Pmapps.Art) ~version:Pmalloc.Version.V1_12
          ~workload:(Workload.standard ~ops:200 ~key_range:600 ~seed:7L) () );
    ]
  in
  let found =
    List.map
      (fun (label, bug, target) ->
        let result = Bugreg.with_enabled [ bug ] (fun () -> Mumak.Engine.analyze target) in
        let hits = Mumak.Report.correctness_bugs result.Mumak.Engine.report in
        Fmt.pr "%-58s %s@." label (if hits = [] then "MISSED" else "FOUND");
        (match hits with f :: _ -> Fmt.pr "    %a@." Mumak.Report.pp_finding f | [] -> ());
        hits <> [])
      cases
  in
  Fmt.pr "@.%d/4 published bugs reproduced and detected.@."
    (List.length (List.filter Fun.id found))

(* ------------------------------------------------------------------ *)
(* Table 3: ergonomics                                                 *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3: qualitative output and ease-of-use comparison";
  let rows =
    [
      ("XFDetector", "No", "No", "Yes", "No", "No");
      ("PMDebugger", "Yes", "No", "Yes", "No", "Yes*");
      ("Agamotto", "Yes", "Yes", "No (SE)", "Yes", "No");
      ("Witcher", "No", "No", "No", "No", "No");
      ("Mumak", "Yes", "Yes", "Yes", "Yes", "Yes");
    ]
  in
  Fmt.pr "%-12s %-10s %-8s %-12s %-14s %-14s@." "tool" "bug path" "unique" "any workload"
    "no code edits" "no build edits";
  List.iter
    (fun (t, a, b, c, d, e) -> Fmt.pr "%-12s %-10s %-8s %-12s %-14s %-14s@." t a b c d e)
    rows;
  Fmt.pr "* PMDebugger rides on pmemcheck annotations shipped inside the PM library.@."

(* ------------------------------------------------------------------ *)
(* Ablations of the design decisions (DESIGN.md)                       *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation: Mumak design choices";
  let wl = Workload.standard ~ops:150 ~key_range:60 ~seed:42L in
  let target =
    Targets.of_app (module Pmapps.Btree) ~version:Pmalloc.Version.V1_12 ~workload:wl ()
  in
  let run config =
    let r = Mumak.Engine.analyze ~config target in
    ( r.Mumak.Engine.failure_points,
      r.Mumak.Engine.executions,
      r.Mumak.Engine.metrics.Mumak.Metrics.wall_seconds,
      List.length (Mumak.Report.correctness_bugs r.Mumak.Engine.report) )
  in
  Fmt.pr "%-46s %8s %6s %9s %6s@." "configuration" "fail.pts" "execs" "time" "bugs";
  let show label config =
    let fp, ex, t, bugs = run config in
    Fmt.pr "%-46s %8d %6d %8.2fs %6d@." label fp ex t bugs
  in
  show "persistency-instruction FPs, replay" Mumak.Config.default;
  show "persistency-instruction FPs, re-execute" Mumak.Config.faithful;
  show "store-level FPs, replay (XFDetector-like)"
    { Mumak.Config.default with Mumak.Config.granularity = Mumak.Config.Store_level };
  show "store-level FPs, re-execute"
    { Mumak.Config.faithful with Mumak.Config.granularity = Mumak.Config.Store_level };
  (* eADR ablation: with the persistence domain extended to the caches, the
     durability patterns are disabled but crash consistency is unchanged *)
  let eadr = { Mumak.Config.default with Mumak.Config.eadr = true } in
  let durability_count config =
    Bugreg.with_enabled [ "hm_atomic_count_never_flushed" ] (fun () ->
        let t =
          Targets.of_app (module Pmapps.Hashmap_atomic) ~version:Pmalloc.Version.V1_6
            ~workload:wl ()
        in
        let r = Mumak.Engine.analyze ~config t in
        List.length
          (List.filter
             (fun f -> f.Mumak.Report.kind = Mumak.Report.Durability_bug)
             (Mumak.Report.findings r.Mumak.Engine.report)))
  in
  Fmt.pr
    "@.eADR ablation (hm_atomic with the never-flushed-counter bug): ADR reports %d      durability finding(s); eADR reports %d (unflushed stores are durable there,      section 4.3).@."
    (durability_count Mumak.Config.default)
    (durability_count eadr);
  Fmt.pr
    "@.expected shape: store-level granularity multiplies failure points and, with \
     re-execution, analysis time -- the section 4.1 scalability argument.@."

(* ------------------------------------------------------------------ *)
(* Scaling: parallel fault injection over worker domains               *)
(* ------------------------------------------------------------------ *)

let scaling () =
  section "Scaling: parallel fault injection (injections/sec vs Config.jobs)";
  bench_telemetry_begin ();
  let ops = if smoke then 100 else 250 in
  let jobs_list = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let wl = Workload.standard ~ops ~key_range:60 ~seed:42L in
  let target =
    Targets.of_app (module Pmapps.Btree) ~version:Pmalloc.Version.V1_12 ~workload:wl ()
  in
  Bugreg.with_enabled [ "btree_insert_no_tx" ] (fun () ->
      Fmt.pr "target: %s + seeded atomicity bug; host cores: %d@."
        target.Mumak.Target.name
        (Domain.recommended_domain_count ());
      Fmt.pr "%6s %10s %8s %8s %10s %9s %6s@." "jobs" "inject" "f.points" "execs"
        "inj/sec" "speedup" "bugs";
      let base = ref 0. in
      let rows = ref [] and signature = ref [] in
      List.iter
        (fun jobs ->
          let config =
            { Mumak.Config.faithful with Mumak.Config.jobs; resolve_stacks = false }
          in
          let r = Mumak.Engine.analyze ~config target in
          let t = (phase_metric r Mumak.Report.Fault_injection).Mumak.Metrics.wall_seconds in
          if jobs = 1 then begin
            base := t;
            signature := Mumak.Report.signature r.Mumak.Engine.report
          end;
          let inj_per_sec =
            if t > 0. then float_of_int r.Mumak.Engine.injections /. t else 0.
          in
          let speedup = if t > 0. then !base /. t else 1. in
          let bugs = List.length (Mumak.Report.bugs r.Mumak.Engine.report) in
          Fmt.pr "%6d %9.2fs %8d %8d %10.1f %8.2fx %6d@." jobs t
            r.Mumak.Engine.failure_points r.Mumak.Engine.executions inj_per_sec
            speedup bugs;
          rows :=
            Telemetry.Json.Assoc
              [
                ("jobs", Telemetry.Json.Int jobs);
                ("fi_wall_seconds", Telemetry.Json.Float t);
                ("failure_points", Telemetry.Json.Int r.Mumak.Engine.failure_points);
                ("injections", Telemetry.Json.Int r.Mumak.Engine.injections);
                ("executions", Telemetry.Json.Int r.Mumak.Engine.executions);
                ("injections_per_sec", Telemetry.Json.Float inj_per_sec);
                ("speedup", Telemetry.Json.Float speedup);
                ("bugs", Telemetry.Json.Int bugs);
                ( "signature_matches_sequential",
                  Telemetry.Json.Bool
                    (Mumak.Report.signature r.Mumak.Engine.report = !signature) );
                ("metrics", phase_metrics r);
              ]
            :: !rows)
        jobs_list;
      write_bench ~experiment:"scaling" ~target:target.Mumak.Target.name
        ~config:{ Mumak.Config.faithful with Mumak.Config.resolve_stacks = false }
        ~rows:(List.rev !rows) ~signature:!signature;
      Fmt.pr
        "@.expected shape: injections/sec scales with jobs up to the host's core count \
         (every injection is an independent re-execution -- embarrassingly parallel; \
         >=2x at jobs=4 on a 4-core host), while failure points, executions and the \
         bug set are identical at every worker count (the deterministic-merge / \
         differential-parity guarantee enforced by test_parallel.ml).@.")

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (Bechamel): substrate operation costs";
  let open Bechamel in
  let dev = Pmem.Device.create ~size:(1 lsl 20) () in
  let addr = ref 0 in
  let store_flush_fence =
    Test.make ~name:"device store+clwb+sfence"
      (Staged.stage (fun () ->
           addr := (!addr + 64) land 0xFFFF;
           Pmem.Device.store_i64 dev ~addr:!addr 42L;
           Pmem.Device.clwb dev ~addr:!addr;
           Pmem.Device.sfence dev))
  in
  let ta = Mumak.Trace_analysis.create Mumak.Config.default in
  let seq = ref 0 in
  let ta_feed =
    Test.make ~name:"trace-analysis feed (store+flush+fence)"
      (Staged.stage (fun () ->
           seq := !seq + 3;
           Mumak.Trace_analysis.feed ta
             { Pmtrace.Event.seq = !seq; op = Pmem.Op.Store { addr = 128; size = 8; nt = false };
               stack = None };
           Mumak.Trace_analysis.feed ta
             { Pmtrace.Event.seq = !seq + 1;
               op = Pmem.Op.Flush { kind = Pmem.Op.Clwb; line = 2; dirty = true; volatile = false };
               stack = None };
           Mumak.Trace_analysis.feed ta
             { Pmtrace.Event.seq = !seq + 2;
               op = Pmem.Op.Fence { kind = Pmem.Op.Sfence; pending_flushes = 1; pending_nt = 0 };
               stack = None }))
  in
  let tree = Mumak.Fp_tree.create () in
  List.iter
    (fun i ->
      ignore
        (Mumak.Fp_tree.insert tree
           { Pmtrace.Callstack.path = [ "a"; "b"; string_of_int (i mod 40) ]; op_index = i }))
    (List.init 400 Fun.id);
  let probe = { Pmtrace.Callstack.path = [ "a"; "b"; "7" ]; op_index = 7 } in
  let fp_find =
    Test.make ~name:"failure-point tree find (400 points)"
      (Staged.stage (fun () -> ignore (Mumak.Fp_tree.find tree probe)))
  in
  let crash_image =
    Test.make ~name:"crash image (1 MiB pool)"
      (Staged.stage (fun () ->
           ignore (Pmem.Device.crash dev ~policy:Pmem.Device.Program_prefix)))
  in
  let tests =
    Test.make_grouped ~name:"substrate" [ store_flush_fence; ta_feed; fp_find; crash_image ]
  in
  let benchmark () =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    let raw = Benchmark.all cfg instances tests in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let results = benchmark () in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Fmt.pr "%-48s %10.1f ns/run@." name est
      | _ -> Fmt.pr "%-48s (no estimate)@." name)
    results

(* ------------------------------------------------------------------ *)

(* Lint + verified fixes: the planted performance-bug matrix analyzed under
   Config.linting. Per target: redundancy counts and estimated savings from
   the lint pass, the fix-verdict tally from the verifier, and the
   replay-vs-reexecute wall time that justifies verifying fixes on replayed
   traces instead of re-running the target. *)
let lint_bench () =
  section "Lint + verified fixes: redundancies, savings, replay vs re-execution";
  bench_telemetry_begin ();
  let ops = if smoke then 150 else 400 in
  let key_range = if smoke then 60 else 200 in
  let wl = Workload.standard ~ops ~key_range ~seed:42L in
  let planted =
    [
      ("btree", "btree_redundant_persist");
      ("hashmap_atomic", "hm_atomic_redundant_fence");
      ("fast_fair", "ff_redundant_fence");
      ("hashmap_tx", "hm_tx_redundant_fence");
      ("level_hash", "level_hash_redundant_flush");
      ("level_hash", "level_hash_redundant_fence");
      ("rbtree", "rbtree_redundant_fence");
      ("wort", "wort_redundant_flush");
    ]
  in
  let planted = if smoke then List.filteri (fun i _ -> i < 3) planted else planted in
  let target_of app =
    let version =
      if String.equal app "hashmap_atomic" then Pmalloc.Version.V1_6
      else Pmalloc.Version.V1_12
    in
    Targets.of_app (Option.get (Pmapps.Registry.find app)) ~version ~workload:wl ()
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (x, Unix.gettimeofday () -. t0)
  in
  Fmt.pr "%-16s %-28s %7s %7s %7s %9s %24s@." "target" "seeded bug" "r.flsh" "r.fnc"
    "spots" "ev.saved" "verdicts (p/i/h, replays)";
  let rows = ref [] and signature = ref [] in
  let case app bug =
    let target = target_of app in
    let r =
      Bugreg.with_enabled (Option.to_list bug) (fun () ->
          Mumak.Engine.analyze ~config:Mumak.Config.linting target)
    in
    let l = Option.get r.Mumak.Engine.lint in
    let v = Option.get r.Mumak.Engine.fix_verdicts in
    (* replay-vs-reexecute: recording IS a traced live execution; replaying
       the recorded trace gives the verifier the same events without one *)
    let recording, t_record =
      time (fun () ->
          Pmtrace.Replay.record ~pool_size:target.Mumak.Target.pool_size
            (fun ~device ~framer -> target.Mumak.Target.run ~device ~framer))
    in
    let _, t_replay = time (fun () -> Pmtrace.Replay.replay recording) in
    signature := Mumak.Report.signature r.Mumak.Engine.report;
    Fmt.pr "%-16s %-28s %7d %7d %7d %9d %11d/%d/%d, %7d@." app
      (Option.value ~default:"(clean)" bug)
      l.Analysis.Lint.redundant_flushes l.Analysis.Lint.redundant_fences
      l.Analysis.Lint.missing_flush_spots l.Analysis.Lint.events_saved
      v.Analysis.Verify_fix.proven v.Analysis.Verify_fix.ineffective
      v.Analysis.Verify_fix.harmful v.Analysis.Verify_fix.replays;
    rows :=
      Telemetry.Json.Assoc
        [
          ("target", Telemetry.Json.String app);
          ( "seeded_bug",
            match bug with
            | Some b -> Telemetry.Json.String b
            | None -> Telemetry.Json.Null );
          ("events", Telemetry.Json.Int l.Analysis.Lint.events);
          ("epochs", Telemetry.Json.Int l.Analysis.Lint.epochs);
          ("redundant_flushes", Telemetry.Json.Int l.Analysis.Lint.redundant_flushes);
          ("redundant_fences", Telemetry.Json.Int l.Analysis.Lint.redundant_fences);
          ("missing_flush_spots", Telemetry.Json.Int l.Analysis.Lint.missing_flush_spots);
          ("finding_sites", Telemetry.Json.Int (List.length l.Analysis.Lint.findings));
          ("cycles_saved", Telemetry.Json.Int l.Analysis.Lint.cycles_saved);
          ("events_saved", Telemetry.Json.Int l.Analysis.Lint.events_saved);
          ("fixes_proven", Telemetry.Json.Int v.Analysis.Verify_fix.proven);
          ("fixes_ineffective", Telemetry.Json.Int v.Analysis.Verify_fix.ineffective);
          ("fixes_harmful", Telemetry.Json.Int v.Analysis.Verify_fix.harmful);
          ("verification_replays", Telemetry.Json.Int v.Analysis.Verify_fix.replays);
          ("reexecute_wall_seconds", Telemetry.Json.Float t_record);
          ("replay_wall_seconds", Telemetry.Json.Float t_replay);
          ( "replay_speedup",
            Telemetry.Json.Float (if t_replay > 0. then t_record /. t_replay else 0.) );
          ("metrics", phase_metrics r);
        ]
      :: !rows
  in
  (* every app once clean (the false-positive / no-harm baseline)... *)
  List.iter
    (fun app -> case app None)
    (List.sort_uniq compare (List.map fst planted));
  (* ...then once per planted redundancy *)
  List.iter (fun (app, bug) -> case app (Some bug)) planted;
  write_bench ~experiment:"lint" ~target:"planted-redundancy-matrix"
    ~config:Mumak.Config.linting ~rows:(List.rev !rows) ~signature:!signature;
  Fmt.pr
    "@.expected shape: every seeded row's redundancy counter exceeds its clean row's \
     (100%% detection of the planted redundancies); no clean row has a harmful fix; \
     replaying a recorded trace is faster than re-executing the target under \
     instrumentation -- the case for verifying fixes by trace rewrite.@."

(* Replay-first vs re-execution: the case for the default strategy. Per
   clean target: end-to-end wall and allocated bytes under the live
   re-execution loop and under the batched replay materializer, with the
   speedup and allocation-ratio columns the acceptance criteria read. Then
   the seeded matrix (a representative subset in smoke mode): per-bug wall
   for both engines, aggregated into the matrix-level speedup. Signatures
   must match on every row — a mismatch prints as a REGRESSION. *)
let replay_bench () =
  section "Replay-first vs re-execution: wall clock and allocation diet";
  bench_telemetry_begin ();
  let ops = if smoke then 60 else 200 in
  let key_range = if smoke then 25 else 80 in
  let wl = Workload.standard ~ops ~key_range ~seed:42L in
  let version_for app =
    if String.equal app "hashmap_atomic" then Pmalloc.Version.V1_6
    else Pmalloc.Version.V1_12
  in
  let target_of component () =
    match component with
    | "pmalloc" ->
        Targets.of_app
          (Option.get (Pmapps.Registry.find "btree"))
          ~tx_mode:(Targets.Grouped 64)
          ~workload:(Workload.standard ~ops:(max ops 120) ~key_range ~seed:42L)
          ()
    | "montage" -> Targets.of_montage ~variant:`Buffered ~workload:wl ()
    | app ->
        Targets.of_app
          (Option.get (Pmapps.Registry.find app))
          ~version:(version_for app) ~workload:wl ()
  in
  let reexec = { Mumak.Config.default with strategy = Mumak.Config.Reexecute } in
  let replay = Mumak.Config.default in
  let measure config make_target =
    (* settle GC debt from the previous measurement before timing this one *)
    Gc.compact ();
    let r = Mumak.Engine.analyze ~config (make_target ()) in
    let m = r.Mumak.Engine.metrics in
    (r, m.Mumak.Metrics.wall_seconds, m.Mumak.Metrics.allocated_bytes)
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let rows = ref [] and signature = ref [] in
  let regressions = ref [] in
  let sound_row name base r =
    let sound =
      Mumak.Report.signature base.Mumak.Engine.report
      = Mumak.Report.signature r.Mumak.Engine.report
    in
    if not sound then begin
      regressions := name :: !regressions;
      Fmt.pr "REGRESSION: %s replay report differs from re-execution@." name
    end;
    signature := Mumak.Report.signature r.Mumak.Engine.report;
    sound
  in
  (* --- clean targets: the allocation-diet criterion reads these rows --- *)
  let clean = [ "wort"; "btree"; "level_hash"; "cceh"; "art" ] in
  let clean = if smoke then [ "wort"; "btree" ] else clean in
  Fmt.pr "%-12s %9s %9s %8s %10s %10s %8s@." "target" "t.reex(s)" "t.replay"
    "speedup" "GB.reex" "GB.replay" "alloc/x";
  List.iter
    (fun app ->
      let base, t_reex, a_reex = measure reexec (target_of app) in
      let r, t_replay, a_replay = measure replay (target_of app) in
      let sound = sound_row app base r in
      Fmt.pr "%-12s %9.3f %9.3f %7.1fx %10.2f %10.2f %7.1fx@." app t_reex t_replay
        (ratio t_reex t_replay) (a_reex /. 1e9) (a_replay /. 1e9)
        (ratio a_reex a_replay);
      rows :=
        Telemetry.Json.Assoc
          [
            ("kind", Telemetry.Json.String "clean");
            ("target", Telemetry.Json.String app);
            ("failure_points", Telemetry.Json.Int r.Mumak.Engine.failure_points);
            ("reexecute_wall_seconds", Telemetry.Json.Float t_reex);
            ("replay_wall_seconds", Telemetry.Json.Float t_replay);
            ("speedup", Telemetry.Json.Float (ratio t_reex t_replay));
            ("reexecute_allocated_bytes", Telemetry.Json.Float a_reex);
            ("replay_allocated_bytes", Telemetry.Json.Float a_replay);
            ("allocated_bytes_ratio", Telemetry.Json.Float (ratio a_reex a_replay));
            ("reexecute_executions", Telemetry.Json.Int base.Mumak.Engine.executions);
            ("replay_executions", Telemetry.Json.Int r.Mumak.Engine.executions);
            ("signatures_equal", Telemetry.Json.Bool sound);
            ("metrics", phase_metrics r);
          ]
        :: !rows)
    clean;
  (* --- seeded matrix: the wall-clock criterion reads the aggregate --- *)
  let bugs = Pmapps.Registry.all_bugs @ Pmalloc.Bugs.all @ Montage.Mt_alloc.bugs in
  let bugs =
    if smoke then
      List.filter
        (fun b ->
          List.mem b.Bugreg.id
            [
              "wort_link_uninitialized_node"; "btree_insert_no_tx";
              "hm_atomic_count_never_flushed"; "montage_alloc_head_unpersisted";
            ])
        bugs
    else bugs
  in
  Fmt.pr "@.%-32s %-14s %9s %9s %8s %6s@." "seeded bug" "component" "t.reex(s)"
    "t.replay" "speedup" "sound";
  let sum_reex = ref 0. and sum_replay = ref 0. in
  List.iter
    (fun b ->
      Bugreg.with_enabled [ b.Bugreg.id ] (fun () ->
          let base, t_reex, _ = measure reexec (target_of b.Bugreg.component) in
          let r, t_replay, _ = measure replay (target_of b.Bugreg.component) in
          let sound = sound_row b.Bugreg.id base r in
          sum_reex := !sum_reex +. t_reex;
          sum_replay := !sum_replay +. t_replay;
          Fmt.pr "%-32s %-14s %9.3f %9.3f %7.1fx %6s@." b.Bugreg.id
            b.Bugreg.component t_reex t_replay (ratio t_reex t_replay)
            (if sound then "yes" else "NO");
          rows :=
            Telemetry.Json.Assoc
              [
                ("kind", Telemetry.Json.String "seeded");
                ("bug", Telemetry.Json.String b.Bugreg.id);
                ("component", Telemetry.Json.String b.Bugreg.component);
                ("reexecute_wall_seconds", Telemetry.Json.Float t_reex);
                ("replay_wall_seconds", Telemetry.Json.Float t_replay);
                ("speedup", Telemetry.Json.Float (ratio t_reex t_replay));
                ("signatures_equal", Telemetry.Json.Bool sound);
              ]
            :: !rows))
    bugs;
  let matrix_speedup = ratio !sum_reex !sum_replay in
  rows :=
    Telemetry.Json.Assoc
      [
        ("kind", Telemetry.Json.String "seeded-matrix-aggregate");
        ("bugs", Telemetry.Json.Int (List.length bugs));
        ("reexecute_wall_seconds", Telemetry.Json.Float !sum_reex);
        ("replay_wall_seconds", Telemetry.Json.Float !sum_replay);
        ("speedup", Telemetry.Json.Float matrix_speedup);
      ]
    :: !rows;
  write_bench ~experiment:"replay" ~target:"clean-and-seeded-matrix" ~config:replay
    ~rows:(List.rev !rows) ~signature:!signature;
  Fmt.pr "@.seeded matrix: %.1fs re-executed vs %.1fs replayed (%.1fx; acceptance bar: 5x)@."
    !sum_reex !sum_replay matrix_speedup;
  match !regressions with
  | [] -> Fmt.pr "replay and re-execution reports agree on every row@."
  | ids ->
      Fmt.pr "REGRESSION: replay changed the report for: %a@."
        Fmt.(list ~sep:comma string)
        (List.rev ids)

(* Optimizer: synthesis + replay verification over the kvstore matrix.
   Per target: plans synthesized/verified, the proven/ineffective/harmful
   verdict tally, and — over the shipped (proven-only) bundle — projected
   vs replay-measured events and modelled cycles saved, plus the
   verification wall time and replay count. The run's report signature
   must equal the same configuration with [optimize] off (the phase only
   appends its own summary, never perturbs findings), the phase must add
   zero target executions, and at least one kvstore must ship a proven
   bundle that reduces persist events — each miss prints as REGRESSION. *)
let optimize_bench () =
  section "Optimizer: cost-priced persist transformations, replay-verified bundles";
  bench_telemetry_begin ();
  let ops = if smoke then 120 else 150 in
  let wl = Workload.standard ~ops ~key_range:60 ~seed:42L in
  let targets =
    if smoke then [ Targets.of_redis ~workload:wl () ]
    else
      [
        Targets.of_redis ~workload:wl ();
        Targets.of_rocksdb ~workload:wl ();
        Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Cmap ~workload:wl ();
      ]
  in
  let baseline_config =
    { Mumak.Config.optimizing with Mumak.Config.optimize = false }
  in
  let regressions = ref [] in
  let regress fmt = Format.kasprintf (fun s -> regressions := s :: !regressions) fmt in
  let rows = ref [] and signature = ref [] in
  let any_proven_reducing = ref false in
  Fmt.pr "%-16s %6s %6s %6s %5s %5s %9s %9s %9s %8s@." "target" "plans" "verif"
    "provn" "ineff" "harmf" "ev.proj" "ev.meas" "cyc.meas" "t.opt(s)";
  let case ?(fit_cost = false) target =
    let config = { Mumak.Config.optimizing with Mumak.Config.fit_cost } in
    let r = Mumak.Engine.analyze ~config target in
    let o = Option.get r.Mumak.Engine.opt in
    let shipped = Analysis.Opt.shipped o in
    let sum f = List.fold_left (fun a b -> a + f b) 0 shipped in
    let proj_ev = sum (fun b -> b.Analysis.Opt.b_plan.Analysis.Opt.p_projected_events) in
    let meas_ev = sum (fun b -> b.Analysis.Opt.b_measured_events) in
    let proj_cyc = sum (fun b -> b.Analysis.Opt.b_plan.Analysis.Opt.p_projected_cycles) in
    let meas_cyc = sum (fun b -> b.Analysis.Opt.b_measured_cycles) in
    let t_opt = (phase_metric r Mumak.Report.Optimize).Mumak.Metrics.wall_seconds in
    let name =
      target.Mumak.Target.name ^ if fit_cost then " (fitted)" else ""
    in
    (* the phase must ride the shared recording: no extra executions *)
    if r.Mumak.Engine.executions <> 1 then
      regress "%s: optimize run cost %d executions (expected 1)" name
        r.Mumak.Engine.executions;
    (* shipped bundles are proven by construction; anything else is a bug *)
    List.iter
      (fun b ->
        if b.Analysis.Opt.b_verdict <> Analysis.Verify_fix.Proven then
          regress "%s: shipped bundle with verdict other than proven" name)
      shipped;
    (* the optimizer reads the report, never writes it *)
    let base = Mumak.Engine.analyze ~config:baseline_config target in
    let sound =
      Mumak.Report.signature base.Mumak.Engine.report
      = Mumak.Report.signature r.Mumak.Engine.report
    in
    if not sound then
      regress "%s: report signature changed when optimize was enabled" name;
    if o.Analysis.Opt.proven > 0 && meas_ev > 0 then any_proven_reducing := true;
    signature := Mumak.Report.signature r.Mumak.Engine.report;
    Fmt.pr "%-16s %6d %6d %6d %5d %5d %9d %9d %9d %8.2f@." name
      o.Analysis.Opt.synthesized o.Analysis.Opt.verified o.Analysis.Opt.proven
      o.Analysis.Opt.ineffective o.Analysis.Opt.harmful proj_ev meas_ev meas_cyc
      t_opt;
    rows :=
      Telemetry.Json.Assoc
        [
          ("target", Telemetry.Json.String target.Mumak.Target.name);
          ("fit_cost", Telemetry.Json.Bool fit_cost);
          ("synthesized", Telemetry.Json.Int o.Analysis.Opt.synthesized);
          ("verified", Telemetry.Json.Int o.Analysis.Opt.verified);
          ("proven", Telemetry.Json.Int o.Analysis.Opt.proven);
          ("ineffective", Telemetry.Json.Int o.Analysis.Opt.ineffective);
          ("harmful", Telemetry.Json.Int o.Analysis.Opt.harmful);
          ("shipped", Telemetry.Json.Int (List.length shipped));
          ("baseline_events", Telemetry.Json.Int o.Analysis.Opt.baseline_events);
          ("baseline_cycles", Telemetry.Json.Int o.Analysis.Opt.baseline_cycles);
          ("projected_events_saved", Telemetry.Json.Int proj_ev);
          ("measured_events_saved", Telemetry.Json.Int meas_ev);
          ("projected_cycles_saved", Telemetry.Json.Int proj_cyc);
          ("measured_cycles_saved", Telemetry.Json.Int meas_cyc);
          ("verification_replays", Telemetry.Json.Int o.Analysis.Opt.replays);
          ("verification_wall_seconds", Telemetry.Json.Float t_opt);
          ("executions", Telemetry.Json.Int r.Mumak.Engine.executions);
          ("signature_matches_baseline", Telemetry.Json.Bool sound);
          ("metrics", phase_metrics r);
        ]
      :: !rows
  in
  List.iter case targets;
  (* one fitted-weights row: the cost model priced from a timed replay of
     the same recording instead of the static table *)
  case ~fit_cost:true (Targets.of_redis ~workload:wl ());
  if not !any_proven_reducing then
    regress "no target shipped a proven bundle that reduces persist events";
  write_bench ~experiment:"optimize" ~target:"kvstore-matrix"
    ~config:Mumak.Config.optimizing ~rows:(List.rev !rows) ~signature:!signature;
  (match List.rev !regressions with
  | [] ->
      Fmt.pr
        "@.every target verified its bundle off the one shared recording; proven \
         plans reduce persist events; reports are untouched by the phase@."
  | rs -> List.iter (fun r -> Fmt.pr "REGRESSION: %s@." r) rs);
  Fmt.pr
    "@.expected shape: each kvstore ships proven fence-batching and (where one \
     store owns a heavily-flushed region) non-temporal-conversion bundles; \
     measured savings equal projections for pure-deletion plans; harmful \
     candidates are reported but never shipped.@."

(* ------------------------------------------------------------------ *)
(* trend: judge the stored bench history against its baselines          *)
(* ------------------------------------------------------------------ *)

(* Not a benchmark: reads the envelopes earlier runs appended to the
   results ledger (MUMAK_STORE) and fails when the newest run of any
   experiment regressed in wall time or allocation beyond the threshold —
   the CI gate over performance, next to the report-signature gate over
   findings. *)
let trend () =
  section "bench trend gate";
  let ledger = Store.Ledger.open_ () in
  let history = Store.Ledger.bench_history ledger in
  match Store.Trend.check history with
  | [] ->
      Fmt.pr "no bench envelopes recorded in %s yet@."
        (Store.Ledger.bench_path ledger)
  | verdicts ->
      List.iter (fun v -> Fmt.pr "%a@." Store.Trend.pp_verdict v) verdicts;
      if Store.Trend.any_regressed verdicts then begin
        Fmt.pr "@.TREND REGRESSION: newest run exceeds its stored baseline@.";
        exit 1
      end
      else Fmt.pr "@.all experiments within their envelopes@."

let experiments =
  [
    ("table1", table1);
    ("fig3", fig3);
    ("fig4", fig4);
    ("table2", table2);
    ("coverage", coverage);
    ("fig5", fig5);
    ("newbugs", newbugs);
    ("table3", table3);
    ("ablation", ablation);
    ("scaling", scaling);
    ("lint", lint_bench);
    ("replay", replay_bench);
    ("optimize", optimize_bench);
    ("micro", micro);
    ("trend", trend);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown experiment %s; available: %a@." name
            Fmt.(list ~sep:comma string)
            (List.map fst experiments);
          exit 1)
    requested;
  Fmt.pr "@.total bench time: %.1fs@." (Unix.gettimeofday () -. t0)
