(* Integration tests for the Mumak engine: failure-point tree mechanics,
   no-false-correctness-positives on clean builds, seeded-bug detection
   through both phases, and the replay/re-execute strategy equivalence. *)

let wl ?(ops = 250) ?(key_range = 60) () = Targets.standard_workload ~ops ~key_range ()

let target_for ?version ?tx_mode name =
  match Pmapps.Registry.find name with
  | None -> Alcotest.failf "unknown app %s" name
  | Some (module A : Pmapps.Kv_intf.S) ->
      let version =
        match version with
        | Some v -> v
        | None ->
            if String.equal name "hashmap_atomic" then Pmalloc.Version.V1_6
            else Pmalloc.Version.V1_12
      in
      Targets.of_app (module A) ~version ?tx_mode ~workload:(wl ()) ()

(* --- failure point tree --- *)

let cap path op_index = { Pmtrace.Callstack.path; op_index }

let test_fp_tree_insert_find () =
  let t = Mumak.Fp_tree.create () in
  let a = cap [ "main"; "put" ] 3 and b = cap [ "main"; "put" ] 5 in
  let c = cap [ "main"; "put"; "split" ] 3 in
  (match Mumak.Fp_tree.insert t a with `Added _ -> () | `Existing _ -> Alcotest.fail "a new");
  (match Mumak.Fp_tree.insert t a with `Existing _ -> () | `Added _ -> Alcotest.fail "a dup");
  ignore (Mumak.Fp_tree.insert t b);
  ignore (Mumak.Fp_tree.insert t c);
  Alcotest.(check int) "three unique points" 3 (Mumak.Fp_tree.size t);
  Alcotest.(check bool) "find a" true (Mumak.Fp_tree.find t a <> None);
  Alcotest.(check bool) "find miss" true
    (Mumak.Fp_tree.find t (cap [ "main" ] 1) = None);
  Alcotest.(check int) "all three listed" 3 (List.length (Mumak.Fp_tree.points t))

(* The injection schedule deals points by ordinal: the n-th new capture
   gets ordinal n, and [points] lists them in that order. *)
let test_fp_tree_discovery_ordinals () =
  let t = Mumak.Fp_tree.create () in
  let a = cap [ "main"; "put" ] 3 and b = cap [ "main"; "put"; "split" ] 7 in
  let c = cap [] 1 in
  List.iter (fun x -> ignore (Mumak.Fp_tree.insert t x)) [ a; b; a; c; b ];
  Alcotest.(check (list (pair int string)))
    "points in discovery order"
    [ (0, "main>put@3"); (1, "main>put>split@7"); (2, "@1") ]
    (List.map
       (fun p ->
         let c = p.Mumak.Fp_tree.capture in
         ( p.Mumak.Fp_tree.ordinal,
           String.concat ">" c.Pmtrace.Callstack.path
           ^ "@" ^ string_of_int c.Pmtrace.Callstack.op_index ))
       (Mumak.Fp_tree.points t));
  Alcotest.(check (option int)) "find returns the first insertion's point" (Some 1)
    (Option.map (fun p -> p.Mumak.Fp_tree.ordinal) (Mumak.Fp_tree.find t b))

let prop_fp_tree_uniqueness =
  QCheck.Test.make ~name:"tree deduplicates captures" ~count:100
    QCheck.(
      list_of_size (Gen.int_range 1 50)
        (pair (list_of_size (Gen.int_range 0 4) (string_of_size (Gen.return 2))) (int_range 0 5)))
    (fun caps ->
      let t = Mumak.Fp_tree.create () in
      List.iter (fun (path, i) -> ignore (Mumak.Fp_tree.insert t (cap path i))) caps;
      let unique = List.sort_uniq compare caps in
      Mumak.Fp_tree.size t = List.length unique)

(* --- trace-analysis properties on synthetic event streams --- *)

let ta_run ?(config = Mumak.Config.default) ops =
  let ta = Mumak.Trace_analysis.create config in
  List.iteri
    (fun i op -> Mumak.Trace_analysis.feed ta { Pmtrace.Event.seq = i + 1; op; stack = None })
    ops;
  Mumak.Trace_analysis.finish ta

(* a well-formed persist of slot [s]: store, flush its line, fence *)
let persist_ops slot =
  [
    Pmem.Op.Store { addr = slot * 8; size = 8; nt = false };
    Pmem.Op.Flush { kind = Pmem.Op.Clwb; line = slot * 8 / 64; dirty = true; volatile = false };
    Pmem.Op.Fence { kind = Pmem.Op.Sfence; pending_flushes = 1; pending_nt = 0 };
  ]

let prop_ta_clean_persists =
  QCheck.Test.make ~name:"well-formed persist sequences yield no findings" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 0 500))
    (fun slots ->
      let findings = ta_run (List.concat_map persist_ops slots) in
      findings = [])

let prop_ta_missing_fence_is_flagged =
  QCheck.Test.make ~name:"dropping the final fence yields a durability finding" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 0 15) (int_range 0 50)) (int_range 100 200))
    (fun (slots, last) ->
      let ops =
        List.concat_map persist_ops slots
        @ [
            Pmem.Op.Store { addr = last * 8; size = 8; nt = false };
            Pmem.Op.Flush
              { kind = Pmem.Op.Clwb; line = last * 8 / 64; dirty = true; volatile = false };
          ]
      in
      List.exists
        (fun (r : Mumak.Trace_analysis.raw) ->
          r.Mumak.Trace_analysis.kind = Mumak.Report.Durability_bug)
        (ta_run ops))

let prop_ta_unflushed_store_is_transient_or_durability =
  QCheck.Test.make ~name:"an unpersisted store is always classified" ~count:200
    QCheck.(pair (int_range 0 50) bool)
    (fun (slot, also_flush_elsewhere) ->
      (* the lone store's line may or may not be flushed at another time:
         the classification flips between durability bug and transient-data
         warning, but it is never silent (pattern 1, both arms) *)
      let extra =
        if also_flush_elsewhere then persist_ops slot (* flushes the same line *)
        else persist_ops (slot + 1000)
      in
      let ops = extra @ [ Pmem.Op.Store { addr = slot * 8; size = 8; nt = false } ] in
      let findings = ta_run ops in
      let expected_kind =
        if also_flush_elsewhere then Mumak.Report.Durability_bug
        else Mumak.Report.Transient_data_warning
      in
      List.exists
        (fun (r : Mumak.Trace_analysis.raw) -> r.Mumak.Trace_analysis.kind = expected_kind)
        findings)

let prop_ta_eadr_silences_pattern1 =
  QCheck.Test.make ~name:"under eADR pattern 1 never fires" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 0 200))
    (fun slots ->
      let ops =
        List.map (fun s -> Pmem.Op.Store { addr = s * 8; size = 8; nt = false }) slots
      in
      ta_run ~config:{ Mumak.Config.default with Mumak.Config.eadr = true } ops = [])

(* --- clean builds: no correctness findings --- *)

let clean_apps =
  [ "btree"; "rbtree"; "hashmap_atomic"; "hashmap_tx"; "wort"; "level_hash"; "cceh";
    "fast_fair" ]

let test_clean_no_correctness_bugs () =
  Bugreg.disable_all ();
  List.iter
    (fun name ->
      let result = Mumak.Engine.analyze (target_for name) in
      let correctness = Mumak.Report.correctness_bugs result.Mumak.Engine.report in
      if correctness <> [] then
        Alcotest.failf "%s (clean) reported correctness bugs:\n%s" name
          (String.concat "\n"
             (List.map (Fmt.str "%a" Mumak.Report.pp_finding) correctness));
      Alcotest.(check bool)
        (name ^ ": found failure points") true
        (result.Mumak.Engine.failure_points > 5))
    clean_apps

(* --- seeded bugs through the full pipeline --- *)

let analyze_with_bug ?version ?(app = "btree") bug =
  Bugreg.with_enabled [ bug ] (fun () ->
      Mumak.Engine.analyze (target_for ?version app))

let has_kind result kind =
  List.exists
    (fun f -> f.Mumak.Report.kind = kind)
    (Mumak.Report.findings result.Mumak.Engine.report)

let test_fi_catches_atomicity_bug () =
  let result = analyze_with_bug ~app:"btree" "btree_insert_no_tx" in
  Alcotest.(check bool) "unrecoverable or crash reported" true
    (has_kind result Mumak.Report.Unrecoverable_state
    || has_kind result Mumak.Report.Recovery_crash)

let test_fi_catches_pmdk112_bug () =
  (* the tx-overflow bug needs large (grouped) transactions *)
  let result =
    Bugreg.with_enabled [ "pmdk112_tx_overflow_commit" ] (fun () ->
        Mumak.Engine.analyze
          (target_for ~version:Pmalloc.Version.V1_12 ~tx_mode:(Targets.Grouped 64) "btree"))
  in
  Alcotest.(check bool) "stale extension pointer caught" true
    (has_kind result Mumak.Report.Unrecoverable_state
    || has_kind result Mumak.Report.Recovery_crash)

let test_ta_catches_durability_bug () =
  let result = analyze_with_bug ~app:"hashmap_atomic" "hm_atomic_count_never_flushed" in
  Alcotest.(check bool) "durability bug reported" true
    (has_kind result Mumak.Report.Durability_bug)

let test_ta_catches_redundant_fence () =
  let result = analyze_with_bug ~app:"hashmap_atomic" "hm_atomic_redundant_fence" in
  Alcotest.(check bool) "redundant fence reported" true
    (has_kind result Mumak.Report.Redundant_fence)

let test_ta_catches_redundant_flush () =
  let result = analyze_with_bug ~app:"level_hash" "level_hash_redundant_flush" in
  Alcotest.(check bool) "redundant flush reported" true
    (has_kind result Mumak.Report.Redundant_flush)

let test_ta_catches_volatile_flush () =
  let result = analyze_with_bug ~app:"rbtree" "rbtree_flush_volatile" in
  let volatile_flush =
    List.exists
      (fun f ->
        f.Mumak.Report.kind = Mumak.Report.Redundant_flush
        && Testutil.Crash.contains f.Mumak.Report.detail "volatile")
      (Mumak.Report.findings result.Mumak.Engine.report)
  in
  Alcotest.(check bool) "volatile-address flush reported" true volatile_flush

let test_ta_warns_transient_data () =
  let result = analyze_with_bug ~app:"hashmap_tx" "hm_tx_transient_scratch" in
  Alcotest.(check bool) "transient-data warning" true
    (has_kind result Mumak.Report.Transient_data_warning)

let test_ta_warns_unordered_flushes () =
  (* the hashmap_atomic ordering bug is invisible to program-order fault
     injection but produces the fence-over-multiple-flushes warning *)
  let result =
    analyze_with_bug ~version:Pmalloc.Version.V1_6 ~app:"hashmap_atomic"
      "hm_atomic_link_before_persist"
  in
  Alcotest.(check bool) "no correctness bug (the known miss)" true
    (Mumak.Report.correctness_bugs result.Mumak.Engine.report = []);
  Alcotest.(check bool) "unordered-flushes warning" true
    (has_kind result Mumak.Report.Unordered_flushes_warning)

(* --- strategy equivalence and ablation --- *)

let test_replay_reexecute_equivalence () =
  let bug = "btree_insert_no_tx" in
  let run strategy =
    Bugreg.with_enabled [ bug ] (fun () ->
        Mumak.Engine.analyze
          ~config:{ Mumak.Config.default with strategy }
          (target_for "btree"))
  in
  let s = run Mumak.Config.Replay and r = run Mumak.Config.Reexecute in
  Alcotest.(check int) "same failure points" s.Mumak.Engine.failure_points
    r.Mumak.Engine.failure_points;
  Alcotest.(check int) "same injections" s.Mumak.Engine.injections
    r.Mumak.Engine.injections;
  let sigs x =
    List.map
      (fun f -> (f.Mumak.Report.kind, Option.map Pmtrace.Callstack.capture_to_string f.Mumak.Report.stack))
      (Mumak.Report.correctness_bugs x.Mumak.Engine.report)
    |> List.sort compare
  in
  Alcotest.(check bool) "same correctness findings" true (sigs s = sigs r);
  Alcotest.(check bool) "reexecute runs many executions" true
    (r.Mumak.Engine.executions > s.Mumak.Engine.executions)

(* What each preset costs in target executions. Every Replay preset costs
   one: it records the workload once and every phase reads that recording —
   static analysis and fix verification with its loads, everything else its
   load-free view. The faithful Reexecute preset pays the paper's cost: the
   tree-building run, one run per failure point and the stack-resolution
   run. *)
let test_executions_per_preset () =
  List.iter
    (fun (label, config, expected) ->
      let target =
        Targets.of_montage ~variant:`Lockfree ~workload:(wl ~ops:20 ~key_range:10 ()) ()
      in
      let r = Mumak.Engine.analyze ~config target in
      Alcotest.(check int) (label ^ ": executions") (expected r) r.Mumak.Engine.executions)
    [
      ("default", Mumak.Config.default, Fun.const 1);
      ("lint only", { Mumak.Config.default with Mumak.Config.lint = true }, Fun.const 1);
      ("linting", Mumak.Config.linting, Fun.const 1);
      ("optimizing", Mumak.Config.optimizing, Fun.const 1);
      ("static_analysis", Mumak.Config.static_analysis, Fun.const 1);
      ( "faithful",
        Mumak.Config.faithful,
        fun (r : Mumak.Engine.result) -> r.Mumak.Engine.failure_points + 2 );
    ]

let test_store_granularity_blowup () =
  let run granularity =
    Mumak.Engine.analyze
      ~config:{ Mumak.Config.default with granularity; report_warnings = false }
      (target_for "btree")
  in
  let pi = run Mumak.Config.Persistency_instruction in
  let st = run Mumak.Config.Store_level in
  Alcotest.(check bool)
    (Printf.sprintf "store-level has more failure points (%d vs %d)"
       st.Mumak.Engine.failure_points pi.Mumak.Engine.failure_points)
    true
    (st.Mumak.Engine.failure_points > pi.Mumak.Engine.failure_points)

let test_report_dedup_and_stacks () =
  let result = analyze_with_bug ~app:"hashmap_atomic" "hm_atomic_count_never_flushed" in
  let durability =
    List.filter
      (fun f -> f.Mumak.Report.kind = Mumak.Report.Durability_bug)
      (Mumak.Report.findings result.Mumak.Engine.report)
  in
  (* the same buggy code point fires on every insert: the report must
     collapse them to a handful of unique code paths, each with a stack *)
  Alcotest.(check bool) "few unique findings" true (List.length durability < 10);
  Alcotest.(check bool) "stacks attached" true
    (List.for_all (fun f -> f.Mumak.Report.stack <> None) durability)

let test_eadr_semantics () =
  (* Under eADR (section 4.3): unflushed stores are not durability bugs —
     the count_never_flushed "bug" vanishes — but atomicity bugs survive. *)
  let eadr_config = { Mumak.Config.default with Mumak.Config.eadr = true } in
  let r1 =
    Bugreg.with_enabled [ "hm_atomic_count_never_flushed" ] (fun () ->
        Mumak.Engine.analyze ~config:eadr_config
          (target_for ~version:Pmalloc.Version.V1_6 "hashmap_atomic"))
  in
  Alcotest.(check bool) "no durability bug under eADR" false
    (has_kind r1 Mumak.Report.Durability_bug);
  let r2 =
    Bugreg.with_enabled [ "btree_insert_no_tx" ] (fun () ->
        Mumak.Engine.analyze ~config:eadr_config (target_for "btree"))
  in
  Alcotest.(check bool) "atomicity bug still found under eADR" true
    (Mumak.Report.correctness_bugs r2.Mumak.Engine.report <> []);
  (* the eADR device keeps even unflushed stores across a power cut *)
  let d = Pmem.Device.create ~eadr:true ~size:4096 () in
  Pmem.Device.store_i64 d ~addr:128 42L;
  let img = Pmem.Device.crash d ~policy:Pmem.Device.Adr in
  Alcotest.(check bool) "caches survive" true
    (Int64.equal (Pmem.Image.read_i64 img ~addr:128) 42L)

let test_taxonomy_table_renders () =
  let s = Fmt.str "%a" Mumak.Taxonomy.pp_table1 () in
  Alcotest.(check bool) "mentions Mumak" true (Testutil.Crash.contains s "Mumak");
  Alcotest.(check bool) "9 tool rows" true
    (List.length (String.split_on_char '\n' s) >= 10)

let () =
  Alcotest.run "mumak"
    [
      ( "fp-tree",
        [
          Alcotest.test_case "insert/find" `Quick test_fp_tree_insert_find;
          Alcotest.test_case "discovery ordinals" `Quick test_fp_tree_discovery_ordinals;
          QCheck_alcotest.to_alcotest prop_fp_tree_uniqueness;
        ] );
      ( "trace-analysis-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ta_clean_persists;
            prop_ta_missing_fence_is_flagged;
            prop_ta_unflushed_store_is_transient_or_durability;
            prop_ta_eadr_silences_pattern1;
          ] );
      ( "clean",
        [ Alcotest.test_case "no correctness false positives" `Slow
            test_clean_no_correctness_bugs ] );
      ( "seeded-bugs",
        [
          Alcotest.test_case "FI: atomicity" `Slow test_fi_catches_atomicity_bug;
          Alcotest.test_case "FI: pmdk 1.12 tx overflow" `Slow test_fi_catches_pmdk112_bug;
          Alcotest.test_case "TA: durability" `Slow test_ta_catches_durability_bug;
          Alcotest.test_case "TA: redundant fence" `Slow test_ta_catches_redundant_fence;
          Alcotest.test_case "TA: redundant flush" `Slow test_ta_catches_redundant_flush;
          Alcotest.test_case "TA: volatile flush" `Slow test_ta_catches_volatile_flush;
          Alcotest.test_case "TA: transient data warning" `Slow test_ta_warns_transient_data;
          Alcotest.test_case "TA: unordered flushes warning" `Slow
            test_ta_warns_unordered_flushes;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "replay = reexecute" `Slow test_replay_reexecute_equivalence;
          Alcotest.test_case "executions per preset" `Slow test_executions_per_preset;
          Alcotest.test_case "store-level blowup" `Slow test_store_granularity_blowup;
          Alcotest.test_case "dedup + stacks" `Slow test_report_dedup_and_stacks;
          Alcotest.test_case "eADR semantics" `Slow test_eadr_semantics;
          Alcotest.test_case "taxonomy table" `Quick test_taxonomy_table_renders;
        ] );
    ]
