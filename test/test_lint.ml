(* Tests for the replay/lint/verify-fix subsystem (PR 4):
   - replay losslessness: replaying an unmodified recording reproduces the
     device counters, the normalized metadata, and the failure-point set
     byte-for-byte (also across trace serialization);
   - the replay differential: on seeded-bug targets, a report built by
     replaying the recorded trace offline equals the live j=1 engine
     report (Report.signature identity);
   - lint soundness on synthetic traces with known planted redundancies
     (100% detection, zero false positives on clean blocks);
   - verdicts: seeded missing-flush bugs earn at least one proven fix,
     clean targets earn no harmful ones. *)

let wl ?(ops = 250) ?(key_range = 60) () = Targets.standard_workload ~ops ~key_range ()

let target_for ?(workload = wl ()) ?version ?tx_mode name =
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
      Targets.of_app (module A) ~version ?tx_mode ~workload ()

let record_of (target : Mumak.Target.t) =
  Pmtrace.Replay.record ~pool_size:target.Mumak.Target.pool_size
    (fun ~device ~framer -> target.Mumak.Target.run ~device ~framer)

(* The seeded-bug matrix the differential and verdict tests sweep. *)
let seeded_matrix =
  [
    ("hashmap_atomic", "hm_atomic_count_never_flushed");
    ("hashmap_atomic", "hm_atomic_link_before_persist");
    ("btree", "btree_count_outside_tx");
    ("cceh", "cceh_dir_unflushed");
    ("fast_fair", "ff_shift_unflushed");
    ("level_hash", "level_hash_value_unflushed");
    ("wort", "wort_link_uninitialized_node");
    ("hashmap_tx", "hm_tx_head_no_snapshot");
  ]

(* --- replay losslessness ------------------------------------------- *)

let test_replay_lossless () =
  List.iter
    (fun name ->
      let target = target_for name in
      let recording = record_of target in
      let evs = Pmtrace.Replay.events recording in
      let device = Pmtrace.Replay.replay recording in
      Alcotest.(check bool)
        (name ^ ": replayed device counters equal the recorded run's")
        true
        (Pmtrace.Replay.stats_match recording (Pmem.Device.stats device));
      Alcotest.(check bool)
        (name ^ ": normalize of an unmodified recording is the identity")
        true
        (Pmtrace.Replay.normalize recording = evs);
      (* failure-point set, byte-for-byte, across serialization *)
      let round_tripped =
        let tr = Pmtrace.Trace.create () in
        List.iter (Pmtrace.Trace.add tr) evs;
        Pmtrace.Trace.to_list (Pmtrace.Trace.deserialize (Pmtrace.Trace.serialize tr))
      in
      Alcotest.(check bool)
        (name ^ ": events survive serialization byte-for-byte")
        true (round_tripped = evs);
      Alcotest.(check bool)
        (name ^ ": offline failure points identical across serialization")
        true
        (Mumak.Fault_injection.offline_points Mumak.Config.default evs
        = Mumak.Fault_injection.offline_points Mumak.Config.default round_tripped))
    [ "btree"; "hashmap_atomic" ]

(* --- the replay differential --------------------------------------- *)

(* A report built without re-running the target: trace analysis streamed
   from the recorded events, fault injection replayed offline (crash image
   at each failure point's first occurrence, classified by the same
   oracle). Signatures are sorted sets, so emission order is free. *)
let replayed_report config (target : Mumak.Target.t) =
  let report = Mumak.Report.create ~target:target.Mumak.Target.name in
  let recording = record_of target in
  let evs = Pmtrace.Replay.events recording in
  let ta = Mumak.Trace_analysis.create config in
  List.iter (fun e -> Mumak.Trace_analysis.feed ta e) evs;
  let raws = Mumak.Trace_analysis.finish ta in
  let stacks = Hashtbl.create 1024 in
  List.iter
    (fun (e : Pmtrace.Event.t) ->
      match e.Pmtrace.Event.stack with
      | Some c -> Hashtbl.replace stacks e.Pmtrace.Event.seq c
      | None -> ())
    evs;
  let want = Hashtbl.create 64 in
  List.iter
    (fun (_, pseq, capture) -> Hashtbl.replace want pseq capture)
    (Mumak.Fault_injection.offline_points config evs);
  ignore
    (Pmtrace.Replay.replay recording ~on_event:(fun device ~pseq _ ->
         match Hashtbl.find_opt want pseq with
         | None -> ()
         | Some capture -> (
             let img = Pmem.Device.crash device ~policy:Pmem.Device.Program_prefix in
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
             match
               Mumak.Oracle.classify target.Mumak.Target.recover
                 (Pmem.Device.of_image ~eadr:config.Mumak.Config.eadr img)
             with
             | Mumak.Oracle.Consistent -> ()
             | Mumak.Oracle.Unrecoverable msg -> add Mumak.Report.Unrecoverable_state msg
             | Mumak.Oracle.Crashed msg -> add Mumak.Report.Recovery_crash msg)));
  List.iter
    (fun (r : Mumak.Trace_analysis.raw) ->
      if (not (Mumak.Report.kind_is_warning r.Mumak.Trace_analysis.kind))
         || config.Mumak.Config.report_warnings
      then
        ignore
          (Mumak.Report.add report
             {
               Mumak.Report.kind = r.Mumak.Trace_analysis.kind;
               phase = Mumak.Report.Trace_analysis;
               stack = Hashtbl.find_opt stacks r.Mumak.Trace_analysis.seq;
               seq = Some r.Mumak.Trace_analysis.seq;
               detail = r.Mumak.Trace_analysis.detail;
               fix = None;
             }))
    raws;
  report

let test_replay_differential () =
  List.iter
    (fun (app, bug) ->
      Bugreg.with_enabled [ bug ] (fun () ->
          let config = Mumak.Config.default in
          let live = (Mumak.Engine.analyze ~config (target_for app)).Mumak.Engine.report in
          let replayed = replayed_report config (target_for app) in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: replayed report signature equals live j=1" app bug)
            true
            (Mumak.Report.equal live replayed)))
    seeded_matrix

(* --- lint soundness on planted synthetic traces -------------------- *)

(* Disjoint slot ranges per pattern so plants cannot interact; every block
   ends with a fence so epochs never straddle blocks. Metadata (dirty
   bits, pending counts) is device-recomputed by normalize_events, not
   hand-crafted. *)
type plant = Clean | Dup_flush | Unnecessary_flush | Nt_misuse | Empty_fence

let block_of (plant, i) =
  let store slot = Pmem.Op.Store { addr = slot * 64; size = 8; nt = false } in
  let store_nt slot = Pmem.Op.Store { addr = slot * 64; size = 8; nt = true } in
  let clwb slot =
    Pmem.Op.Flush { kind = Pmem.Op.Clwb; line = slot; dirty = true; volatile = false }
  in
  let fence = Pmem.Op.Fence { kind = Pmem.Op.Sfence; pending_flushes = 0; pending_nt = 0 } in
  let slot base = base + (i mod 10) in
  match plant with
  | Clean ->
      let s = slot 0 in
      [ store s; clwb s; fence ]
  | Dup_flush ->
      (* the first capture is re-captured before any fence drains it *)
      let s = slot 10 in
      [ store s; clwb s; store s; clwb s; fence ]
  | Unnecessary_flush ->
      (* flush of a never-stored line, next to one real persist *)
      let s = slot 20 and real = slot 30 in
      [ store real; clwb real; clwb s; fence ]
  | Nt_misuse ->
      let s = slot 40 in
      [ store_nt s; clwb s; fence ]
  | Empty_fence -> [ fence ]

let lint_of_blocks blocks =
  let ops = List.concat_map block_of blocks in
  let events =
    List.mapi (fun i op -> { Pmtrace.Event.seq = i + 1; op; stack = None }) ops
  in
  Analysis.Lint.analyze
    (Pmtrace.Replay.normalize_events ~pool_size:(1 lsl 16) events)

let count_kind (l : Analysis.Lint.t) kind =
  List.length
    (List.filter (fun (f : Analysis.Lint.finding) -> f.Analysis.Lint.l_kind = kind) l.Analysis.Lint.findings)

let plant_gen =
  QCheck.make
    ~print:(fun l -> string_of_int (List.length l))
    QCheck.Gen.(
      list_size (int_range 1 40)
        (pair (oneofl [ Clean; Dup_flush; Unnecessary_flush; Nt_misuse; Empty_fence ]) (int_bound 9)))

let prop_lint_plants =
  QCheck.Test.make ~name:"lint finds every planted redundancy and nothing else" ~count:200
    plant_gen
    (fun blocks ->
      let planted p = List.length (List.filter (fun (q, _) -> q = p) blocks) in
      let l = lint_of_blocks blocks in
      count_kind l Analysis.Lint.Duplicate_flush = planted Dup_flush
      && count_kind l Analysis.Lint.Unnecessary_flush = planted Unnecessary_flush
      && count_kind l Analysis.Lint.Nt_flush_misuse = planted Nt_misuse
      && count_kind l Analysis.Lint.Redundant_fence = planted Empty_fence
      && count_kind l Analysis.Lint.Missing_flush = 0
      && l.Analysis.Lint.redundant_flushes
         = planted Dup_flush + planted Unnecessary_flush + planted Nt_misuse)

let prop_lint_clean_silent =
  QCheck.Test.make ~name:"lint is silent on clean persist blocks" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 0 9))
    (fun slots ->
      let l = lint_of_blocks (List.map (fun s -> (Clean, s)) slots) in
      l.Analysis.Lint.findings = [])

(* --- cross-detector agreement ---------------------------------------- *)

(* Random op streams — stores (cached and non-temporal), the three flushes
   (some of volatile addresses), sfence, mfence and RMW fences — whose
   metadata the device recomputes. *)
let op_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 4,
        map3
          (fun slot size nt -> Pmem.Op.Store { addr = slot * 8; size; nt })
          (int_bound 40) (oneofl [ 8; 16; 64 ])
          (frequency [ (3, return false); (1, return true) ]) );
      ( 4,
        map3
          (fun kind line volatile -> Pmem.Op.Flush { kind; line; dirty = false; volatile })
          (oneofl [ Pmem.Op.Clflush; Pmem.Op.Clflushopt; Pmem.Op.Clwb ])
          (int_bound 6)
          (frequency [ (5, return false); (1, return true) ]) );
      ( 2,
        map
          (fun kind -> Pmem.Op.Fence { kind; pending_flushes = 0; pending_nt = 0 })
          (oneofl [ Pmem.Op.Sfence; Pmem.Op.Mfence; Pmem.Op.Rmw ]) );
    ]

let prop_detectors_agree =
  QCheck.Test.make ~name:"trace analysis, lint and static agree on flushes and fences"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map Pmem.Op.to_string ops))
       QCheck.Gen.(list_size (int_range 1 80) op_gen))
    (fun ops ->
      let events =
        Pmtrace.Replay.normalize_events ~pool_size:(1 lsl 16)
          (List.mapi (fun i op -> { Pmtrace.Event.seq = i + 1; op; stack = None }) ops)
      in
      let config = Mumak.Config.default in
      let ta = Mumak.Trace_analysis.create config in
      List.iter (Mumak.Trace_analysis.feed ta) events;
      let raws = Mumak.Trace_analysis.finish ta in
      let ta_seqs kind =
        List.filter_map
          (fun (r : Mumak.Trace_analysis.raw) ->
            if r.Mumak.Trace_analysis.kind = kind then Some r.Mumak.Trace_analysis.seq else None)
          raws
      in
      let lint_flushes =
        List.filter_map
          (fun (f : Analysis.Lint.finding) ->
            match f.Analysis.Lint.l_kind with
            | Analysis.Lint.Unnecessary_flush | Analysis.Lint.Nt_flush_misuse ->
                Some f.Analysis.Lint.l_pseq
            | _ -> None)
          (Analysis.Lint.analyze events).Analysis.Lint.findings
      in
      let static = Analysis.Static.analyze ~support:config.Mumak.Config.invariant_support
          ~confidence:config.Mumak.Config.invariant_confidence ~eadr:false events
      in
      let static_seqs kind =
        List.filter_map
          (fun (f : Analysis.Static.finding) ->
            if f.Analysis.Static.kind = kind then Some f.Analysis.Static.seq else None)
          static.Analysis.Static.findings
      in
      let empty_fences =
        List.filter_map
          (fun (e : Pmtrace.Event.t) ->
            match e.Pmtrace.Event.op with
            | Pmem.Op.Fence { pending_flushes = 0; pending_nt = 0; _ } -> Some e.Pmtrace.Event.seq
            | _ -> None)
          events
      in
      let sorted = List.sort compare in
      let redundant = sorted (ta_seqs Mumak.Report.Redundant_flush) in
      redundant = sorted lint_flushes
      && redundant = sorted (static_seqs Analysis.Static.Redundant_flush)
      && sorted (ta_seqs Mumak.Report.Redundant_fence) = empty_fences
      && sorted (static_seqs Analysis.Static.Redundant_fence) = empty_fences)

(* --- rewrite structural properties --------------------------------- *)

let prop_rewrite_renumber =
  QCheck.Test.make ~name:"rewrite renumbers seqs consecutively from 1" ~count:100
    plant_gen
    (fun blocks ->
      let ops = List.concat_map block_of blocks in
      let events =
        List.mapi (fun i op -> { Pmtrace.Event.seq = i + 1; op; stack = None }) ops
      in
      (* insert a flush+fence after the first event *)
      let edits =
        [
          Pmtrace.Replay.Insert_flush_after { pseq = 1; line = 0 };
          Pmtrace.Replay.Insert_fence_after { pseq = 1 };
        ]
      in
      let rewritten = Pmtrace.Replay.rewrite_events events edits in
      List.length rewritten = List.length events + 2
      && List.for_all2
           (fun (e : Pmtrace.Event.t) i -> e.Pmtrace.Event.seq = i)
           rewritten
           (List.init (List.length rewritten) (fun i -> i + 1)))

(* --- fix verdicts --------------------------------------------------- *)

let missing_flush_proven (v : Analysis.Verify_fix.t) =
  List.exists
    (fun (o : Analysis.Verify_fix.outcome) ->
      o.Analysis.Verify_fix.o_verdict = Analysis.Verify_fix.Proven
      && String.equal o.Analysis.Verify_fix.o_candidate.Analysis.Verify_fix.c_kind
           "missing flush")
    v.Analysis.Verify_fix.outcomes

(* Verdict tests run the default-size workload: at toy sizes the hashmap
   is small enough that the seeded count field shares a cache line with a
   bucket pointer, and the inserted flush legitimately persists that
   pointer ahead of its pointee (a true harmful verdict, not the proven
   one this asserts). *)
let verdict_wl () = wl ~ops:600 ~key_range:200 ()

let test_seeded_missing_flush_proven () =
  List.iter
    (fun (app, bug) ->
      Bugreg.with_enabled [ bug ] (fun () ->
          let r =
            Mumak.Engine.analyze ~config:Mumak.Config.linting
              (target_for ~workload:(verdict_wl ()) app)
          in
          match r.Mumak.Engine.fix_verdicts with
          | None -> Alcotest.failf "%s/%s: no fix verdicts" app bug
          | Some v ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s: the seeded missing flush earns a proven fix" app bug)
                true (missing_flush_proven v)))
    [
      ("hashmap_atomic", "hm_atomic_count_never_flushed");
      ("level_hash", "level_hash_value_unflushed");
    ]

let test_clean_targets_no_harm () =
  List.iter
    (fun app ->
      let r =
        Mumak.Engine.analyze ~config:Mumak.Config.linting
          (target_for ~workload:(verdict_wl ()) app)
      in
      match r.Mumak.Engine.fix_verdicts with
      | None -> Alcotest.failf "%s: no fix verdicts" app
      | Some v ->
          Alcotest.(check int)
            (Printf.sprintf "%s clean: no fix is harmful" app)
            0 v.Analysis.Verify_fix.harmful)
    [ "hashmap_atomic"; "btree"; "wort" ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "lint"
    [
      ("replay", [ Alcotest.test_case "lossless" `Quick test_replay_lossless ]);
      ( "differential",
        [ Alcotest.test_case "replay equals live j=1" `Slow test_replay_differential ] );
      ( "lint",
        [
          qt prop_lint_plants;
          qt prop_lint_clean_silent;
          qt prop_rewrite_renumber;
          qt prop_detectors_agree;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "seeded missing flush proven" `Slow test_seeded_missing_flush_proven;
          Alcotest.test_case "clean targets unharmed" `Slow test_clean_targets_no_harm;
        ] );
    ]
