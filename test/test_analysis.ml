(* Tests for the offline static analyzer (lib/analysis): dependency-graph
   structural properties over generated and recorded traces, the
   static-findings-vs-ground-truth differential and the analyzer's eADR
   contract. *)

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

(* One fully instrumented recording, as the engine's recorder makes it:
   stacks on every event, optional load tracing. *)
let record ?(loads = false) (target : Mumak.Target.t) =
  Pmtrace.Replay.events
    (Pmtrace.Replay.record ~loads ~pool_size:target.Mumak.Target.pool_size
       (fun ~device ~framer -> target.Mumak.Target.run ~device ~framer))

(* --- dependency-graph structural properties --- *)

let events_of_ops ops =
  List.mapi (fun i op -> { Pmtrace.Event.seq = i + 1; op; stack = None }) ops

(* a well-formed persist of slot [s]: store, flush its line, fence *)
let persist_ops slot =
  [
    Pmem.Op.Store { addr = slot * 8; size = 8; nt = false };
    Pmem.Op.Flush { kind = Pmem.Op.Clwb; line = slot * 8 / 64; dirty = true; volatile = false };
    Pmem.Op.Fence { kind = Pmem.Op.Sfence; pending_flushes = 1; pending_nt = 0 };
  ]

(* a messier block: lone stores, loads, clean flushes, empty fences *)
let block_ops (choice, slot) =
  match choice mod 5 with
  | 0 -> persist_ops slot
  | 1 -> [ Pmem.Op.Store { addr = slot * 8; size = 8; nt = false } ]
  | 2 -> [ Pmem.Op.Load { addr = slot * 8; size = 8 } ]
  | 3 ->
      [ Pmem.Op.Flush { kind = Pmem.Op.Clwb; line = slot * 8 / 64; dirty = false; volatile = false } ]
  | _ -> [ Pmem.Op.Fence { kind = Pmem.Op.Sfence; pending_flushes = 0; pending_nt = 0 } ]

let prop_graph_check_synthetic =
  QCheck.Test.make ~name:"generated traces build structurally valid graphs" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 60) (pair (int_range 0 20) (int_range 0 50)))
    (fun blocks ->
      let g = Analysis.Dep_graph.build (events_of_ops (List.concat_map block_ops blocks)) in
      Analysis.Dep_graph.check g = [])

let test_graph_check_recorded () =
  List.iter
    (fun name ->
      let g = Analysis.Dep_graph.build (record ~loads:true (target_for name)) in
      Alcotest.(check (list string))
        (name ^ " recorded-trace graph passes structural checks")
        []
        (Analysis.Dep_graph.check g))
    [ "btree"; "hashmap_atomic" ]

let test_graph_epochs_monotone () =
  let g = Analysis.Dep_graph.build (record ~loads:true (target_for "btree")) in
  let groups = Analysis.Dep_graph.epoch_groups g in
  let epochs = List.map fst groups in
  Alcotest.(check (list int)) "epoch groups ascend" (List.sort compare epochs) epochs;
  Alcotest.(check bool) "a real workload persists something" true (Array.length g.Analysis.Dep_graph.nodes > 0)

(* --- trace-analysis raw findings are unique per (kind, seq) --- *)

let prop_ta_findings_unique =
  QCheck.Test.make ~name:"trace-analysis raw findings are deduplicated by (kind, seq)" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 60) (pair (int_range 0 20) (int_range 0 50)))
    (fun blocks ->
      let ta = Mumak.Trace_analysis.create Mumak.Config.default in
      List.iter
        (fun e -> Mumak.Trace_analysis.feed ta e)
        (events_of_ops (List.concat_map block_ops blocks));
      let raw = Mumak.Trace_analysis.finish ta in
      let keys =
        List.map (fun (r : Mumak.Trace_analysis.raw) -> (r.Mumak.Trace_analysis.kind, r.Mumak.Trace_analysis.seq)) raw
      in
      List.length keys = List.length (List.sort_uniq compare keys))

(* --- static findings vs ground truth --- *)

let static_config =
  (* smaller mining effort than the default profile: the tests re-analyze
     several targets and only need the subject run + one witness *)
  { Mumak.Config.static_analysis with Mumak.Config.invariant_runs = 2 }

let static_findings target =
  let r = Mumak.Engine.analyze ~config:static_config target in
  match r.Mumak.Engine.static with
  | None -> Alcotest.fail "static config produced no static result"
  | Some s -> (r, s.Analysis.Static.findings)

let test_static_clean_no_durability () =
  List.iter
    (fun name ->
      let _, findings = static_findings (target_for name) in
      let durability =
        List.filter (fun (f : Analysis.Static.finding) -> f.Analysis.Static.kind = Analysis.Static.Durability) findings
      in
      Alcotest.(check int)
        (name ^ ": clean build has no static durability findings")
        0 (List.length durability))
    [ "btree"; "hashmap_atomic" ]

let check_seeded_finding ~app ~bug ~kind () =
  Bugreg.with_enabled [ bug ] (fun () ->
      let _, findings = static_findings (target_for app) in
      match
        List.find_opt (fun (f : Analysis.Static.finding) -> f.Analysis.Static.kind = kind) findings
      with
      | None -> Alcotest.failf "%s: no static %s finding" bug (Analysis.Static.kind_to_string kind)
      | Some f -> (
          match f.Analysis.Static.fix with
          | None -> Alcotest.failf "%s: finding carries no fix suggestion" bug
          | Some fx ->
              Alcotest.(check bool)
                (bug ^ ": fix is anchored at a frame + ordinal")
                true
                (fx.Analysis.Fix.stack <> None)))

let test_static_seeded_durability () =
  check_seeded_finding ~app:"hashmap_atomic" ~bug:"hm_atomic_count_never_flushed"
    ~kind:Analysis.Static.Durability ()

let test_static_seeded_ordering () =
  check_seeded_finding ~app:"hashmap_atomic" ~bug:"hm_atomic_link_before_persist"
    ~kind:Analysis.Static.Ordering ()

let test_static_same_correctness_bugs () =
  (* the static phase must not change what fault injection + trace analysis
     prove: correctness bugs of the combined report are identical with and
     without it (static-only additions are warnings or fix-annotated
     duplicates of the same findings) *)
  List.iter
    (fun bug ->
      Bugreg.with_enabled [ bug ] (fun () ->
          let base = Mumak.Engine.analyze ~config:Mumak.Config.faithful (target_for "btree") in
          let stat = Mumak.Engine.analyze ~config:static_config (target_for "btree") in
          let kinds r =
            List.sort compare
              (List.map (fun (f : Mumak.Report.finding) -> Mumak.Report.kind_to_string f.Mumak.Report.kind)
                 (Mumak.Report.bugs r.Mumak.Engine.report))
          in
          Alcotest.(check (list string))
            (bug ^ ": correctness bugs unchanged by the static phase")
            (kinds base) (kinds stat)))
    [ "btree_insert_no_tx"; "btree_count_outside_tx" ]

(* --- redundancy findings: one per code site --- *)

let test_static_redundancy_per_site () =
  let events = record ~loads:true (target_for "btree") in
  (* the earliest dynamic instance of every redundant flush and fence site,
     read straight off the recorded events *)
  let earliest = Hashtbl.create 64 and pseq = ref 0 in
  List.iter
    (fun (e : Pmtrace.Event.t) ->
      let note kind =
        match e.Pmtrace.Event.stack with
        | Some c ->
            let key = (Analysis.Static.kind_to_string kind, Pmtrace.Callstack.capture_to_string c) in
            if not (Hashtbl.mem earliest key) then Hashtbl.replace earliest key !pseq
        | None -> Alcotest.fail "recorded event without a stack"
      in
      match e.Pmtrace.Event.op with
      | Pmem.Op.Load _ -> ()
      | op -> (
          incr pseq;
          match op with
          | Pmem.Op.Flush { dirty = false; _ } | Pmem.Op.Flush { volatile = true; _ } ->
              note Analysis.Static.Redundant_flush
          | Pmem.Op.Fence { pending_flushes = 0; pending_nt = 0; _ } ->
              note Analysis.Static.Redundant_fence
          | _ -> ()))
    events;
  let got =
    (Analysis.Static.analyze ~runs:static_config.Mumak.Config.invariant_runs
       ~support:static_config.Mumak.Config.invariant_support
       ~confidence:static_config.Mumak.Config.invariant_confidence ~eadr:false events)
      .Analysis.Static.findings
    |> List.filter_map (fun (f : Analysis.Static.finding) ->
           match (f.Analysis.Static.kind, f.Analysis.Static.stack) with
           | (Analysis.Static.Redundant_flush | Analysis.Static.Redundant_fence), Some c ->
               Some
                 ( ( Analysis.Static.kind_to_string f.Analysis.Static.kind,
                     Pmtrace.Callstack.capture_to_string c ),
                   f.Analysis.Static.seq )
           | _ -> None)
    |> List.sort compare
  in
  let want = List.sort compare (Hashtbl.fold (fun k p acc -> (k, p) :: acc) earliest []) in
  Alcotest.(check bool) "btree has redundant flush or fence sites" true (want <> []);
  Alcotest.(check (list (pair (pair string string) int)))
    "one redundancy finding per (kind, site), at its earliest instance" want got

(* --- eADR: only the durability family is suppressed --- *)

let test_static_eadr_drops_durability () =
  (* one durability and one ordering bug, so both halves of the contract
     have something to check; the same recording feeds both analyses *)
  Bugreg.with_enabled [ "hm_atomic_count_never_flushed"; "hm_atomic_link_before_persist" ]
    (fun () ->
      let events = record ~loads:true (target_for "hashmap_atomic") in
      let findings eadr =
        (Analysis.Static.analyze ~runs:static_config.Mumak.Config.invariant_runs
           ~support:static_config.Mumak.Config.invariant_support
           ~confidence:static_config.Mumak.Config.invariant_confidence ~eadr events)
          .Analysis.Static.findings
      in
      let durability (f : Analysis.Static.finding) =
        match f.Analysis.Static.kind with
        | Analysis.Static.Durability | Analysis.Static.Transient -> true
        | _ -> false
      in
      let show = List.map (Fmt.to_to_string Analysis.Static.pp_finding) in
      let adr, rest = List.partition durability (findings false) in
      let eadr = findings true in
      Alcotest.(check bool) "ADR: durability findings present" true (adr <> []);
      Alcotest.(check bool) "ADR: other findings present" true (rest <> []);
      Alcotest.(check (list string)) "eADR: exactly the non-durability findings" (show rest)
        (show eadr))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "analysis"
    [
      ( "dep_graph",
        [
          qt prop_graph_check_synthetic;
          Alcotest.test_case "recorded traces pass structural checks" `Quick
            test_graph_check_recorded;
          Alcotest.test_case "epoch groups are monotone" `Quick test_graph_epochs_monotone;
        ] );
      ("trace_analysis", [ qt prop_ta_findings_unique ]);
      ( "static_differential",
        [
          Alcotest.test_case "clean builds: no static durability findings" `Quick
            test_static_clean_no_durability;
          Alcotest.test_case "seeded durability bug found with anchored fix" `Quick
            test_static_seeded_durability;
          Alcotest.test_case "seeded ordering bug found with anchored fix" `Quick
            test_static_seeded_ordering;
          Alcotest.test_case "correctness bugs unchanged by the static phase" `Quick
            test_static_same_correctness_bugs;
          Alcotest.test_case "redundancy findings one per site" `Quick
            test_static_redundancy_per_site;
        ] );
      ( "static_eadr_semantics",
        [
          Alcotest.test_case "durability family suppressed, nothing else moves" `Quick
            test_static_eadr_drops_durability;
        ] );
    ]
