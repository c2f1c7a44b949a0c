(* Tests for the telemetry subsystem: the collector's structural guarantees
   (qcheck properties over span nesting, histogram and counter merging),
   the exporters' schemas (JSONL + Chrome trace, including the validators'
   rejection paths), the engine integration (phase spans, worker tracks,
   pipeline counters), and the inertness contract — telemetry on vs off is
   byte-identical on the seeded-bug differential. *)

module J = Telemetry.Json
module C = Telemetry.Collector
module H = Telemetry.Histogram

(* The collector is global state; every test that turns it on clears any
   leftovers first and guarantees it is off afterwards. *)
let with_collector f =
  C.enable ();
  ignore (C.drain ());
  Fun.protect ~finally:C.disable f

let app name =
  match Pmapps.Registry.find name with
  | Some m -> m
  | None -> Alcotest.failf "unknown app %s" name

let wl ?(ops = 60) () = Workload.standard ~ops ~key_range:25 ~seed:42L

let btree_target () =
  Targets.of_app (app "btree") ~version:Pmalloc.Version.V1_12 ~workload:(wl ()) ()

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock () =
  let t0 = Telemetry.Clock.now_ns () in
  let last = ref t0 in
  for _ = 1 to 1000 do
    let t = Telemetry.Clock.now_ns () in
    Alcotest.(check bool) "clock never goes backwards" true (t >= !last);
    last := t
  done;
  Alcotest.(check bool) "elapsed_s is non-negative" true
    (Telemetry.Clock.elapsed_s t0 !last >= 0.);
  (* reversed arguments clamp instead of going negative *)
  Alcotest.(check (float 0.)) "elapsed_s clamps at zero" 0.
    (Telemetry.Clock.elapsed_s !last (!last - 5));
  Alcotest.(check string) "clock source matches is_monotonic"
    (if Telemetry.Clock.is_monotonic then "monotonic" else "wall")
    Telemetry.Clock.source

let test_metrics_nonnegative () =
  let (), m =
    Mumak.Metrics.measure (fun () ->
        ignore (Sys.opaque_identity (List.init 1000 string_of_int)))
  in
  Alcotest.(check bool) "wall >= 0" true (m.Mumak.Metrics.wall_seconds >= 0.);
  Alcotest.(check bool) "cpu >= 0" true (m.Mumak.Metrics.cpu_seconds >= 0.);
  Alcotest.(check bool) "alloc >= 0" true (m.Mumak.Metrics.allocated_bytes >= 0.);
  Alcotest.(check bool) "heap growth >= 0" true (m.Mumak.Metrics.heap_growth_words >= 0);
  (* a section of known size: 1000 cons cells (3 words each) in the minor
     heap plus a 1001-word array allocated directly in the major heap *)
  let (), known =
    Mumak.Metrics.measure (fun () ->
        ignore (Sys.opaque_identity (List.init 1000 Fun.id));
        ignore (Sys.opaque_identity (Array.make 1000 0)))
  in
  let words = known.Mumak.Metrics.allocated_bytes /. float_of_int (Sys.word_size / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "a 4001-word section reads %.0f words" words)
    true
    (words >= 4001. && words <= 4001. +. 32.);
  match Mumak.Metrics.to_json m with
  | J.Assoc fields ->
      Alcotest.(check (list string)) "to_json fields"
        [ "wall_seconds"; "cpu_seconds"; "cpu_load"; "allocated_bytes";
          "heap_growth_words" ]
        (List.map fst fields)
  | _ -> Alcotest.fail "Metrics.to_json is not an object"

(* ------------------------------------------------------------------ *)
(* JSON encoder/parser round trip                                      *)
(* ------------------------------------------------------------------ *)

(* Floats restricted to odd multiples of 1/8: exactly representable with a
   short decimal form, so the %.12g rendering parses back to the same
   value and never collapses to an integer. *)
let gen_json =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) (int_range (-1_000_000) 1_000_000);
        map
          (fun n -> J.Float (float_of_int ((2 * n) + 1) /. 8.))
          (int_range (-1000) 1000);
        map (fun s -> J.String s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, map (fun l -> J.List l) (list_size (int_range 0 4) (node (depth - 1))));
          ( 1,
            map
              (fun kvs -> J.Assoc kvs)
              (list_size (int_range 0 4)
                 (pair (string_size ~gen:printable (int_range 0 8)) (node (depth - 1))))
          );
        ]
  in
  node 3

let json_roundtrip =
  QCheck.Test.make ~name:"Json.to_string/of_string round-trips" ~count:500
    (QCheck.make ~print:J.to_string gen_json) (fun j ->
      match J.of_string (J.to_string j) with
      | Ok j' -> j' = j
      | Error msg -> QCheck.Test.fail_reportf "parse error: %s" msg)

(* ------------------------------------------------------------------ *)
(* Histogram merge algebra                                             *)
(* ------------------------------------------------------------------ *)

let hist_of samples =
  let h = H.create () in
  List.iter (H.observe h) samples;
  h

let samples_gen = QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (int_range 0 1_000_000))

let hist_merge_is_concat =
  QCheck.Test.make ~name:"histogram merge = observing the concatenation" ~count:300
    (QCheck.pair samples_gen samples_gen) (fun (a, b) ->
      H.equal (H.merge (hist_of a) (hist_of b)) (hist_of (a @ b)))

let hist_merge_commutative =
  QCheck.Test.make ~name:"histogram merge is commutative" ~count:300
    (QCheck.pair samples_gen samples_gen) (fun (a, b) ->
      H.equal (H.merge (hist_of a) (hist_of b)) (H.merge (hist_of b) (hist_of a)))

let hist_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative" ~count:300
    (QCheck.triple samples_gen samples_gen samples_gen) (fun (a, b, c) ->
      H.equal
        (H.merge (H.merge (hist_of a) (hist_of b)) (hist_of c))
        (H.merge (hist_of a) (H.merge (hist_of b) (hist_of c))))

let hist_quantile_bounded =
  QCheck.Test.make ~name:"histogram quantiles stay within [min, max]" ~count:300
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 1 40) (int_range 0 1_000_000))
        (float_range 0. 1.))
    (fun (samples, q) ->
      let h = hist_of samples in
      let v = H.quantile h q in
      let lo = List.fold_left min max_int samples
      and hi = List.fold_left max 0 samples in
      lo <= v && v <= hi)

(* ------------------------------------------------------------------ *)
(* Collector: span nesting, counter merging across domains             *)
(* ------------------------------------------------------------------ *)

(* Interpret an int list as a LIFO begin/end program (the discipline
   [Collector.span] guarantees): even = open a nested span, odd = close
   the innermost one; everything still open closes at the end. *)
let run_span_program program =
  let opens = ref 0 in
  let stack = ref [] in
  List.iter
    (fun n ->
      if n mod 2 = 0 then begin
        incr opens;
        stack := C.begin_span ~cat:"test" (Printf.sprintf "s%d" !opens) :: !stack
      end
      else
        match !stack with
        | [] -> ()
        | h :: rest ->
            C.end_span h;
            stack := rest)
    program;
  List.iter C.end_span !stack;
  !opens

let spans_well_formed =
  QCheck.Test.make ~name:"collector span dumps are well-formed (3 domains)" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 0 30) (int_range 0 9))
    (fun program ->
      with_collector (fun () ->
          let main_opens = run_span_program program in
          let workers =
            List.init 2 (fun _ -> Domain.spawn (fun () -> run_span_program program))
          in
          let worker_opens = List.map Domain.join workers in
          let dump = C.drain () in
          let expected = List.fold_left ( + ) main_opens worker_opens in
          match Telemetry.Span.well_formed dump.C.spans with
          | Error msg -> QCheck.Test.fail_reportf "ill-formed dump: %s" msg
          | Ok () ->
              List.length dump.C.spans = expected
              || QCheck.Test.fail_reportf "expected %d spans, dumped %d" expected
                   (List.length dump.C.spans)))

let counters_sum_across_domains =
  QCheck.Test.make ~name:"counter merge across domains = sum" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 1 5) (int_range 0 1000))
    (fun increments ->
      with_collector (fun () ->
          let workers =
            List.map
              (fun n -> Domain.spawn (fun () -> C.count "test.counter" n))
              increments
          in
          List.iter Domain.join workers;
          C.count "test.counter" 7;
          let dump = C.drain () in
          List.assoc_opt "test.counter" dump.C.counters
          = Some (List.fold_left ( + ) 7 increments)))

let test_disabled_collector_records_nothing () =
  C.disable ();
  ignore (C.span "ghost" (fun () -> ()));
  C.count "ghost" 1;
  C.observe "ghost" 5;
  with_collector (fun () ->
      let dump = C.drain () in
      Alcotest.(check int) "no spans leak from the disabled period" 0
        (List.length dump.C.spans);
      Alcotest.(check bool) "no counters leak" true (dump.C.counters = []);
      Alcotest.(check bool) "no histograms leak" true (dump.C.histograms = []))

let test_open_spans_closed_at_drain () =
  with_collector (fun () ->
      let h = C.begin_span "left-open" in
      let dump = C.drain () in
      Alcotest.(check int) "drain closed the open span" 1 (List.length dump.C.spans);
      (match Telemetry.Span.well_formed dump.C.spans with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      (* ending after the drain swept it up is a harmless no-op *)
      C.end_span h;
      Alcotest.(check int) "stale end_span records nothing" 0
        (List.length (C.drain ()).C.spans))

(* ------------------------------------------------------------------ *)
(* Exporters: schema round-trips and validator rejections              *)
(* ------------------------------------------------------------------ *)

let synthetic_dump () =
  with_collector (fun () ->
      C.span ~cat:"phase" "outer" (fun () ->
          C.span ~cat:"inject" ~hist:"lat_ns" "inner" (fun () -> ()));
      C.count "events" 42;
      C.observe "lat_ns" 1500;
      C.drain ())

let test_jsonl_schema () =
  let dump = synthetic_dump () in
  let doc = Telemetry.Jsonl.to_string dump in
  (match Telemetry.Jsonl.validate_string doc with
  | Ok n ->
      (* 2 spans + 1 counter + 1 histogram *)
      Alcotest.(check int) "record count" 4 n
  | Error msg -> Alcotest.failf "fresh JSONL rejected: %s" msg);
  let first = List.hd (String.split_on_char '\n' doc) in
  match J.of_string first with
  | Error msg -> Alcotest.failf "header does not parse: %s" msg
  | Ok h ->
      Alcotest.(check (option string)) "header schema" (Some "mumak.telemetry")
        (Option.bind (J.member "schema" h) J.to_string_opt);
      Alcotest.(check (option int)) "header version" (Some 1)
        (Option.bind (J.member "version" h) J.to_int_opt)

let expect_invalid name doc =
  match Telemetry.Jsonl.validate_string doc with
  | Ok _ -> Alcotest.failf "%s: validator accepted malformed input" name
  | Error _ -> ()

let test_jsonl_validator_rejections () =
  expect_invalid "empty" "";
  expect_invalid "no header" {|{"type":"counter","name":"x","value":1}|};
  expect_invalid "wrong schema"
    {|{"type":"header","schema":"other.schema","version":1}|};
  expect_invalid "wrong version" {|{"type":"header","schema":"mumak.telemetry","version":99}|};
  expect_invalid "garbage line"
    ({|{"type":"header","schema":"mumak.telemetry","version":1}|} ^ "\nnot json\n");
  expect_invalid "span missing dur_ns"
    ({|{"type":"header","schema":"mumak.telemetry","version":1}|}
    ^ "\n"
    ^ {|{"type":"span","id":1,"parent":null,"track":0,"name":"x","cat":"","ts_ns":0}|});
  expect_invalid "unknown record type"
    ({|{"type":"header","schema":"mumak.telemetry","version":1}|} ^ "\n"
    ^ {|{"type":"mystery"}|})

let test_chrome_trace_schema () =
  let dump = synthetic_dump () in
  let json = Telemetry.Chrome_trace.to_json dump in
  (match Telemetry.Chrome_trace.validate json with
  | Ok n ->
      (* 2 spans + process_name + one thread_name *)
      Alcotest.(check int) "event count" 4 n
  | Error msg -> Alcotest.failf "fresh trace rejected: %s" msg);
  (* the rendered string parses back and still validates *)
  (match J.of_string (Telemetry.Chrome_trace.to_string dump) with
  | Ok reparsed -> (
      match Telemetry.Chrome_trace.validate reparsed with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "reparsed trace rejected: %s" msg)
  | Error msg -> Alcotest.failf "trace string does not parse: %s" msg);
  (* rejection paths *)
  (match Telemetry.Chrome_trace.validate (J.Assoc []) with
  | Ok _ -> Alcotest.fail "accepted object without traceEvents"
  | Error _ -> ());
  match
    Telemetry.Chrome_trace.validate
      (J.Assoc [ ("traceEvents", J.List [ J.Assoc [ ("name", J.String "x") ] ]) ])
  with
  | Ok _ -> Alcotest.fail "accepted event without ph/ts/pid/tid"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Engine integration: phase spans, worker tracks, counters            *)
(* ------------------------------------------------------------------ *)

let test_engine_dump () =
  with_collector (fun () ->
      let config = { Mumak.Config.faithful with Mumak.Config.jobs = 4 } in
      let r = Mumak.Engine.analyze ~config (btree_target ()) in
      let dump = C.drain () in
      (match Telemetry.Span.well_formed dump.C.spans with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "engine dump ill-formed: %s" msg);
      let main_names =
        List.filter_map
          (fun (s : Telemetry.Span.t) ->
            if s.Telemetry.Span.track = dump.C.dump_main_track then
              Some s.Telemetry.Span.name
            else None)
          dump.C.spans
      in
      List.iter
        (fun phase ->
          Alcotest.(check bool)
            (Printf.sprintf "main track has the %s phase" phase)
            true (List.mem phase main_names))
        [ "build_tree"; "injection"; "trace_analysis"; "resolve_stacks" ];
      let tracks =
        List.sort_uniq compare
          (List.map (fun (s : Telemetry.Span.t) -> s.Telemetry.Span.track) dump.C.spans)
      in
      Alcotest.(check bool) "worker domains contributed their own tracks" true
        (List.length tracks >= 2);
      (* pipeline counters agree with the engine's own result record *)
      let counter name = List.assoc_opt name dump.C.counters in
      Alcotest.(check (option int)) "fp.discovered counter"
        (Some r.Mumak.Engine.failure_points) (counter "fp.discovered");
      Alcotest.(check (option int)) "injections counter"
        (Some r.Mumak.Engine.injections) (counter "injections");
      Alcotest.(check (option int)) "executions counter"
        (Some r.Mumak.Engine.executions) (counter "executions");
      Alcotest.(check (option int)) "ta.events counter"
        (Some r.Mumak.Engine.trace_events) (counter "ta.events");
      (* each injection execution contributed one latency sample *)
      (match List.assoc_opt "injection_exec_ns" dump.C.histograms with
      | None -> Alcotest.fail "no injection_exec_ns histogram"
      | Some h ->
          Alcotest.(check int) "one exec sample per injection execution"
            (r.Mumak.Engine.executions - 1) (* minus the resolve_stacks run *)
            h.H.count);
      Alcotest.(check bool) "oracle latency histogram present" true
        (List.mem_assoc "oracle_ns" dump.C.histograms);
      Alcotest.(check bool) "crash-image latency histogram present" true
        (List.mem_assoc "crash_image_ns" dump.C.histograms);
      (* both exporters accept the real dump *)
      (match Telemetry.Chrome_trace.validate (Telemetry.Chrome_trace.to_json dump) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "chrome trace invalid: %s" msg);
      match Telemetry.Jsonl.validate_string (Telemetry.Jsonl.to_string dump) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "jsonl invalid: %s" msg)

(* ------------------------------------------------------------------ *)
(* Inertness: telemetry on vs off is invisible in the results          *)
(* ------------------------------------------------------------------ *)

let differential_on_off name ~bugs ~strategy ~jobs make_target =
  Bugreg.with_enabled bugs (fun () ->
      let config = { Mumak.Config.default with Mumak.Config.strategy; jobs } in
      C.disable ();
      let off = Mumak.Engine.analyze ~config (make_target ()) in
      let on =
        with_collector (fun () ->
            Telemetry.Progress.activate ();
            let r = Mumak.Engine.analyze ~config (make_target ()) in
            Alcotest.(check bool)
              (name ^ ": instrumented run actually recorded")
              true
              ((C.drain ()).C.counters <> []);
            r)
      in
      Alcotest.(check (list string))
        (name ^ ": report signature unchanged by telemetry")
        (Mumak.Report.signature off.Mumak.Engine.report)
        (Mumak.Report.signature on.Mumak.Engine.report);
      Alcotest.(check int)
        (name ^ ": failure points unchanged")
        off.Mumak.Engine.failure_points on.Mumak.Engine.failure_points;
      Alcotest.(check int)
        (name ^ ": injections unchanged")
        off.Mumak.Engine.injections on.Mumak.Engine.injections;
      Alcotest.(check int)
        (name ^ ": executions unchanged")
        off.Mumak.Engine.executions on.Mumak.Engine.executions)

let test_telemetry_inert () =
  List.iter
    (fun (label, strategy, jobs) ->
      differential_on_off
        ("clean btree " ^ label)
        ~bugs:[] ~strategy ~jobs btree_target;
      differential_on_off
        ("btree+insert_no_tx " ^ label)
        ~bugs:[ "btree_insert_no_tx" ] ~strategy ~jobs btree_target;
      differential_on_off
        ("hashmap_atomic+never_flushed " ^ label)
        ~bugs:[ "hm_atomic_count_never_flushed" ] ~strategy ~jobs
        (fun () ->
          Targets.of_app (app "hashmap_atomic") ~version:Pmalloc.Version.V1_6
            ~workload:(wl ()) ()))
    [
      ("replay", Mumak.Config.Replay, 1);
      ("reexecute j=1", Mumak.Config.Reexecute, 1);
      ("reexecute j=4", Mumak.Config.Reexecute, 4);
    ]

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "telemetry"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic and clamped" `Quick test_clock;
          Alcotest.test_case "metrics never negative" `Quick test_metrics_nonnegative;
        ] );
      qsuite "json" [ json_roundtrip ];
      qsuite "histogram"
        [
          hist_merge_is_concat; hist_merge_commutative; hist_merge_associative;
          hist_quantile_bounded;
        ];
      qsuite "collector" [ spans_well_formed; counters_sum_across_domains ];
      ( "collector-edges",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_collector_records_nothing;
          Alcotest.test_case "open spans close at drain" `Quick
            test_open_spans_closed_at_drain;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "jsonl schema round-trip" `Quick test_jsonl_schema;
          Alcotest.test_case "jsonl validator rejections" `Quick
            test_jsonl_validator_rejections;
          Alcotest.test_case "chrome trace schema" `Quick test_chrome_trace_schema;
        ] );
      ( "engine",
        [
          Alcotest.test_case "phase spans, worker tracks, counters" `Slow
            test_engine_dump;
          Alcotest.test_case "telemetry on/off differential" `Slow test_telemetry_inert;
        ] );
    ]
