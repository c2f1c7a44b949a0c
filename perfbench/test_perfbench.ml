(* Tests for the benchmark's own helpers: the percentile rule, the
   normalization arithmetic, the expected-verdict table and seed-pure
   workload generation. *)

open Perfbench

let floats = Alcotest.(float 1e-9)

let test_percentile_rule () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check int) "p90 needs 100 samples" 100 (Stats.min_samples_for 0.9);
  Alcotest.(check int) "p50 needs 20 samples" 20 (Stats.min_samples_for 0.5);
  Alcotest.(check (option floats)) "p90 refused at 99" None (Stats.tail (xs 99) 0.9);
  Alcotest.(check (option floats)) "p90 at 100" (Some 90.1) (Stats.tail (xs 100) 0.9);
  let beyond = List.length (List.filter (fun x -> x > 90.1) (xs 100)) in
  Alcotest.(check int) "ten samples beyond p90" 10 beyond;
  Alcotest.(check (option floats))
    "median, even count" (Some 2.5)
    (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (option floats)) "median, odd count" (Some 3.) (Stats.median [ 5.; 3.; 1. ]);
  Alcotest.(check (option floats)) "empty" None (Stats.median [])

let test_normalization () =
  let norm = Stats.normalize ~r0:15. ~sensitivity:1. in
  Alcotest.(check floats) "nominal host: unchanged" 100. (norm ~ref_ms:15. 100.);
  Alcotest.(check floats) "host twice as slow: halved" 50. (norm ~ref_ms:30. 100.);
  Alcotest.(check floats) "host twice as fast: doubled" 200. (norm ~ref_ms:7.5 100.);
  (* at sensitivity s, work that slows by k^s while the reference slows by k
     reads the same *)
  List.iter
    (fun (s, k) ->
      Alcotest.(check floats)
        (Printf.sprintf "sensitivity %g, host slower x%g" s k)
        (Stats.normalize ~r0:15. ~sensitivity:s ~ref_ms:12. 80.)
        (Stats.normalize ~r0:15. ~sensitivity:s ~ref_ms:(12. *. k) (80. *. (k ** s))))
    [ (1., 0.7); (1., 2.); (0.5, 1.3); (0.5, 4.) ];
  Alcotest.(check floats) "square root" 50.
    (Stats.normalize ~r0:10. ~sensitivity:0.5 ~ref_ms:40. 100.);
  let refs =
    [
      { Stats.at = 0; ms = 30.; units = 2 };
      { Stats.at = 4; ms = 60.; units = 2 };
      { Stats.at = 100; ms = 10.; units = 1 };
    ]
  in
  let factor = Stats.factor_at ~r0:11.25 ~sensitivity:1. ~radius:5 refs in
  Alcotest.(check floats) "window: mean unit of the samples in reach" 0.5 (factor 2);
  Alcotest.(check floats) "window: a far sample is out of reach" 1.125 (factor 99);
  Alcotest.(check floats) "window factor = normalize by the window's mean unit"
    (Stats.normalize ~r0:11.25 ~sensitivity:0.5 ~ref_ms:22.5 100.)
    (100. *. Stats.factor_at ~r0:11.25 ~sensitivity:0.5 ~radius:5 refs 2)

let test_verdict_table () =
  let configs, baselines = Matrix.configurations Matrix.Detect_matrix ~seed:42 in
  let registered = List.map (fun (b : Bugreg.t) -> b.Bugreg.id) (Bugreg.all ()) in
  Alcotest.(check int) "33 registered bugs" 33 (List.length registered);
  Alcotest.(check int) "15 clean + 33 seeded configurations" 48 (List.length configs);
  let seeded = List.filter (fun (c : Matrix.t) -> c.Matrix.bugs <> []) configs in
  Alcotest.(check (list string))
    "every registered bug armed once" (List.sort compare registered)
    (List.sort compare (List.map (fun (c : Matrix.t) -> c.Matrix.name) seeded));
  let clean = List.filter (fun (c : Matrix.t) -> c.Matrix.expect = Matrix.Clean) configs in
  Alcotest.(check (list string)) "the 15 clean targets" Matrix.clean_names
    (List.map (fun (c : Matrix.t) -> c.Matrix.name) clean);
  Alcotest.(check int) "15 distinct clean targets" 15
    (List.length (List.sort_uniq compare Matrix.clean_names));
  let known = List.map (fun (c : Matrix.t) -> c.Matrix.name) (clean @ baselines) in
  List.iter
    (fun (c : Matrix.t) ->
      let bug = Option.get (Bugreg.find c.Matrix.name) in
      let scored = List.mem "mumak" bug.Bugreg.detectors in
      match c.Matrix.expect with
      | Matrix.Unscored -> Alcotest.(check bool) (c.Matrix.name ^ " unscored") false scored
      | Matrix.Correctness ->
          Alcotest.(check bool) (c.Matrix.name ^ " correctness") true
            (scored && Bugreg.is_correctness bug.Bugreg.taxonomy)
      | Matrix.More_of (taxonomy, host) ->
          Alcotest.(check bool) (c.Matrix.name ^ " performance") true
            (scored && taxonomy = bug.Bugreg.taxonomy
            && not (Bugreg.is_correctness taxonomy));
          Alcotest.(check bool) (c.Matrix.name ^ " baseline runs") true (List.mem host known)
      | Matrix.Clean -> Alcotest.fail (c.Matrix.name ^ " seeded but expected clean"))
    seeded;
  List.iter
    (fun (id, _) ->
      match Bugreg.find id with
      | Some b ->
          Alcotest.(check bool) (id ^ " is a scored bug") true
            (List.mem "mumak" b.Bugreg.detectors)
      | None -> Alcotest.fail (id ^ " is not registered"))
    Matrix.known_misses

let trace_digest (c : Matrix.t) =
  let t = c.Matrix.target in
  let r =
    Pmtrace.Replay.record ~pool_size:t.Mumak.Target.pool_size (fun ~device ~framer ->
        t.Mumak.Target.run ~device ~framer)
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun e -> Pmem.Op.to_string e.Pmtrace.Event.op) (Pmtrace.Replay.events r))))

let test_seed_purity () =
  List.iter
    (fun (name, w) ->
      List.iter
        (fun host ->
          Alcotest.(check bool) (name ^ " " ^ host ^ ": same seed, same ops") true
            (Matrix.ops w ~seed:7 host = Matrix.ops w ~seed:7 host);
          Alcotest.(check bool) (name ^ " " ^ host ^ ": other seed, other ops") false
            (Matrix.ops w ~seed:7 host = Matrix.ops w ~seed:8 host))
        Matrix.hosts;
      Alcotest.(check int) (name ^ ": independent lists per target")
        (List.length Matrix.hosts)
        (List.length (List.sort_uniq compare (List.map (Matrix.ops w ~seed:7) Matrix.hosts)));
      let names seed =
        let cs, bs = Matrix.configurations w ~seed in
        List.map (fun (c : Matrix.t) -> (c.Matrix.name, c.Matrix.descriptor)) (bs @ cs)
      in
      Alcotest.(check (list (pair string string)))
        (name ^ ": same configurations") (names 7) (names 7))
    Matrix.workload_names;
  let first seed = List.hd (fst (Matrix.configurations Matrix.Optimize_small ~seed)) in
  Alcotest.(check string) "same seed, same trace" (trace_digest (first 7)) (trace_digest (first 7));
  Alcotest.(check bool) "other seed, other trace" false
    (trace_digest (first 7) = trace_digest (first 8))

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "expected-verdict table" `Quick test_verdict_table;
          Alcotest.test_case "seed purity" `Quick test_seed_purity;
        ] );
    ]
