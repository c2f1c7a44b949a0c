(* Tests for the results store (run ledger + finding provenance):
   - codec round-trips: generated provenance and finding records survive
     to_json |> to_string |> of_string |> of_json byte-for-byte, and a
     real engine run's full record survives the same trip;
   - ledger: append/load by id and by unique prefix through a temp dir;
     a stale temp file from a killed append is invisible and a re-append
     replaces the record whole; the trace signature in a run's content
     address is the digest of the recording's [Op.to_string] lines, and
     [Op.to_string] renders a fixed table of ops exactly;
   - overlay image diff: the diff of a recovered copy-on-write view equals
     a naive line-by-line comparison of snapshots taken before and after
     the writes;
   - diff algebra: diff a a is empty, and new/fixed swap under argument
     exchange;
   - explain: every finding of a seeded run resolves, by 1-based index
     and by finding-id prefix, to a provenance record whose identity
     matches the finding;
   - schema validator: accepts emitted run and diff records, rejects
     wrong schema/version/type and torn structures;
   - trend gate: no baseline passes, improvement passes, a blown-up
     newest run fails, and smoke runs trend separately. *)

module Json = Telemetry.Json

let wl ?(ops = 200) ?(key_range = 60) () = Targets.standard_workload ~ops ~key_range ()

let target_for ?(workload = wl ()) name =
  match Pmapps.Registry.find name with
  | None -> Alcotest.failf "unknown app %s" name
  | Some (module A : Pmapps.Kv_intf.S) ->
      let version =
        (* hashmap_atomic's layout predates the 1.12 allocator *)
        if String.equal name "hashmap_atomic" then Pmalloc.Version.V1_6
        else Pmalloc.Version.V1_12
      in
      Targets.of_app (module A) ~version ~workload ()

let run_recorded ?(bugs = []) ?(config = Mumak.Config.default) name =
  Bugreg.with_enabled bugs (fun () ->
      let result = Mumak.Engine.analyze ~config (target_for name) in
      let workload =
        Printf.sprintf "test:%s%s" name
          (match bugs with [] -> "" | l -> ",bugs=" ^ String.concat "+" l)
      in
      Store.Record.of_result ~target:name ~workload ~config result)

(* --- generators ----------------------------------------------------- *)

let gen_name =
  QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 12))

let gen_text =
  (* printable ASCII including the characters the JSON escaper must
     handle *)
  QCheck.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 30))

let gen_hex = QCheck.Gen.(string_size ~gen:(oneofl [ '0'; '9'; 'a'; 'f' ]) (return 16))

let gen_failure_point =
  let open QCheck.Gen in
  let* path = list_size (int_range 1 4) gen_name in
  let* op_index = int_range 0 500 in
  let* ordinal = int_range 0 500 in
  let* pseq = opt (int_range 1 5000) in
  return
    {
      Mumak.Provenance.fp_path = path;
      fp_op_index = op_index;
      fp_ordinal = ordinal;
      fp_pseq = pseq;
    }

let gen_image_diff =
  let open QCheck.Gen in
  let* lines =
    list_size (int_range 0 4)
      (let* line = int_range 0 1000 in
       let* crash = gen_hex in
       let* recovered = gen_hex in
       return { Mumak.Provenance.dl_line = line; dl_crash = crash; dl_recovered = recovered })
  in
  let* extra = int_range 0 20 in
  let differing = List.length lines + extra in
  return
    {
      Mumak.Provenance.id_lines = lines;
      id_differing = differing;
      id_capped = differing > List.length lines;
    }

let gen_provenance =
  let open QCheck.Gen in
  let* signature = gen_text in
  let* kind = gen_name in
  let* phase = gen_name in
  let* detail = gen_text in
  let* stack = opt (pair (list_size (int_range 1 4) gen_name) (int_range 0 200)) in
  let* seq = opt (int_range 1 10_000) in
  let* failure_point = opt gen_failure_point in
  let* window = list_size (int_range 0 7) gen_text in
  let* witness = gen_text in
  let* verdict = opt gen_text in
  let* fix = opt gen_text in
  let* image_diff = opt gen_image_diff in
  return
    {
      Mumak.Provenance.p_finding = Mumak.Provenance.id_of_signature signature;
      p_signature = signature;
      p_kind = kind;
      p_phase = phase;
      p_detail = detail;
      p_stack = stack;
      p_seq = seq;
      p_failure_point = failure_point;
      p_window = window;
      p_witness = witness;
      p_verdict = verdict;
      p_fix = fix;
      p_image_diff = image_diff;
    }

let prov_print p = Json.to_string (Mumak.Provenance.to_json p)

let prop_provenance_roundtrip =
  QCheck.Test.make ~name:"provenance round-trips through JSON text" ~count:300
    (QCheck.make ~print:prov_print gen_provenance) (fun p ->
      match Json.of_string (Json.to_string (Mumak.Provenance.to_json p)) with
      | Error msg -> QCheck.Test.fail_reportf "parse error: %s" msg
      | Ok j -> (
          match Mumak.Provenance.of_json j with
          | Error msg -> QCheck.Test.fail_reportf "decode error: %s" msg
          | Ok p' -> Mumak.Provenance.equal p p'))

let gen_finding =
  let open QCheck.Gen in
  let* signature = gen_text in
  let* kind = gen_name in
  let* phase = gen_name in
  let* path = list_size (int_range 0 4) gen_name in
  let* op_index = opt (int_range 0 200) in
  let* seq = opt (int_range 1 10_000) in
  let* detail = gen_text in
  let* fix = opt gen_text in
  let* verdict = opt gen_text in
  return
    {
      Store.Record.f_id = Mumak.Provenance.id_of_signature signature;
      f_signature = signature;
      f_kind = kind;
      f_phase = phase;
      f_path = path;
      f_op_index = op_index;
      f_seq = seq;
      f_detail = detail;
      f_fix = fix;
      f_verdict = verdict;
    }

let prop_finding_roundtrip =
  QCheck.Test.make ~name:"store findings round-trip through JSON text" ~count:300
    (QCheck.make
       ~print:(fun f -> Json.to_string (Store.Record.finding_to_json f))
       gen_finding)
    (fun f ->
      match Json.of_string (Json.to_string (Store.Record.finding_to_json f)) with
      | Error msg -> QCheck.Test.fail_reportf "parse error: %s" msg
      | Ok j -> (
          match Store.Record.finding_of_json j with
          | Error msg -> QCheck.Test.fail_reportf "decode error: %s" msg
          | Ok f' -> f = f'))

(* --- real-run record round-trip and ledger -------------------------- *)

let temp_store () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mumak-store-test-%d" (Unix.getpid ()))
  in
  Store.Ledger.open_ ~dir ()

let test_record_roundtrip () =
  let record = run_recorded ~bugs:[ "btree_insert_no_tx" ] "btree" in
  match Json.of_string (Json.to_string (Store.Record.to_json record)) with
  | Error msg -> Alcotest.failf "record reparse failed: %s" msg
  | Ok j -> (
      match Store.Record.of_json j with
      | Error msg -> Alcotest.failf "record decode failed: %s" msg
      | Ok record' ->
          Alcotest.(check bool)
            "run record survives serialization byte-for-byte" true
            (Store.Record.equal record record'))

(* A record's metrics list the total and then every phase that ran, each
   once: the phase entries sum to the total under every preset, lint and
   fix verification included. Compared after the ledger's text encoding
   (12 significant digits), so within a relative 1e-9. *)
let test_phase_metrics_sum () =
  List.iter
    (fun (label, config) ->
      let result =
        Mumak.Engine.analyze ~config (target_for ~workload:(wl ~ops:60 ~key_range:20 ()) "btree")
      in
      let record = Store.Record.of_result ~target:"btree" ~workload:"test:btree" ~config result in
      let metrics =
        match Json.of_string (Json.to_string record.Store.Record.metrics) with
        | Ok (Json.Assoc fields) -> fields
        | Ok _ | Error _ -> Alcotest.failf "%s: metrics do not decode to an object" label
      in
      let total, phases =
        match metrics with
        | ("total", total) :: phases -> (total, phases)
        | _ -> Alcotest.failf "%s: metrics do not start with the total" label
      in
      Alcotest.(check bool) (label ^ ": phases listed once") true
        (List.length (List.sort_uniq compare (List.map fst phases)) = List.length phases);
      List.iter
        (fun field ->
          let value m =
            match Option.bind (Json.member field m) Json.to_float_opt with
            | Some v -> v
            | None -> Alcotest.failf "%s: %s missing" label field
          in
          let sum = List.fold_left (fun acc (_, m) -> acc +. value m) 0. phases in
          let t = value total in
          if Float.abs (sum -. t) > 1e-9 *. Float.max 1. (Float.abs t) then
            Alcotest.failf "%s: phase %s sum to %.17g, total %.17g" label field sum t)
        [ "wall_seconds"; "cpu_seconds"; "allocated_bytes"; "heap_growth_words" ])
    [
      ("default", Mumak.Config.default);
      ("linting", Mumak.Config.linting);
      ("static_analysis", Mumak.Config.static_analysis);
      ("optimizing", Mumak.Config.optimizing);
    ]

let test_ledger_append_load () =
  let ledger = temp_store () in
  let record = run_recorded "hashmap_atomic" in
  let id = Store.Ledger.append_run ledger record in
  Alcotest.(check string) "append returns the content address" record.Store.Record.run_id id;
  (match Store.Ledger.load_run ledger id with
  | Error msg -> Alcotest.failf "load by full id failed: %s" msg
  | Ok r ->
      Alcotest.(check bool) "load by id returns the record" true
        (Store.Record.equal record r));
  (match Store.Ledger.load_run ledger (String.sub id 0 8) with
  | Error msg -> Alcotest.failf "load by prefix failed: %s" msg
  | Ok r ->
      Alcotest.(check bool) "load by unique prefix returns the record" true
        (Store.Record.equal record r));
  match Store.Ledger.load_run ledger "ffffffffffff" with
  | Ok _ -> Alcotest.fail "made-up id should not resolve"
  | Error _ -> ()

let test_ledger_atomic_append () =
  let ledger =
    Store.Ledger.open_
      ~dir:
        (Filename.concat (Filename.get_temp_dir_name ())
           (Printf.sprintf "mumak-store-atomic-%d" (Unix.getpid ())))
      ()
  in
  let record = run_recorded "hashmap_atomic" in
  let id = record.Store.Record.run_id in
  let path = Store.Ledger.run_path ledger id in
  let text = Json.to_string (Store.Record.to_json record) ^ "\n" in
  let write file contents =
    let oc = open_out_bin file in
    output_string oc contents;
    close_out oc
  in
  (* what a run killed mid-write leaves behind *)
  write (path ^ ".tmp") (String.sub text 0 (String.length text / 2));
  Alcotest.(check (list string)) "a stale temp file is no run" [] (Store.Ledger.run_ids ledger);
  Alcotest.(check (pair int (list string)))
    "load_all skips the stale temp file, reporting nothing" (0, [])
    (let runs, unreadable = Store.Ledger.load_all ledger in
     (List.length runs, unreadable));
  (* an older, longer record under the same id *)
  write path (text ^ String.make 4096 ' ' ^ "stale tail\n");
  ignore (Store.Ledger.append_run ledger record);
  Alcotest.(check (list string))
    "one run after the append" [ id ] (Store.Ledger.run_ids ledger);
  Alcotest.(check bool) "the temp file was renamed into place" false
    (Sys.file_exists (path ^ ".tmp"));
  Alcotest.(check string) "the record was replaced whole" text (Store.Ledger.read_file path);
  match Store.Ledger.load_all ledger with
  | [ r ], [] -> Alcotest.(check bool) "and loads back" true (Store.Record.equal record r)
  | l, unreadable ->
      Alcotest.failf "expected one loadable run, got %d (%d unreadable)" (List.length l)
        (List.length unreadable)

(* A record that cannot be parsed (a disk error, a hand edit) is reported
   with its path and parse error, never skipped: [query] shows it on stderr
   and exits 2. *)
let test_ledger_reports_unreadable () =
  let ledger =
    Store.Ledger.open_
      ~dir:
        (Filename.concat (Filename.get_temp_dir_name ())
           (Printf.sprintf "mumak-store-unreadable-%d" (Unix.getpid ())))
      ()
  in
  let record = run_recorded "hashmap_atomic" in
  ignore (Store.Ledger.append_run ledger record);
  let garbage = Store.Ledger.run_path ledger (String.make 32 'f') in
  let oc = open_out_bin garbage in
  output_string oc "{\"schema\": \"mumak.store\", trunc";
  close_out oc;
  let runs, unreadable = Store.Ledger.load_all ledger in
  Sys.remove garbage;
  Alcotest.(check int) "the good record loads" 1 (List.length runs);
  match unreadable with
  | [ msg ] ->
      Alcotest.(check bool)
        ("the garbage record is reported with its path: " ^ msg)
        true
        (String.starts_with ~prefix:(garbage ^ ": ") msg
        && String.length msg > String.length garbage + 2)
  | l -> Alcotest.failf "expected one unreadable record, got %d" (List.length l)

(* The ledger's content address includes the trace signature, so its value
   must never move: it is the MD5 of every recorded event's Op.to_string
   followed by a newline. Pinned on the 15 clean targets at small op
   counts, and Op.to_string itself on a fixed table. *)
let clean_targets () =
  let workload = Targets.standard_workload ~ops:30 ~key_range:20 () in
  List.map
    (fun (module A : Pmapps.Kv_intf.S) -> (A.name, target_for ~workload A.name))
    Pmapps.Registry.apps
  @ [
      ("montage.hashtable", Targets.of_montage ~variant:`Buffered ~workload ());
      ("montage.lf_hashtable", Targets.of_montage ~variant:`Lockfree ~workload ());
      ("pmemkv.cmap", Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Cmap ~workload ());
      ("pmemkv.stree", Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Stree ~workload ());
      ("redis", Targets.of_redis ~workload ());
      ("rocksdb", Targets.of_rocksdb ~workload ());
    ]

let test_trace_signature_pinned () =
  let targets = clean_targets () in
  Alcotest.(check int) "15 clean targets" 15 (List.length targets);
  List.iter
    (fun (name, (target : Mumak.Target.t)) ->
      let result = Mumak.Engine.analyze target in
      let recording =
        Pmtrace.Replay.record ~pool_size:target.Mumak.Target.pool_size
          (fun ~device ~framer -> target.Mumak.Target.run ~device ~framer)
      in
      let buf = Buffer.create 4096 in
      List.iter
        (fun (e : Pmtrace.Event.t) ->
          Buffer.add_string buf (Pmem.Op.to_string e.Pmtrace.Event.op);
          Buffer.add_char buf '\n')
        (Pmtrace.Replay.events recording);
      Alcotest.(check string)
        (name ^ ": trace signature = digest of the Op.to_string lines")
        (Digest.to_hex (Digest.string (Buffer.contents buf)))
        result.Mumak.Engine.trace_signature)
    targets

let test_op_rendering_pinned () =
  let open Pmem.Op in
  List.iter
    (fun (op, expected) -> Alcotest.(check string) expected expected (to_string op))
    [
      (Store { addr = 4096; size = 8; nt = false }, "store addr=4096 size=8");
      (Store { addr = 128; size = 64; nt = true }, "store.nt addr=128 size=64");
      ( Flush { kind = Clflush; line = 3; dirty = true; volatile = false },
        "clflush line=3 dirty=true volatile=false" );
      ( Flush { kind = Clflush; line = -1; dirty = false; volatile = true },
        "clflush line=-1 dirty=false volatile=true" );
      ( Flush { kind = Clflushopt; line = 0; dirty = false; volatile = false },
        "clflushopt line=0 dirty=false volatile=false" );
      ( Flush { kind = Clflushopt; line = 1_000_000; dirty = true; volatile = true },
        "clflushopt line=1000000 dirty=true volatile=true" );
      ( Flush { kind = Clwb; line = 77; dirty = true; volatile = false },
        "clwb line=77 dirty=true volatile=false" );
      ( Flush { kind = Clwb; line = min_int; dirty = false; volatile = true },
        "clwb line=-4611686018427387904 dirty=false volatile=true" );
      ( Fence { kind = Sfence; pending_flushes = 2; pending_nt = 0 },
        "sfence pending_flushes=2 pending_nt=0" );
      ( Fence { kind = Mfence; pending_flushes = 0; pending_nt = 13 },
        "mfence pending_flushes=0 pending_nt=13" );
      ( Fence { kind = Rmw; pending_flushes = 10; pending_nt = 1 },
        "rmw pending_flushes=10 pending_nt=1" );
      (Load { addr = 65535; size = 16 }, "load addr=65535 size=16");
    ]

(* --- overlay image diff ---------------------------------------------- *)

(* The reference the overlay diff must reproduce: snapshots taken before
   and after the writes, compared one whole cache line at a time. *)
let naive_image_diff ~before ~after =
  let hex b =
    String.concat ""
      (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))
  in
  let cap = Mumak.Provenance.diff_line_cap in
  let differing = ref 0 and kept = ref [] in
  for line = 0 to (Pmem.Image.size before / 64) - 1 do
    let a = Pmem.Image.read before ~addr:(line * 64) ~size:64 in
    let b = Pmem.Image.read after ~addr:(line * 64) ~size:64 in
    if not (Bytes.equal a b) then begin
      incr differing;
      if !differing <= cap then
        kept :=
          { Mumak.Provenance.dl_line = line; dl_crash = hex a; dl_recovered = hex b } :: !kept
    end
  done;
  {
    Mumak.Provenance.id_lines = List.rev !kept;
    id_differing = !differing;
    id_capped = !differing > cap;
  }

(* A write through the view: [same] rewrites the bytes already there. *)
type overlay_write = { addr : int; len : int; same : bool; fill : int }
type overlay_case = { size : int; base_seed : int; writes : overlay_write list }

let gen_overlay_case =
  let open QCheck.Gen in
  let* size =
    oneof
      [
        int_range 1 300;
        int_range 4000 4200;
        int_range 8100 13_000;
        oneofl [ 4096; 8192; 6400 ];
      ]
  in
  let gen_write ~max_len ~same =
    let* addr =
      oneof
        [
          int_bound (size - 1);
          (* straddling a page boundary *)
          (let* page = int_range 1 (max 1 (size / 4096)) in
           let* back = int_range 0 100 in
           return (max 0 (min (size - 1) ((page * 4096) - back))));
          (* the (possibly partial) last page and line *)
          map (fun back -> max 0 (size - 1 - back)) (int_range 0 100);
        ]
    in
    let* len = int_range 1 max_len in
    let* same = same in
    let* fill = int_bound 1_000_000 in
    return { addr; len = min len (size - addr); same; fill }
  in
  (* three regimes: only identical rewrites (no differing line), a few
     small writes (at most 8 lines), many long ones (more than 8) *)
  let* writes =
    oneof
      [
        list_size (int_range 0 4) (gen_write ~max_len:2000 ~same:(return true));
        list_size (int_range 1 3)
          (gen_write ~max_len:100 ~same:(frequencyl [ (3, false); (1, true) ]));
        list_size (int_range 2 6)
          (gen_write ~max_len:3000 ~same:(frequencyl [ (4, false); (1, true) ]));
      ]
  in
  let* base_seed = int_bound 1_000_000 in
  return { size; base_seed; writes }

let random_bytes ~seed n =
  let st = Random.State.make [| seed |] in
  Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))

(* The view after the writes, and the reference diff computed without it. *)
let run_overlay_case c =
  let base = Pmem.Image.create ~size:c.size in
  Pmem.Image.write base ~addr:0 (random_bytes ~seed:c.base_seed c.size);
  let before = Pmem.Image.snapshot base in
  let view = Pmem.Image.cow base in
  List.iter
    (fun w ->
      Pmem.Image.write view ~addr:w.addr
        (if w.same then Pmem.Image.read before ~addr:w.addr ~size:w.len
         else random_bytes ~seed:w.fill w.len))
    c.writes;
  (view, naive_image_diff ~before ~after:(Pmem.Image.snapshot view))

let print_overlay_case c =
  Printf.sprintf "size=%d base_seed=%d writes=[%s]" c.size c.base_seed
    (String.concat "; "
       (List.map
          (fun w -> Printf.sprintf "%d+%d%s" w.addr w.len (if w.same then " same" else ""))
          c.writes))

let prop_overlay_diff =
  QCheck.Test.make ~name:"overlay diff = snapshot line-by-line diff" ~count:300
    (QCheck.make ~print:print_overlay_case gen_overlay_case) (fun c ->
      let view, expected = run_overlay_case c in
      Mumak.Provenance.image_diff view = expected)

let test_overlay_regimes () =
  let st = Random.State.make [| 42 |] in
  let counts =
    List.map
      (fun c -> (snd (run_overlay_case c)).Mumak.Provenance.id_differing)
      (QCheck.Gen.generate ~rand:st ~n:200 gen_overlay_case)
  in
  Alcotest.(check bool) "cases with no differing line" true (List.mem 0 counts);
  Alcotest.(check bool) "cases with 1 to 8 differing lines" true
    (List.exists (fun n -> n >= 1 && n <= 8) counts);
  Alcotest.(check bool) "cases with more than 8 differing lines" true
    (List.exists (fun n -> n > 8) counts)

(* --- diff algebra ---------------------------------------------------- *)

let signatures fs = List.map (fun f -> f.Store.Record.f_signature) fs

let test_diff_self_empty () =
  let record = run_recorded ~bugs:[ "btree_insert_no_tx" ] "btree" in
  let d = Store.Diff.compute record record in
  Alcotest.(check bool) "diff a a is empty" true (Store.Diff.is_empty d);
  Alcotest.(check int) "no new findings" 0 (List.length d.Store.Diff.new_findings);
  Alcotest.(check int) "no fixed findings" 0 (List.length d.Store.Diff.fixed_findings);
  Alcotest.(check int) "every finding persists"
    (List.length record.Store.Record.findings)
    (List.length d.Store.Diff.persisting)

let test_diff_symmetry () =
  let clean = run_recorded "btree" in
  let seeded = run_recorded ~bugs:[ "btree_insert_no_tx" ] "btree" in
  let forward = Store.Diff.compute clean seeded in
  let backward = Store.Diff.compute seeded clean in
  Alcotest.(check (list string))
    "forward new = backward fixed"
    (signatures forward.Store.Diff.new_findings)
    (signatures backward.Store.Diff.fixed_findings);
  Alcotest.(check (list string))
    "forward fixed = backward new"
    (signatures forward.Store.Diff.fixed_findings)
    (signatures backward.Store.Diff.new_findings);
  Alcotest.(check (list string))
    "persisting agrees up to signature"
    (signatures forward.Store.Diff.persisting)
    (signatures backward.Store.Diff.persisting);
  Alcotest.(check bool)
    "the seeded bug produced at least one new finding" true
    (forward.Store.Diff.new_findings <> [])

(* --- explain --------------------------------------------------------- *)

let test_explain_resolves_every_finding () =
  let record = run_recorded ~bugs:[ "btree_insert_no_tx" ] "btree" in
  Alcotest.(check bool) "the seeded run has findings" true
    (record.Store.Record.findings <> []);
  List.iteri
    (fun i (f : Store.Record.finding) ->
      (* by 1-based index *)
      (match Store.Explain.find record (string_of_int (i + 1)) with
      | Error msg -> Alcotest.failf "finding %d unresolvable by index: %s" (i + 1) msg
      | Ok (f', p) ->
          Alcotest.(check string)
            (Printf.sprintf "index %d resolves to the right finding" (i + 1))
            f.Store.Record.f_id f'.Store.Record.f_id;
          Alcotest.(check string)
            (Printf.sprintf "provenance %d carries the finding's identity" (i + 1))
            f.Store.Record.f_signature p.Mumak.Provenance.p_signature;
          Alcotest.(check bool)
            (Printf.sprintf "chain %d is non-empty" (i + 1))
            true
            (Store.Explain.chain record (f', p) <> []));
      (* by finding-id (full ids are unique; prefixes may collide) *)
      match Store.Explain.find record f.Store.Record.f_id with
      | Error msg ->
          Alcotest.failf "finding %s unresolvable by id: %s" f.Store.Record.f_id msg
      | Ok (f', _) ->
          Alcotest.(check string) "id resolves to itself" f.Store.Record.f_id
            f'.Store.Record.f_id)
    record.Store.Record.findings

let test_explain_fi_findings_have_evidence () =
  let record = run_recorded ~bugs:[ "btree_insert_no_tx" ] "btree" in
  let fi =
    List.filter
      (fun (p : Mumak.Provenance.t) ->
        String.equal p.Mumak.Provenance.p_phase "fault_injection")
      record.Store.Record.provenance
  in
  Alcotest.(check bool) "the seeded run has fault-injection findings" true (fi <> []);
  List.iter
    (fun (p : Mumak.Provenance.t) ->
      Alcotest.(check bool) "FI finding carries a failure point" true
        (p.Mumak.Provenance.p_failure_point <> None);
      Alcotest.(check bool) "FI finding carries a trace window" true
        (p.Mumak.Provenance.p_window <> []);
      Alcotest.(check bool) "FI finding carries an image diff" true
        (p.Mumak.Provenance.p_image_diff <> None);
      Alcotest.(check bool) "FI finding carries a verdict" true
        (p.Mumak.Provenance.p_verdict <> None))
    fi

(* --- schema validator ------------------------------------------------ *)

let test_schema_accepts_emitted () =
  let record = run_recorded ~bugs:[ "btree_insert_no_tx" ] "btree" in
  (match Store.Schema.validate (Store.Record.to_json record) with
  | Error msg -> Alcotest.failf "emitted run record rejected: %s" msg
  | Ok _ -> ());
  let clean = run_recorded "btree" in
  match Store.Schema.validate (Store.Diff.to_json (Store.Diff.compute clean record)) with
  | Error msg -> Alcotest.failf "emitted diff record rejected: %s" msg
  | Ok _ -> ()

let test_schema_rejections () =
  let record = run_recorded "hashmap_atomic" in
  let json = Store.Record.to_json record in
  let patch key value = function
    | Json.Assoc fields ->
        Json.Assoc (List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) fields)
    | other -> other
  in
  let expect_reject label doc =
    match Store.Schema.validate doc with
    | Ok desc -> Alcotest.failf "%s should be rejected (got OK: %s)" label desc
    | Error _ -> ()
  in
  expect_reject "wrong schema name" (patch "schema" (Json.String "mumak.wrong") json);
  expect_reject "wrong schema version" (patch "version" (Json.Int 999) json);
  expect_reject "unknown record type" (patch "type" (Json.String "blob") json);
  expect_reject "non-string run id" (patch "run_id" (Json.Int 7) json);
  expect_reject "missing counters" (patch "counters" Json.Null json);
  expect_reject "torn findings list" (patch "findings" (Json.List [ Json.Int 1 ]) json);
  expect_reject "findings/provenance length mismatch"
    (patch "provenance" (Json.List []) json);
  expect_reject "not a store document" (Json.Assoc [ ("hello", Json.Int 1) ])

(* --- trend gate ------------------------------------------------------ *)

let envelope ?(smoke = false) ~experiment ~wall ~alloc () =
  Json.Assoc
    [
      ("schema", Json.String "mumak.bench");
      ("version", Json.Int 2);
      ("experiment", Json.String experiment);
      ("smoke", Json.Bool smoke);
      ( "meta",
        Json.Assoc
          [
            ("git_commit", Json.String "deadbeef");
            ("ocaml_version", Json.String Sys.ocaml_version);
            ("host_cores", Json.Int 4);
            ("smoke", Json.Bool smoke);
            ("wall_seconds", Json.Float wall);
            ("allocated_bytes", Json.Float alloc);
          ] );
    ]

let test_trend_gate () =
  (* single sample: no baseline, passes *)
  let only = Store.Trend.check [ envelope ~experiment:"scaling" ~wall:1.0 ~alloc:1e8 () ] in
  Alcotest.(check int) "one experiment judged" 1 (List.length only);
  Alcotest.(check bool) "no baseline passes" false (Store.Trend.any_regressed only);
  (* improvement: passes *)
  let improved =
    Store.Trend.check
      [
        envelope ~experiment:"scaling" ~wall:2.0 ~alloc:2e8 ();
        envelope ~experiment:"scaling" ~wall:1.0 ~alloc:1e8 ();
      ]
  in
  Alcotest.(check bool) "improvement passes" false (Store.Trend.any_regressed improved);
  (* blow-up beyond factor + slack: fails *)
  let blown =
    Store.Trend.check
      [
        envelope ~experiment:"scaling" ~wall:1.0 ~alloc:1e8 ();
        envelope ~experiment:"scaling" ~wall:10.0 ~alloc:1e8 ();
      ]
  in
  Alcotest.(check bool) "10x wall blow-up fails" true (Store.Trend.any_regressed blown);
  (* a fast earlier run, not the latest prior one, is the baseline *)
  let min_baseline =
    Store.Trend.check
      [
        envelope ~experiment:"scaling" ~wall:1.0 ~alloc:1e8 ();
        envelope ~experiment:"scaling" ~wall:50.0 ~alloc:1e8 ();
        envelope ~experiment:"scaling" ~wall:10.0 ~alloc:1e8 ();
      ]
  in
  Alcotest.(check bool) "baseline is the min over history, not the previous run" true
    (Store.Trend.any_regressed min_baseline);
  (* smoke and full runs trend as separate series *)
  let stratified =
    Store.Trend.check
      [
        envelope ~experiment:"scaling" ~wall:0.1 ~alloc:1e6 ~smoke:true ();
        envelope ~experiment:"scaling" ~wall:10.0 ~alloc:1e9 ();
      ]
  in
  Alcotest.(check int) "smoke trends separately" 2 (List.length stratified);
  Alcotest.(check bool) "full run is not judged against the smoke baseline" false
    (Store.Trend.any_regressed stratified)

(* --- bench history on disk ------------------------------------------ *)

let test_bench_history_roundtrip () =
  let ledger = temp_store () in
  let e1 = envelope ~experiment:"micro" ~wall:1.0 ~alloc:1e7 () in
  let e2 = envelope ~experiment:"micro" ~wall:1.1 ~alloc:1.1e7 () in
  Store.Ledger.append_bench ledger e1;
  Store.Ledger.append_bench ledger e2;
  let history = Store.Ledger.bench_history ledger in
  Alcotest.(check bool) "history preserves both envelopes in order" true
    (List.length history >= 2
    &&
    let last2 =
      List.filteri (fun i _ -> i >= List.length history - 2) history
    in
    List.map Json.to_string last2 = List.map Json.to_string [ e1; e2 ])

let () =
  Alcotest.run "store"
    [
      ( "codecs",
        [
          QCheck_alcotest.to_alcotest prop_provenance_roundtrip;
          QCheck_alcotest.to_alcotest prop_finding_roundtrip;
          Alcotest.test_case "engine run record round-trips" `Quick test_record_roundtrip;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "append/load by id and prefix" `Quick test_ledger_append_load;
          Alcotest.test_case "bench history round-trips" `Quick
            test_bench_history_roundtrip;
          Alcotest.test_case "stale temp ignored, re-append replaces" `Quick
            test_ledger_atomic_append;
          Alcotest.test_case "unreadable record reported, not skipped" `Quick
            test_ledger_reports_unreadable;
          Alcotest.test_case "trace signature = Op.to_string digest" `Quick
            test_trace_signature_pinned;
          Alcotest.test_case "Op.to_string fixed table" `Quick test_op_rendering_pinned;
          Alcotest.test_case "phase entries sum to total" `Quick test_phase_metrics_sum;
        ] );
      ( "overlay",
        [
          QCheck_alcotest.to_alcotest prop_overlay_diff;
          Alcotest.test_case "generator covers 0, <=8 and >8 lines" `Quick
            test_overlay_regimes;
        ] );
      ( "diff",
        [
          Alcotest.test_case "self-diff is empty" `Quick test_diff_self_empty;
          Alcotest.test_case "new/fixed swap under exchange" `Quick test_diff_symmetry;
        ] );
      ( "explain",
        [
          Alcotest.test_case "every finding resolves" `Quick
            test_explain_resolves_every_finding;
          Alcotest.test_case "FI findings carry full evidence" `Quick
            test_explain_fi_findings_have_evidence;
        ] );
      ( "schema",
        [
          Alcotest.test_case "accepts emitted records" `Quick test_schema_accepts_emitted;
          Alcotest.test_case "rejects malformed records" `Quick test_schema_rejections;
        ] );
      ("trend", [ Alcotest.test_case "trend gate verdicts" `Quick test_trend_gate ]);
    ]
