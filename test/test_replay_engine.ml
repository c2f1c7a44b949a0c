(* The proof harness for the replay-first injection engine and the arena
   trace storage behind it.

   Layer 1 — the strategy differential: [Replay] (the default) promises to
   detect exactly what the cost-faithful [Reexecute] reference detects,
   from a single recorded execution. For every seeded bug in the
   application, pmalloc and Montage registries (the full 33-bug matrix)
   and for the clean suite, [Replay jobs=1], [Replay jobs=4] and
   [Reexecute] must produce byte-identical report signatures, identical
   failure-point and injection counts — and the replay runs must cost
   exactly one target execution. Every fault-injection finding's image
   diff — taken at the oracle's verdict under both strategies — must be
   present and identical too. [Reexecute] at jobs=4 is test_parallel's
   business; one store-level clean input runs [Replay jobs=1],
   [Replay jobs=3] and [Reexecute jobs=3], so both strategies' parallel
   shares are compared at the other granularity too.

   Layer 2 — the same differential under configuration overlays: the
   merged-trace abstract interpreter ([absint]) on two clean targets and
   three seeded bugs, and the static analyzer ([static]) over the whole
   seeded matrix. Their findings join the report, so the signatures
   compare them too; under [static] the one recording traces loads, and
   the replay runs still cost one execution.

   Layer 3 — qcheck properties for the arena representation: pack/unpack
   round-trip, interning stability (decoded equal paths are physically
   shared), rewrite on arena-backed recordings agreeing with the
   list-based rewriter, and the store-only prefix materializer producing
   byte-identical images to a full device replay. On random device
   programs, the recorder holds the events, stacks, payloads, poison and
   statistics of a listener-and-peek reference recorder, and the
   materializer, given points in any order and some past the end, hands
   out each point's program-order prefix image and returns exactly the
   unreached keys. Two exact allocation tests pin the per-store cost of
   recording and materializing. The replay walk's source dedupe holds on
   the same programs: trace analysis reporting each (kind, code path)
   once leaves a report equal to every instance's, and the slot-level
   failure-point enumeration equals [offline_points] over the decoded
   events.

   Layer 4 — the load-free view: on the 15 clean targets and the 33 seeded
   bugs, the load-free view of a load-traced recording equals a load-free
   recording of the same execution — events with their stacks, digest,
   statistics and the materialized crash image at every failure point.
   Every phase but static analysis and fix verification reads that view,
   so this is what lets a run record the target once. *)

let app name =
  match Pmapps.Registry.find name with
  | Some m -> m
  | None -> Alcotest.failf "unknown app %s" name

let version_for name =
  if String.equal name "hashmap_atomic" then Pmalloc.Version.V1_6
  else Pmalloc.Version.V1_12

let wl ?(ops = 60) ?(key_range = 25) ?(seed = 42L) () =
  Workload.standard ~ops ~key_range ~seed

(* One target per seeded-bug component (the pmalloc library bugs need large
   grouped transactions to fire), mirroring test_parallel. *)
let target_for component () =
  match component with
  | "pmalloc" ->
      Targets.of_app (app "btree") ~tx_mode:(Targets.Grouped 64)
        ~workload:(wl ~ops:120 ()) ()
  | "montage" -> Targets.of_montage ~variant:`Buffered ~workload:(wl ()) ()
  | name ->
      Targets.of_app (app name) ~version:(version_for name) ~workload:(wl ()) ()

let all_seeded_bugs () =
  Pmapps.Registry.all_bugs @ Pmalloc.Bugs.all @ Montage.Mt_alloc.bugs

(* --- layer 1: the strategy differential --- *)

let strategies =
  [
    ("replay j=1", Mumak.Config.Replay, 1);
    ("replay j=4", Mumak.Config.Replay, 4);
    ("reexecute", Mumak.Config.Reexecute, 1);
  ]

(* Each fault-injection finding's image diff, rendered, keyed by the
   finding's signature. *)
let fi_image_diffs (r : Mumak.Engine.result) =
  List.filter_map
    (fun (p : Mumak.Provenance.t) ->
      match p.Mumak.Provenance.p_failure_point with
      | None -> None
      | Some _ ->
          let rendered =
            match p.Mumak.Provenance.p_image_diff with
            | None -> "no image diff"
            | Some d ->
                Printf.sprintf "%d differing (capped %b): %s" d.Mumak.Provenance.id_differing
                  d.Mumak.Provenance.id_capped
                  (String.concat "; "
                     (List.map
                        (fun (l : Mumak.Provenance.diff_line) ->
                          Printf.sprintf "line %d %s -> %s" l.Mumak.Provenance.dl_line
                            l.Mumak.Provenance.dl_crash l.Mumak.Provenance.dl_recovered)
                        d.Mumak.Provenance.id_lines))
          in
          Some (p.Mumak.Provenance.p_signature ^ " => " ^ rendered))
    r.Mumak.Engine.provenance

(* [overlay] is the configuration every engine runs under, with only the
   strategy and the worker count replaced from [engines], whose first two
   are replay runs. *)
let differential ?(overlay = Mumak.Config.default) ?(engines = strategies) ~bugs name
    make_target =
  Bugreg.with_enabled bugs (fun () ->
      let results =
        List.map
          (fun (label, strategy, jobs) ->
            let config = { overlay with Mumak.Config.strategy; jobs } in
            (label, Mumak.Engine.analyze ~config (make_target ())))
          engines
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
            (Mumak.Report.signature r.Mumak.Engine.report);
          Alcotest.(check (list string))
            (Printf.sprintf "%s: %s image diffs" name label)
            (fi_image_diffs base) (fi_image_diffs r))
        rest;
      List.iter
        (fun (label, r) ->
          List.iter
            (fun d ->
              if String.ends_with ~suffix:"no image diff" d then
                Alcotest.failf "%s: %s fault-injection finding without an image diff: %s" name
                  label d)
            (fi_image_diffs r))
        results;
      (* replay never re-executes: one recording, and the free stack
         resolution rides on it — under every overlay *)
      let executions = 1 in
      (match (engines, results) with
      | [ (seq_label, _, _); (par_label, _, jobs); _ ], [ _; (_, par); _ ] ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s executions" name seq_label)
            executions base.Mumak.Engine.executions;
          Alcotest.(check int)
            (Printf.sprintf "%s: %s executions" name par_label)
            executions par.Mumak.Engine.executions;
          if par.Mumak.Engine.failure_points >= jobs then
            Alcotest.(check int)
              (Printf.sprintf "%s: %s used %d worker domains" name par_label jobs)
              jobs
              (List.length par.Mumak.Engine.worker_metrics)
      | _ -> Alcotest.fail "expected two replay runs and a reexecute run");
      base)

let test_full_seeded_matrix () =
  let bugs = all_seeded_bugs () in
  Alcotest.(check int) "the seeded matrix has 33 bugs" 33 (List.length bugs);
  List.iter
    (fun (b : Bugreg.t) ->
      ignore
        (differential ~bugs:[ b.Bugreg.id ] b.Bugreg.id (target_for b.Bugreg.component)))
    bugs

let test_seeded_bugs_detected () =
  (* spot-check that the matrix actually exercises the oracle: a known
     correctness bug must be reported under the replay default *)
  let r =
    Bugreg.with_enabled [ "btree_insert_no_tx" ] (fun () ->
        Mumak.Engine.analyze (target_for "btree" ()))
  in
  Alcotest.(check bool) "seeded bug detected by replay" true
    (Mumak.Report.correctness_bugs r.Mumak.Engine.report <> [])

let test_clean_targets () =
  List.iter
    (fun name -> ignore (differential ~bugs:[] name (target_for name)))
    [ "btree"; "wort"; "hashmap_atomic"; "level_hash" ];
  ignore
    (differential ~bugs:[] "montage.Hashtable" (fun () ->
         Targets.of_montage ~variant:`Buffered ~workload:(wl ~ops:40 ()) ()));
  ignore
    (differential ~bugs:[] "pmemkv.cmap" (fun () ->
         Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Cmap ~workload:(wl ~ops:40 ()) ()));
  (* store-level granularity: both strategies' parallel shares *)
  ignore
    (differential
       ~overlay:{ Mumak.Config.default with Mumak.Config.granularity = Mumak.Config.Store_level }
       ~engines:
         [
           ("replay j=1", Mumak.Config.Replay, 1);
           ("replay j=3", Mumak.Config.Replay, 3);
           ("reexecute j=3", Mumak.Config.Reexecute, 3);
         ]
       ~bugs:[] "wort (store level)"
       (fun () ->
         Targets.of_app (app "wort") ~version:Pmalloc.Version.V1_12
           ~workload:(wl ~ops:20 ~key_range:10 ()) ()))

(* --- layer 2: the differential under configuration overlays --- *)

let absint_overlay = { Mumak.Config.default with Mumak.Config.absint = true }

let test_absint_clean () =
  List.iter
    (fun name -> ignore (differential ~overlay:absint_overlay ~bugs:[] name (target_for name)))
    [ "wort"; "btree" ]

let test_absint_seeded () =
  List.iter
    (fun id ->
      let component =
        match Bugreg.find id with
        | Some b -> b.Bugreg.component
        | None -> Alcotest.failf "unknown bug %s" id
      in
      ignore (differential ~overlay:absint_overlay ~bugs:[ id ] id (target_for component)))
    [ "btree_insert_no_tx"; "level_hash_token_before_kv"; "hm_atomic_count_never_flushed" ]

let test_static_seeded () =
  List.iter
    (fun (b : Bugreg.t) ->
      ignore
        (differential ~overlay:Mumak.Config.static_analysis ~bugs:[ b.Bugreg.id ] b.Bugreg.id
           (target_for b.Bugreg.component)))
    (all_seeded_bugs ())

(* --- layer 3: arena properties --- *)

(* A small pool of well-formed call paths: repetition exercises
   interning. *)
let path_pool =
  [ [ "_start" ]; [ "_start"; "put" ]; [ "_start"; "put"; "split" ]; [ "_start"; "del" ] ]

let pool_size = 4096

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          let* addr = 0 -- (pool_size - 9) in
          let* size = 1 -- 8 in
          let* nt = bool in
          return (Pmem.Op.Store { addr; size; nt }) );
        ( 3,
          let* kind = oneofl [ Pmem.Op.Clflush; Pmem.Op.Clflushopt; Pmem.Op.Clwb ] in
          let* line = 0 -- 63 in
          let* dirty = bool in
          return (Pmem.Op.Flush { kind; line; dirty; volatile = false }) );
        ( 2,
          let* kind = oneofl [ Pmem.Op.Sfence; Pmem.Op.Mfence; Pmem.Op.Rmw ] in
          let* pending_flushes = 0 -- 4 in
          let* pending_nt = 0 -- 2 in
          return (Pmem.Op.Fence { kind; pending_flushes; pending_nt }) );
        ( 1,
          let* addr = 0 -- (pool_size - 9) in
          let* size = 1 -- 8 in
          return (Pmem.Op.Load { addr; size }) );
      ])

let event_gen =
  QCheck.Gen.(
    let* n = 1 -- 40 in
    let* ops = list_size (return n) op_gen in
    let* stacks =
      list_size (return n)
        (frequency
           [
             ( 3,
               let* path = oneofl path_pool in
               let* op_index = 1 -- 5 in
               return (Some { Pmtrace.Callstack.path; op_index }) );
             (1, return None);
           ])
    in
    return
      (List.mapi
         (fun i (op, stack) -> { Pmtrace.Event.seq = i + 1; op; stack })
         (List.combine ops stacks)))

let print_events evs =
  String.concat "\n" (List.map (Fmt.to_to_string Pmtrace.Event.pp) evs)

let events_arb = QCheck.make ~print:print_events event_gen

let pseq_count evs =
  List.length
    (List.filter
       (fun e -> match e.Pmtrace.Event.op with Pmem.Op.Load _ -> false | _ -> true)
       evs)

let arena_of evs =
  let a = Pmtrace.Arena.create () in
  List.iter (Pmtrace.Arena.add a) evs;
  a

let arena_tests =
  [
    QCheck.Test.make ~name:"pack/unpack round-trip" ~count:300 events_arb (fun evs ->
        let a = arena_of evs in
        Pmtrace.Arena.length a = List.length evs && Pmtrace.Arena.to_list a = evs);
    QCheck.Test.make ~name:"get agrees with iteration order" ~count:100 events_arb
      (fun evs ->
        let a = arena_of evs in
        List.for_all2
          (fun e i -> Pmtrace.Arena.get a i = e)
          evs
          (List.init (List.length evs) Fun.id));
    QCheck.Test.make ~name:"interning stability: equal paths share one copy" ~count:100
      events_arb (fun evs ->
        let a = arena_of evs in
        let decoded = Pmtrace.Arena.to_list a in
        (* the arena never interns more paths than the pool offers, and two
           decoded events with structurally equal paths return the same
           physical list *)
        Pmtrace.Arena.path_count a <= List.length path_pool
        && List.for_all
             (fun e1 ->
               List.for_all
                 (fun e2 ->
                   match (e1.Pmtrace.Event.stack, e2.Pmtrace.Event.stack) with
                   | Some c1, Some c2
                     when c1.Pmtrace.Callstack.path = c2.Pmtrace.Callstack.path ->
                       c1.Pmtrace.Callstack.path == c2.Pmtrace.Callstack.path
                   | _ -> true)
                 decoded)
             decoded);
    QCheck.Test.make ~name:"path ids stable across clear" ~count:100 events_arb
      (fun evs ->
        let a = arena_of evs in
        let ids =
          List.filter_map
            (fun (e : Pmtrace.Event.t) ->
              Option.map
                (fun c -> (c.Pmtrace.Callstack.path, Pmtrace.Arena.path_id a c.Pmtrace.Callstack.path))
                e.Pmtrace.Event.stack)
            evs
        in
        Pmtrace.Arena.clear a;
        List.iter (Pmtrace.Arena.add a) evs;
        List.for_all (fun (path, id) -> Pmtrace.Arena.path_id a path = id) ids);
    QCheck.Test.make ~name:"rewrite on arena recordings = rewrite on lists" ~count:200
      (QCheck.pair events_arb (QCheck.make QCheck.Gen.(0 -- 1000)))
      (fun (evs, salt) ->
        let np = pseq_count evs in
        QCheck.assume (np > 0);
        (* insertions anchored on live pseqs always apply; deletions would
           need a matching instruction at the anchor, which the list and
           arena paths must agree on anyway via the shared rewriter *)
        let edits =
          [
            Pmtrace.Replay.Insert_flush_after { pseq = 1 + (salt mod np); line = salt mod 64 };
            Pmtrace.Replay.Insert_fence_after { pseq = 1 + (salt / 7 mod np) };
          ]
        in
        let t = Pmtrace.Replay.of_events ~pool_size evs in
        Pmtrace.Replay.events (Pmtrace.Replay.rewrite t edits)
        = Pmtrace.Replay.rewrite_events evs edits);
    QCheck.Test.make ~name:"materialized images = device-replay crash images" ~count:100
      events_arb (fun evs ->
        let np = pseq_count evs in
        np = 0
        ||
        let t = Pmtrace.Replay.of_events ~pool_size evs in
        (* batch-materialize every persistency index; snapshot each view
           inside the callback (it reads through the shared prefix and is
           only valid there) *)
        let materialized = Hashtbl.create np in
        let unreached =
          Pmtrace.Replay.materialize t
            ~points:(List.init np (fun i -> (i + 1, i + 1)))
            ~f:(fun ~key image ->
              Hashtbl.replace materialized key (Pmem.Image.snapshot image))
        in
        (* reference: a full device replay capturing the program-prefix
           crash image at each event's arrival *)
        let reference = Hashtbl.create np in
        ignore
          (Pmtrace.Replay.replay t ~on_event:(fun device ~pseq e ->
               match e.Pmtrace.Event.op with
               | Pmem.Op.Load _ -> ()
               | _ ->
                   Hashtbl.replace reference pseq
                     (Pmem.Device.crash device ~policy:Pmem.Device.Program_prefix)));
        unreached = []
        && Hashtbl.length materialized = np
        && List.for_all
             (fun p ->
               Pmem.Image.equal (Hashtbl.find materialized p) (Hashtbl.find reference p))
             (List.init np (fun i -> i + 1)));
  ]

(* --- the recorder against a reference, on random device programs --- *)

(* Device programs with stores of 1 B to 3 KB at any alignment (so they
   straddle lines), NT stores, allocator poison, the three flushes (a few
   of volatile addresses), both fences, RMWs and loads, nested in frames
   so events carry distinct stacks. *)
let prog_pool = 16384

type step =
  | Store of { addr : int; len : int; nt : bool; fill : int }
  | Poison of { addr : int; size : int }
  | Flush of { kind : Pmem.Op.flush_kind; addr : int }
  | Fence of Pmem.Op.fence_kind
  | Rmw of { addr : int; cas : bool }
  | Load of { addr : int; size : int }
  | Frame of string * step list

let step_gen =
  QCheck.Gen.(
    let flat =
      frequency
        [
          ( 6,
            let* len = frequency [ (3, 1 -- 16); (2, 17 -- 256); (1, 257 -- 3072) ] in
            let* addr = 0 -- (prog_pool - len) in
            let* nt = frequency [ (3, return false); (1, return true) ] in
            let* fill = 0 -- 255 in
            return (Store { addr; len; nt; fill }) );
          ( 1,
            let* size = 1 -- 200 in
            let* addr = 0 -- (prog_pool - size) in
            return (Poison { addr; size }) );
          ( 4,
            let* kind = oneofl [ Pmem.Op.Clflush; Pmem.Op.Clflushopt; Pmem.Op.Clwb ] in
            let* addr = frequency [ (9, 0 -- (prog_pool - 1)); (1, prog_pool -- (prog_pool + 4096)) ] in
            return (Flush { kind; addr }) );
          (2, map (fun k -> Fence k) (oneofl [ Pmem.Op.Sfence; Pmem.Op.Mfence ]));
          ( 1,
            let* addr = 0 -- (prog_pool - 8) in
            let* cas = bool in
            return (Rmw { addr; cas }) );
          ( 2,
            let* size = 1 -- 64 in
            let* addr = 0 -- (prog_pool - size) in
            return (Load { addr; size }) );
        ]
    in
    let* n = 1 -- 6 in
    list_size (return n)
      (frequency
         [
           (2, flat);
           ( 1,
             let* label = oneofl [ "put"; "split"; "del" ] in
             let* body = list_size (1 -- 8) flat in
             return (Frame (label, body)) );
         ]))

let prog_gen = QCheck.Gen.(map List.concat (list_size (1 -- 6) step_gen))

let rec print_step = function
  | Store { addr; len; nt; fill } ->
      Printf.sprintf "store%s %d+%d #%d" (if nt then ".nt" else "") addr len fill
  | Poison { addr; size } -> Printf.sprintf "poison %d+%d" addr size
  | Flush { kind; addr } -> Printf.sprintf "%s %d" (Pmem.Op.flush_kind_to_string kind) addr
  | Fence k -> Pmem.Op.fence_kind_to_string k
  | Rmw { addr; cas } -> Printf.sprintf "%s %d" (if cas then "cas" else "fetch_add") addr
  | Load { addr; size } -> Printf.sprintf "load %d+%d" addr size
  | Frame (label, body) ->
      Printf.sprintf "%s { %s }" label (String.concat "; " (List.map print_step body))

let prog_arb =
  QCheck.make prog_gen ~print:(fun prog -> String.concat "; " (List.map print_step prog))

let rec exec device (framer : Pmtrace.Framer.t) = function
  | Store { addr; len; nt; fill } ->
      (* distinct bytes, so a payload read at a shifted offset differs *)
      let b = Bytes.init len (fun i -> Char.unsafe_chr ((fill + (i * 7)) land 255)) in
      if nt then Pmem.Device.store_nt device ~addr b else Pmem.Device.store device ~addr b
  | Poison { addr; size } -> Pmem.Device.poison device ~addr ~size
  | Flush { kind = Pmem.Op.Clflush; addr } -> Pmem.Device.clflush device ~addr
  | Flush { kind = Pmem.Op.Clflushopt; addr } -> Pmem.Device.clflushopt device ~addr
  | Flush { kind = Pmem.Op.Clwb; addr } -> Pmem.Device.clwb device ~addr
  | Fence Pmem.Op.Mfence -> Pmem.Device.mfence device
  | Fence _ -> Pmem.Device.sfence device
  | Rmw { addr; cas = true } ->
      ignore (Pmem.Device.cas device ~addr ~expected:0L ~desired:(Int64.of_int (addr + 1)))
  | Rmw { addr; cas = false } -> ignore (Pmem.Device.fetch_add device ~addr 3L)
  | Load { addr; size } -> ignore (Pmem.Device.load device ~addr ~size)
  | Frame (label, body) ->
      framer.Pmtrace.Framer.frame label (fun () -> List.iter (exec device framer) body)

let run_prog prog ~device ~framer = List.iter (exec device framer) prog

(* The recorder built the listener way: a tracer whose listener captures
   every event's stack and reads the previous store's bytes with
   [Device.peek] at the next hook (and after the run, for the last). *)
let reference_record ~loads run =
  let device = Pmem.Device.create ~size:prog_pool () in
  Pmem.Device.trace_loads device loads;
  let tracer = Pmtrace.Tracer.create device in
  let events = ref [] and payloads = Hashtbl.create 64 and pending = ref None in
  let resolve () =
    match !pending with
    | Some (seq, addr, size) ->
        Hashtbl.replace payloads seq (Pmem.Device.peek device ~addr ~size);
        pending := None
    | None -> ()
  in
  Pmtrace.Tracer.add_listener tracer (fun e stack ->
      resolve ();
      events := { e with Pmtrace.Event.stack = Some (Pmtrace.Callstack.capture stack) } :: !events;
      match e.Pmtrace.Event.op with
      | Pmem.Op.Store { addr; size; _ } -> pending := Some (e.Pmtrace.Event.seq, addr, size)
      | _ -> ());
  run ~device ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer));
  resolve ();
  Pmtrace.Tracer.detach tracer;
  (List.rev !events, payloads, Pmem.Device.poison_log device, Pmem.Stats.copy (Pmem.Device.stats device))

(* The crash image at every persistency index, from a reference
   recording: a fresh device takes the recorded stores, with their
   payloads, and the poison in their recorded interleaving, and crashes
   under [Program_prefix] before each non-load event. Flushes and fences
   are not replayed: under [Program_prefix] they move no bytes (DESIGN
   decision 2). A device that replays them too disagrees with the
   program-order prefix on a few random programs, because a fence can
   change what the device's program view reads (ROADMAP item 1). *)
let prefix_images (events, payloads, poison, _) =
  let device = Pmem.Device.create ~size:prog_pool () in
  let images = Hashtbl.create 64 and pseq = ref 0 and poison = ref poison in
  let rec poison_before seq =
    match !poison with
    | (c, addr, size) :: rest when c < seq ->
        poison := rest;
        Pmem.Device.poison device ~addr ~size;
        poison_before seq
    | _ -> ()
  in
  List.iter
    (fun (e : Pmtrace.Event.t) ->
      poison_before e.Pmtrace.Event.seq;
      match e.Pmtrace.Event.op with
      | Pmem.Op.Load _ -> ()
      | op -> (
          incr pseq;
          Hashtbl.replace images !pseq
            (Pmem.Device.crash device ~policy:Pmem.Device.Program_prefix);
          match op with
          | Pmem.Op.Store { addr; nt; _ } ->
              let b = Hashtbl.find payloads e.Pmtrace.Event.seq in
              if nt then Pmem.Device.store_nt device ~addr b else Pmem.Device.store device ~addr b
          | _ -> ()))
    events;
  images

let shuffle seed l =
  let st = Random.State.make [| seed |] in
  List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))

let recorder_tests =
  [
    QCheck.Test.make ~name:"recorder = listener-and-peek reference" ~count:200
      (QCheck.pair prog_arb QCheck.bool) (fun (prog, loads) ->
        let r = Pmtrace.Replay.record ~loads ~pool_size:prog_pool (run_prog prog) in
        let events, payloads, poison, stats = reference_record ~loads (run_prog prog) in
        if Pmtrace.Replay.events r <> events then QCheck.Test.fail_report "events differ";
        List.iteri
          (fun i (e : Pmtrace.Event.t) ->
            let expected = Hashtbl.find_opt payloads e.Pmtrace.Event.seq in
            if Pmtrace.Replay.payload r i <> expected then
              QCheck.Test.fail_reportf "payload of event %d (%s) differs" i
                (Pmem.Op.to_string e.Pmtrace.Event.op))
          events;
        Pmtrace.Replay.poison_log r = poison && Pmtrace.Replay.stats r = stats);
    QCheck.Test.make ~name:"materialize: points in any order, some past the end" ~count:200
      (QCheck.triple prog_arb QCheck.bool QCheck.int) (fun (prog, loads, seed) ->
        let r = Pmtrace.Replay.record ~loads ~pool_size:prog_pool (run_prog prog) in
        let reference = prefix_images (reference_record ~loads (run_prog prog)) in
        let np = Hashtbl.length reference in
        let past = [ np + 1; np + 2; np + 9 ] in
        let key pseq = 1000 + pseq in
        let points =
          shuffle seed (List.map (fun p -> (key p, p)) (List.init np (fun i -> i + 1) @ past))
        in
        let got = Hashtbl.create 64 in
        let unreached =
          Pmtrace.Replay.materialize r ~points ~f:(fun ~key image ->
              if Hashtbl.mem got key then QCheck.Test.fail_reportf "key %d handed twice" key;
              Hashtbl.replace got key (Pmem.Image.snapshot image))
        in
        List.sort compare unreached = List.map key past
        && Hashtbl.length got = np
        && List.for_all
             (fun p -> Pmem.Image.equal (Hashtbl.find got (key p)) (Hashtbl.find reference p))
             (List.init np (fun i -> i + 1)));
  ]

(* --- code-path identity at the source, on random device programs --- *)

(* Trace analysis's findings, added to a report the way the engine adds
   them: each one's stack read off the recording at its seq. *)
let ta_findings r ta =
  let trace = Pmtrace.Replay.arena r in
  let report = Mumak.Report.create ~target:"prog" in
  List.iter
    (fun (raw : Mumak.Trace_analysis.raw) ->
      ignore
        (Mumak.Report.add report
           {
             Mumak.Report.kind = raw.Mumak.Trace_analysis.kind;
             phase = Mumak.Report.Trace_analysis;
             stack = Pmtrace.Arena.capture trace (raw.Mumak.Trace_analysis.seq - 1);
             seq = Some raw.Mumak.Trace_analysis.seq;
             detail = raw.Mumak.Trace_analysis.detail;
             fix = None;
           }))
    (Mumak.Trace_analysis.finish ta);
  Mumak.Report.findings report

let source_dedupe_tests =
  [
    QCheck.Test.make ~name:"deduped trace analysis = every instance, through the report"
      ~count:200 (QCheck.triple prog_arb QCheck.bool QCheck.bool) (fun (prog, loads, eadr) ->
        let r = Pmtrace.Replay.record ~loads ~pool_size:prog_pool (run_prog prog) in
        let config = { Mumak.Config.default with Mumak.Config.eadr } in
        let every = Mumak.Trace_analysis.create config in
        List.iter (Mumak.Trace_analysis.feed every) (Pmtrace.Replay.events r);
        let trace = Pmtrace.Replay.arena r in
        let deduped = Mumak.Trace_analysis.create ~trace config in
        for i = 0 to Pmtrace.Arena.length trace - 1 do
          Mumak.Trace_analysis.step deduped i
        done;
        ta_findings r deduped = ta_findings r every
        && Mumak.Trace_analysis.event_count deduped = Mumak.Trace_analysis.event_count every);
    QCheck.Test.make ~name:"slot enumeration = offline_points" ~count:200
      (QCheck.triple prog_arb QCheck.bool QCheck.bool) (fun (prog, loads, store_level) ->
        let r = Pmtrace.Replay.record ~loads ~pool_size:prog_pool (run_prog prog) in
        let config =
          {
            Mumak.Config.default with
            Mumak.Config.granularity =
              (if store_level then Mumak.Config.Store_level
               else Mumak.Config.Persistency_instruction);
          }
        in
        let trace = Pmtrace.Replay.arena r in
        let en = Mumak.Fault_injection.enumeration config in
        for i = 0 to Pmtrace.Arena.length trace - 1 do
          Mumak.Fault_injection.enumerate_slot en trace i
        done;
        Mumak.Fault_injection.enumerated en
        = Mumak.Fault_injection.offline_points config (Pmtrace.Replay.events r));
  ]

(* Exact allocation, read around the call ({!Mumak.Metrics.allocated_bytes}). *)
let allocated f =
  let before = Mumak.Metrics.allocated_bytes () in
  let result = f () in
  (result, Mumak.Metrics.allocated_bytes () -. before)

(* [n] stores of the same [len] bytes at address 0, then a fence. *)
let stores_then_fence ~len n ~device ~framer:_ =
  let b = Bytes.make len 'x' in
  for _ = 1 to n do
    Pmem.Device.store device ~addr:0 b
  done;
  Pmem.Device.sfence device

(* The pass blits each payload from the slab into the prefix image and
   reads packed slots: with one point at the end, its allocation does not
   grow with the number of stores. *)
let test_materialize_allocation () =
  let cost n =
    let r = Pmtrace.Replay.record ~pool_size:8192 (stores_then_fence ~len:64 n) in
    snd
      (allocated (fun () ->
           Pmtrace.Replay.materialize r ~points:[ (0, n + 1) ] ~f:(fun ~key:_ _ -> ())))
  in
  ignore (cost 10);
  Alcotest.(check (float 0.)) "bytes allocated: 1,000 stores vs 4,000" (cost 1000) (cost 4000)

(* The recorder copies a store's bytes once, from the device into the slab.
   The slab's buffer doubles, so going from [n] to [2 n] stores of 4 KiB
   ([n] a power of two) it allocates one buffer of [2 n * 4096] bytes, 8 KiB
   per added store; a copy per store would add 4 KiB more. The rest — the
   device's op for the hook and the slab's offset array — stays under 256
   bytes per store. *)
let test_record_allocation () =
  let cost n = snd (allocated (fun () -> Pmtrace.Replay.record ~pool_size:8192 (stores_then_fence ~len:4096 n))) in
  ignore (cost 64);
  let per_store = (cost 256 -. cost 128) /. 128. in
  if per_store > 8192. +. 256. then
    Alcotest.failf "%.0f bytes allocated per added 4 KiB store (budget 8,448)" per_store

(* --- layer 4: the load-free view --- *)

let clean_names =
  List.map (fun (module A : Pmapps.Kv_intf.S) -> A.name) Pmapps.Registry.apps
  @ [ "montage.hashtable"; "montage.lf_hashtable"; "pmemkv.cmap"; "pmemkv.stree"; "redis";
      "rocksdb" ]

let clean_target name () =
  let workload = wl () in
  match name with
  | "montage.hashtable" -> Targets.of_montage ~variant:`Buffered ~workload ()
  | "montage.lf_hashtable" -> Targets.of_montage ~variant:`Lockfree ~workload ()
  | "pmemkv.cmap" -> Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Cmap ~workload ()
  | "pmemkv.stree" -> Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Stree ~workload ()
  | "redis" -> Targets.of_redis ~workload ()
  | "rocksdb" -> Targets.of_rocksdb ~workload ()
  | name -> Targets.of_app (app name) ~version:(version_for name) ~workload ()

(* The crash image at each failure point of a recording, as the digest of
   the view's bytes. *)
let point_images recording =
  let points =
    Mumak.Fault_injection.offline_points Mumak.Config.default
      (Pmtrace.Replay.events recording)
  in
  let images = ref [] in
  let unreached =
    Pmtrace.Replay.materialize recording
      ~points:(List.map (fun (ordinal, pseq, _) -> (ordinal, pseq)) points)
      ~f:(fun ~key image ->
        let bytes = Pmem.Image.read image ~addr:0 ~size:(Pmem.Image.size image) in
        images := (key, Digest.to_hex (Digest.bytes bytes)) :: !images)
  in
  (List.length points, unreached, List.sort compare !images)

let check_load_free_view name make_target =
  let record loads =
    let target = make_target () in
    Pmtrace.Replay.record ~loads ~pool_size:target.Mumak.Target.pool_size
      (fun ~device ~framer -> target.Mumak.Target.run ~device ~framer)
  in
  let plain = record false and loaded = record true in
  let view = Pmtrace.Replay.load_free loaded in
  Alcotest.(check bool)
    (name ^ ": the recording traced loads")
    true
    (Pmtrace.Replay.length loaded > Pmtrace.Replay.length plain);
  let render r = List.map (Fmt.to_to_string Pmtrace.Event.pp) (Pmtrace.Replay.events r) in
  Alcotest.(check (list string)) (name ^ ": events and stacks") (render plain) (render view);
  Alcotest.(check string) (name ^ ": digest") (Pmtrace.Replay.digest plain)
    (Pmtrace.Replay.digest view);
  Alcotest.(check bool) (name ^ ": stats") true
    (Pmtrace.Replay.stats plain = Pmtrace.Replay.stats view);
  let points, unreached, images = point_images plain in
  let points', unreached', images' = point_images view in
  Alcotest.(check int) (name ^ ": failure points") points points';
  Alcotest.(check (list int)) (name ^ ": every point reached") [] (unreached @ unreached');
  Alcotest.(check (list (pair int string))) (name ^ ": crash images") images images'

let test_load_free_view_clean () =
  List.iter (fun name -> check_load_free_view name (clean_target name)) clean_names

let test_load_free_view_seeded () =
  List.iter
    (fun (b : Bugreg.t) ->
      Bugreg.with_enabled [ b.Bugreg.id ] (fun () ->
          check_load_free_view b.Bugreg.id (target_for b.Bugreg.component)))
    (all_seeded_bugs ())

let () =
  Alcotest.run "replay-engine"
    [
      ( "strategy-differential",
        [
          Alcotest.test_case "seeded bugs, three engines" `Slow
            test_full_seeded_matrix;
          Alcotest.test_case "seeded bug detected under replay" `Slow
            test_seeded_bugs_detected;
          Alcotest.test_case "clean suite, three engines" `Slow test_clean_targets;
        ] );
      (* the absint runs last: the abstract interpreter's peak heap on
         level_hash dwarfs everything else this suite allocates *)
      ( "overlay-differential",
        [
          Alcotest.test_case "static: seeded bugs" `Slow test_static_seeded;
          Alcotest.test_case "absint: clean targets" `Slow test_absint_clean;
          Alcotest.test_case "absint: seeded bugs" `Slow test_absint_seeded;
        ] );
      ( "load-free-view",
        [
          Alcotest.test_case "clean targets" `Slow test_load_free_view_clean;
          Alcotest.test_case "seeded bugs" `Slow test_load_free_view_seeded;
        ] );
      ( "arena",
        List.map (QCheck_alcotest.to_alcotest ~long:false) (arena_tests @ recorder_tests)
        @ [
            Alcotest.test_case "materialize allocates per point, not per store" `Quick
              test_materialize_allocation;
            Alcotest.test_case "recording copies each payload once" `Quick
              test_record_allocation;
          ] );
      ("source-dedupe", List.map (QCheck_alcotest.to_alcotest ~long:false) source_dedupe_tests);
    ]
