(* perfbench: time to verdict of `mumak analyze`, end to end (--trace 0) or
   per layer (--trace 1), on one named workload. A closed loop with one
   caller on one domain; every verdict is checked against ground truth, and
   every timing is host-normalized. README.md has the workloads, metrics and
   how to run it. *)

open Perfbench

(* Normalized durations read as ms at the host speed at which one reference
   unit takes [r0_ms] (its median on the 2-vCPU host the bounds were set on). *)
let r0_ms = 12.0

(* Before each analysis the reference runs one unit per started
   [ref_every_ms] of the previous analysis (at least one, at most ten), so
   reference time is a steady share of the run whatever its mix. *)
let ref_every_ms = 100.

(* A duration is normalized by the mean reference unit over the samples
   taken within [window_s] of its start: single samples are too noisy on a
   shared host to rescale one analysis each, and the host's speed moves
   within a run. *)
let window_s = 5.

(* The analyses react to host contention about half as strongly as the
   reference does (in log terms; measured slopes 0.4-0.85 over 60 runs,
   README.md), so a duration is scaled by the square root of R0 / r. *)
let sensitivity = 0.5

let out_dir = Filename.concat "perfbench" "_out"

type args = {
  workload : Matrix.workload;
  seed : int;
  seconds : float;
  trace : bool;
}

let usage msg =
  Printf.eprintf
    "perfbench: %s\n\
     usage: bench.exe --workload %s --seed N --seconds S --trace 0|1\n"
    msg
    (String.concat "|" (List.map fst Matrix.workload_names));
  exit 2

let parse_args argv =
  let int_arg k v = match int_of_string_opt v with Some n -> n | None -> usage (k ^ " " ^ v) in
  let rec go (w, seed, seconds, trace) = function
    | [] -> (w, seed, seconds, trace)
    | "--workload" :: v :: rest -> go (Some v, seed, seconds, trace) rest
    | "--seed" :: v :: rest -> go (w, Some (int_arg "--seed" v), seconds, trace) rest
    | "--seconds" :: v :: rest -> go (w, seed, Some (int_arg "--seconds" v), trace) rest
    | "--trace" :: v :: rest -> go (w, seed, seconds, Some (int_arg "--trace" v)) rest
    | a :: _ -> usage ("unexpected argument " ^ a)
  in
  match go (None, None, None, None) (List.tl (Array.to_list argv)) with
  | Some w, Some seed, Some seconds, trace when seconds > 0 -> (
      match (Matrix.workload_of_string w, trace) with
      | None, _ -> usage ("unknown workload " ^ w)
      | Some workload, (None | Some 0 | Some 1) ->
          { workload; seed; seconds = float_of_int seconds; trace = trace = Some 1 }
      | Some _, Some t -> usage (Printf.sprintf "--trace %d" t))
  | _ -> usage "--workload, --seed and --seconds (> 0) are required"

let now = Telemetry.Clock.now_ns
let ms_between t0 t1 = float_of_int (t1 - t0) /. 1e6

(* ------------------------------------------------------------------ *)
(* One verdict, as a user waits for it                                 *)
(* ------------------------------------------------------------------ *)

type op = {
  at : int;  (** start, monotonic ns *)
  ok : bool;  (** the analysis (and append) returned *)
  executions : int;
  plans_verified : int;
  raw_ms : float;  (** Engine.analyze, plus the ledger append on detect-matrix *)
  analyze_ms : float;
  alloc : float;  (** bytes *)
  minor : int;
  major : int;
}

let record_of ~config (c : Matrix.t) result =
  Store.Record.of_result ~target:c.Matrix.ledger_target ~workload:c.Matrix.descriptor ~config
    result

(* [run_op ~config ~ledger c] — one timed verdict; returns its timing and
   the analysis outcome, which the caller checks and then drops, so that no
   result outlives its own measurement. *)
let run_op ~config ~ledger (c : Matrix.t) =
  let q0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let result, t1 =
    match
      Bugreg.with_enabled c.Matrix.bugs (fun () -> Mumak.Engine.analyze ~config c.Matrix.target)
    with
    | r -> (
        let t1 = now () in
        match ledger with
        | None -> (Ok r, t1)
        | Some l -> (
            match Store.Ledger.append_run l (record_of ~config c r) with
            | _ -> (Ok r, t1)
            | exception e -> (Error ("ledger append: " ^ Printexc.to_string e), t1)))
    | exception e -> (Error (Printexc.to_string e), now ())
  in
  let t2 = now () in
  let a1 = Gc.allocated_bytes () in
  let q1 = Gc.quick_stat () in
  let executions, plans_verified =
    match result with
    | Ok r ->
        ( r.Mumak.Engine.executions,
          match r.Mumak.Engine.opt with Some o -> o.Analysis.Opt.verified | None -> 0 )
    | Error _ -> (0, 0)
  in
  ( {
    at = t0;
    ok = Result.is_ok result;
    executions;
    plans_verified;
    raw_ms = ms_between t0 t2;
    analyze_ms = ms_between t0 t1;
    alloc = a1 -. a0;
    minor = q1.Gc.minor_collections - q0.Gc.minor_collections;
    major = q1.Gc.major_collections - q0.Gc.major_collections;
  },
    result )

(* ------------------------------------------------------------------ *)
(* The verdict check                                                   *)
(* ------------------------------------------------------------------ *)

type check = {
  baselines : (string, Mumak.Report.t) Hashtbl.t;  (** clean reports of the cold pass *)
  signatures : (string, string list) Hashtbl.t;  (** first signature per configuration *)
  mutable attempted : int;
  mutable failed : int;
  mutable scored : int;  (** measured analyses, the base of wrong_verdict_ratio *)
  mutable wrong : int;
  misses : (string, int) Hashtbl.t;  (** known misses seen, by bug id *)
  mutable problems : string list;
}

let new_check () =
  {
    baselines = Hashtbl.create 16;
    signatures = Hashtbl.create 64;
    attempted = 0;
    failed = 0;
    scored = 0;
    wrong = 0;
    misses = Hashtbl.create 2;
    problems = [];
  }

let fail chk fmt =
  Printf.ksprintf
    (fun msg ->
      chk.failed <- chk.failed + 1;
      chk.problems <- msg :: chk.problems)
    fmt

(* [verify chk c outcome ~measured] — scores one analysis: it must not
   raise, its report signature must equal the first one seen for [c] this
   run, and its verdict must agree with the ground truth (a documented known
   miss is counted but does not fail the run). [measured] analyses form the
   base of wrong_verdict_ratio. *)
let verify chk (c : Matrix.t) outcome ~measured =
  chk.attempted <- chk.attempted + 1;
  if measured then chk.scored <- chk.scored + 1;
  let wrong () = if measured then chk.wrong <- chk.wrong + 1 in
  match outcome with
  | Error msg ->
      wrong ();
      fail chk "%s: analysis raised %s" c.Matrix.name msg
  | Ok (r : Mumak.Engine.result) ->
      let report = r.Mumak.Engine.report in
      let signature = Mumak.Report.signature report in
      (match Hashtbl.find_opt chk.signatures c.Matrix.name with
      | None -> Hashtbl.replace chk.signatures c.Matrix.name signature
      | Some s when s = signature -> ()
      | Some _ -> fail chk "%s: report signature changed between passes" c.Matrix.name);
      if c.Matrix.expect = Matrix.Clean && not (Hashtbl.mem chk.baselines c.Matrix.name) then
        Hashtbl.replace chk.baselines c.Matrix.name report;
      match Matrix.verdict_ok c report ~baseline:(Hashtbl.find chk.baselines) with
      | exception Not_found -> fail chk "%s: its clean baseline did not run" c.Matrix.name
      | true -> ()
      | false ->
        wrong ();
        if List.mem_assoc c.Matrix.name Matrix.known_misses then begin
          if measured then Hashtbl.replace chk.misses c.Matrix.name
            (1 + Option.value ~default:0 (Hashtbl.find_opt chk.misses c.Matrix.name))
        end
        else fail chk "%s: verdict disagrees with the ground truth" c.Matrix.name

(* ------------------------------------------------------------------ *)
(* Host normalization                                                  *)
(* ------------------------------------------------------------------ *)

(* The run's reference samples, newest first. *)
let refs : Stats.ref_sample list ref = ref []

(* Reference units before the next analysis, then a compaction, so that the
   analysis too starts from a compacted heap. *)
let take_ref ~prev_ms =
  let units = max 1 (min 10 (int_of_float (Float.ceil (prev_ms /. ref_every_ms)))) in
  let at = now () in
  let ms = Refkernel.sample ~units in
  refs := { Stats.at; ms; units } :: !refs;
  Gc.compact ()

let factor_at t =
  Stats.factor_at ~r0:r0_ms ~sensitivity ~radius:(int_of_float (window_s *. 1e9)) !refs t

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; base : string }

let metric ?(base = "") name unit_ value = { name; value; unit_; base }

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-34s %14.4f %-6s %s\n" m.name m.value m.unit_ m.base)
    ms

let result_json ~correct ~attempted ~failed ms =
  let open Telemetry.Json in
  to_string
    (Assoc
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Assoc
             (List.map
                (fun m -> (m.name, Assoc [ ("value", Float m.value); ("unit", String m.unit_) ]))
                ms) );
       ])

(* VmHWM of this process, in MB (10^6 bytes). *)
let peak_rss_mb () =
  let from_proc =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | l -> (
              match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
              | Some kb -> Some (float_of_int kb *. 1024. /. 1e6)
              | None -> scan ())
        in
        Fun.protect ~finally:(fun () -> close_in ic) scan
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let () =
  let t_start = now () in
  let args = parse_args Sys.argv in
  Refkernel.fix_gc ();
  (* stock Level Hashing recovery, as `mumak analyze` runs it *)
  Pmapps.Level_hash.use_enhanced_recovery := false;
  let config = Matrix.config_of args.workload in
  let configs, baselines = Matrix.configurations args.workload ~seed:args.seed in
  let ledger_dir = Filename.concat out_dir (Printf.sprintf "ledger-%d" (Unix.getpid ())) in
  let ledger =
    if args.workload = Matrix.Detect_matrix then Some (Store.Ledger.open_ ~dir:ledger_dir ())
    else None
  in
  let inputs_ms = ms_between t_start (now ()) in
  let chk = new_check () in
  (* Set-up: the inputs above, then one cold pass over the configurations
     (baselines first), which is also the first verdict check. The
     benchmark's own reference samples and compactions are left out. *)
  let prev_ms = ref 0. in
  let step (c : Matrix.t) ~measured =
    take_ref ~prev_ms:!prev_ms;
    let op, result = run_op ~config ~ledger c in
    prev_ms := op.raw_ms;
    verify chk c result ~measured;
    op
  in
  let setup_pieces =
    (t_start, inputs_ms)
    :: List.map
         (fun c ->
           let op = step c ~measured:false in
           (op.at, op.raw_ms))
         (baselines @ configs)
  in
  let setup_raw_ms = Stats.sum (List.map snd setup_pieces) in
  (* The measured loop: whole passes over the configurations until
     [seconds] have gone by. *)
  let tracer = Layers.tracer () in
  let samples = ref [] and traced = ref [] in
  let t_measure = now () in
  let deadline = t_measure + int_of_float (args.seconds *. 1e9) in
  let passes = ref 0 in
  while !passes = 0 || now () < deadline do
    incr passes;
    List.iteri
      (fun ci (c : Matrix.t) ->
        samples := step c ~measured:true :: !samples;
        if args.trace then begin
          Gc.compact ();
          let group = (!passes * List.length configs) + ci in
          let at = now () in
          match Layers.analyze tracer ~group ~config ~ledger c with
          | result, m, oracle_ns, mismatches ->
              verify chk c (Ok result) ~measured:false;
              List.iter (fun msg -> fail chk "%s: faithfulness %s" c.Matrix.name msg) mismatches;
              traced := (factor_at at, m, oracle_ns) :: !traced
          | exception e -> verify chk c (Error (Printexc.to_string e)) ~measured:false
        end)
      configs
  done;
  let measured_s = ms_between t_measure (now ()) /. 1e3 in
  Option.iter (fun _ -> rm_rf ledger_dir) ledger;
  (* ---- end-to-end metrics ---- *)
  let ok = List.filter (fun op -> op.ok) (List.rev !samples) in
  let n = List.length ok in
  let nf = float_of_int (max 1 n) in
  let count = Printf.sprintf "%d analyses" n in
  let raw_ms = List.map (fun op -> op.raw_ms) ok in
  let norm_ms = List.map (fun op -> op.raw_ms *. factor_at op.at) ok in
  let total_norm_s = Stats.sum norm_ms /. 1e3 in
  let mean_of g = Stats.sum (List.map g ok) /. nf in
  let e2e =
    [
      metric "setup_s" "s"
        (Stats.sum (List.map (fun (at, ms) -> ms *. factor_at at) setup_pieces) /. 1e3)
        ~base:
          (Printf.sprintf "%d configurations, 1 cold pass"
             (List.length baselines + List.length configs));
      metric "verdict_ms.p50" "ms" (Option.value ~default:0. (Stats.median norm_ms)) ~base:count;
      metric "analyses_per_s" "1/s" (float_of_int n /. total_norm_s) ~base:count;
      metric "alloc_mb_per_analysis" "MB" (mean_of (fun op -> op.alloc) /. 1e6) ~base:count;
      metric "peak_rss_mb" "MB" (peak_rss_mb ()) ~base:"VmHWM at exit";
      metric "executions_per_analysis" "count"
        (mean_of (fun op -> float_of_int op.executions))
        ~base:count;
    ]
  in
  let misses =
    Hashtbl.fold (fun id k acc -> Printf.sprintf "%s x%d" id k :: acc) chk.misses []
    |> List.sort compare
  in
  let host =
    [
      (let units = List.fold_left (fun n (r : Stats.ref_sample) -> n + r.Stats.units) 0 !refs in
       metric "host.ref_ms" "ms"
         (Stats.sum (List.map (fun (r : Stats.ref_sample) -> r.Stats.ms) !refs)
         /. float_of_int units)
         ~base:(Printf.sprintf "%d reference units" units));
      metric "host.raw_verdict_ms.p50" "ms"
        (Option.value ~default:0. (Stats.median raw_ms))
        ~base:count;
      metric "host.raw_analyses_per_s" "1/s"
        (float_of_int n /. (Stats.sum raw_ms /. 1e3))
        ~base:count;
    ]
  in
  let extra =
    [
      (match Stats.tail norm_ms 0.9 with
      | Some v -> metric "verdict_ms.p90" "ms" v ~base:count
      | None ->
          metric "verdict_ms.p90" "ms" Float.nan
            ~base:(Printf.sprintf "refused: %d analyses < %d" n (Stats.min_samples_for 0.9)));
      metric "wrong_verdict_ratio" "ratio"
        (float_of_int chk.wrong /. float_of_int (max 1 chk.scored))
        ~base:
          (Printf.sprintf "%d/%d analyses%s" chk.wrong chk.scored
             (match misses with [] -> "" | l -> "; known misses: " ^ String.concat ", " l));
    ]
    @ (if args.workload = Matrix.Optimize_small then
         [
           metric "plans_verified_per_s" "1/s"
             (Stats.sum (List.map (fun op -> float_of_int op.plans_verified) ok) /. total_norm_s)
             ~base:count;
         ]
       else [])
    @ (if args.trace then [] else host)
    @ [ metric "host.raw_setup_s" "s" (setup_raw_ms /. 1e3) ~base:"set-up, not normalized" ]
  in
  (* ---- per-layer metrics (traced run) ---- *)
  let layer =
    if not args.trace then []
    else begin
      let traced = List.rev !traced in
      let nt = float_of_int (max 1 (List.length traced)) in
      let get m k = Option.value ~default:0. (Hashtbl.find_opt m k) in
      let total k = Stats.sum (List.map (fun (_, m, _) -> get m k) traced) in
      let total_ms k =
        Stats.sum (List.map (fun (f, m, _) -> get m (k ^ "_ns") *. f) traced) /. 1e6
      in
      let per k = total k /. nt in
      let per_ms k = total_ms k /. nt in
      let per_mb k = per (k ^ "_alloc") /. 1e6 in
      let ratio a b = if b = 0. then 0. else a /. b in
      let engine_layers =
        [ "record"; "unpack"; "absint"; "lint"; "optimize"; "trace_analysis"; "enumerate";
          "materialize"; "oracle" ]
      in
      let oracle_us =
        List.concat_map (fun (f, _, calls) -> List.map (fun ns -> ns *. f /. 1e3) calls) traced
      in
      let verify_ms = per_ms "optimize" -. per_ms "synthesize" in
      let overhead =
        let engine = List.map (fun (f, m, _) -> get m "engine_ns" *. f /. 1e6) traced in
        let untraced = List.map (fun op -> op.analyze_ms *. factor_at op.at) ok in
        match (Stats.median engine, Stats.median untraced) with
        | Some t, Some u when u > 0. -> ((t /. u) -. 1.) *. 100.
        | _ -> 0.
      in
      let base = Printf.sprintf "%d traced analyses" (List.length traced) in
      let m ?(base = base) name unit_ v = metric name unit_ v ~base in
      [
        m "pmtrace.record_ms" "ms" (per_ms "record");
        m "pmtrace.record_alloc_mb" "MB" (per_mb "record");
        m "pmtrace.events_per_analysis" "count" (per "events");
        m "pmtrace.unpack_ms" "ms" (per_ms "unpack");
        m "pmtrace.unpack_alloc_mb" "MB" (per_mb "unpack");
        m "pmtrace.materialize_ms" "ms" (per_ms "materialize");
        m "pmtrace.materialize_us_per_image" "us"
          (ratio (total_ms "materialize" *. 1e3) (total "images"));
        m "pmtrace.materialize_alloc_mb" "MB" (per_mb "materialize");
        m "fault_injection.enumerate_ms" "ms" (per_ms "enumerate");
        m "fault_injection.failure_points" "count" (per "images");
        m "oracle.ms" "ms" (per_ms "oracle");
        m "oracle.calls" "count" (per "oracle_calls");
        m "oracle.us_per_call.p50" "us"
          (Option.value ~default:0. (Stats.median oracle_us))
          ~base:(Printf.sprintf "%d calls" (List.length oracle_us));
        m "oracle.flagged_ratio" "ratio"
          (ratio (total "oracle_flagged") (total "oracle_calls"))
          ~base:(Printf.sprintf "%.0f/%.0f calls" (total "oracle_flagged") (total "oracle_calls"));
        m "oracle.alloc_mb" "MB" (ratio (total "oracle_alloc") (total "oracle_calls") /. 1e6)
          ~base:"per call";
        m "trace_analysis.ms" "ms" (per_ms "trace_analysis");
        m "trace_analysis.alloc_mb" "MB" (per_mb "trace_analysis");
        m "engine.residual_ms" "ms"
          (per_ms "engine" -. Stats.sum (List.map per_ms engine_layers));
        m "engine.residual_alloc_mb" "MB"
          (per_mb "engine" -. Stats.sum (List.map per_mb engine_layers));
        m "engine.findings" "count" (per "findings");
        m "engine.image_diffs" "count" (per "image_diffs");
        m "store.append_ms" "ms" (per_ms "append");
        m "store.record_kb" "KB" (per "record_bytes" /. 1e3);
        m "analysis.lint_ms" "ms" (per_ms "lint");
        m "analysis.absint_ms" "ms" (per_ms "absint");
        m "analysis.synthesize_ms" "ms" (per_ms "synthesize");
        m "analysis.verify_ms" "ms" verify_ms;
        m "analysis.plans_synthesized" "count" (per "plans_synthesized");
        m "analysis.plans_verified" "count" (per "plans_verified");
        m "analysis.replays" "count" (per "replays");
        m "analysis.ms_per_replay" "ms" (ratio (verify_ms *. nt) (total "replays"));
        m "analysis.proven_ratio" "ratio"
          (ratio (total "plans_proven") (total "plans_verified"))
          ~base:(Printf.sprintf "%.0f/%.0f plans" (total "plans_proven") (total "plans_verified"));
        m "analysis.alloc_mb" "MB" (per_mb "absint" +. per_mb "lint" +. per_mb "optimize");
        m "gc.minor_collections" "count" (mean_of (fun op -> float_of_int op.minor)) ~base:count;
        m "gc.major_collections" "count" (mean_of (fun op -> float_of_int op.major)) ~base:count;
      ]
      @ host
      @ [ m "trace.overhead_pct" "%" overhead ]
    end
  in
  if args.trace then begin
    Store.Ledger.mkdir_p out_dir;
    let path =
      Filename.concat out_dir
        (Printf.sprintf "spans-%s-seed%d.jsonl" (Matrix.workload_name args.workload) args.seed)
    in
    Layers.write_spans tracer ~origin:t_start path;
    Printf.printf "spans: %s\n" path
  end;
  Printf.printf
    "perfbench %s seed=%d: %d pass(es), %d analyses in %.1f s measured (setup %.2f s raw)\n"
    (Matrix.workload_name args.workload) args.seed !passes n measured_s (setup_raw_ms /. 1e3);
  List.iter (fun p -> Printf.printf "FAILED %s\n" p) (List.rev chk.problems);
  print_table "end to end (host-normalized):" (e2e @ extra);
  if args.trace then print_table "per layer (traced run, host-normalized):" layer;
  let correct = chk.failed = 0 in
  print_endline
    (result_json ~correct ~attempted:chk.attempted ~failed:chk.failed
       (if args.trace then layer else e2e));
  exit (if correct then 0 else 1)
