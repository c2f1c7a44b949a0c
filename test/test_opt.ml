(* Tests for the optimizer pipeline (cost model + plan synthesis + replay
   verification):
   - cost model: the static table's per-op weights, summed over a trace,
     price the optimizer's baseline and every plan's measured savings;
   - synthesis on synthetic traces with one planted opportunity per rule
     (batch_fences, coalesce_flushes, move_flush, convert_to_nt,
     convert_to_clwb — the last never fires on the kvstore matrix, so only
     a synthetic trace covers it);
   - end-to-end optimize() on synthetic recordings: proven verdicts for
     safe rewrites, deterministic plan order;
   - the one-pass verifier against the copying reference (full replay,
     Device.crash snapshot at every failure point, oracle on a copy) on
     the 15 clean targets, eADR off and on: equal fresh keys per view and
     final-image verdicts, with the oracle run once per view at each
     failure point from the first edit on — including the first edit's
     own point and points followed by loads; and the same with one
     oracle memo shared by every pass, which must judge no image twice;
   - qcheck: Replay.rewrite edit composition — renumbering stays
     consecutive under overlapping move+delete sets, edit-list order is
     irrelevant, and rewriting an arena-backed recording equals rewriting
     its event list;
   - the engine differential on a kvstore: >=1 proven bundle, zero harmful
     shipped, executions stay 1, the report signature is byte-identical
     to the same run with the optimizer off, and a second analysis of the
     same workload gives byte-identical optimizer JSON. *)

module Replay = Pmtrace.Replay
module Opt = Analysis.Opt
module Cost = Analysis.Cost

let pool_size = 1 lsl 16

(* --- synthetic trace construction ---------------------------------- *)

let cap path op_index = { Pmtrace.Callstack.path; op_index }

let mk_events ops =
  List.mapi
    (fun i (op, stack) -> { Pmtrace.Event.seq = i + 1; op; stack })
    ops

let store ?(nt = false) ?stack addr size = (Pmem.Op.Store { addr; size; nt }, stack)

let flush ?(kind = Pmem.Op.Clwb) ?stack line =
  (Pmem.Op.Flush { kind; line; dirty = true; volatile = false }, stack)

let fence ?stack () =
  (Pmem.Op.Fence { kind = Pmem.Op.Sfence; pending_flushes = 0; pending_nt = 0 }, stack)

(* Flush [dirty]/[volatile] bits and fence pending counts above are
   placeholders; the device recomputes them. *)
let normalized ops =
  Replay.normalize_events ~pool_size (mk_events ops)

let plans_of ops = Opt.synthesize ~weights:Cost.static_weights (normalized ops)

let rules plans = List.map (fun p -> p.Opt.p_rule) plans

(* --- cost model ----------------------------------------------------- *)

let test_static_weights () =
  let w = Cost.static_weights in
  let cycles op = Cost.op_cycles w op in
  Alcotest.(check int) "store" w.Cost.w_store
    (cycles (Pmem.Op.Store { addr = 0; size = 8; nt = false }));
  Alcotest.(check int) "nt store" w.Cost.w_nt_store
    (cycles (Pmem.Op.Store { addr = 0; size = 8; nt = true }));
  Alcotest.(check int) "clwb" w.Cost.w_clwb
    (cycles (Pmem.Op.Flush { kind = Pmem.Op.Clwb; line = 0; dirty = true; volatile = false }));
  Alcotest.(check int) "clflush" w.Cost.w_clflush
    (cycles (Pmem.Op.Flush { kind = Pmem.Op.Clflush; line = 0; dirty = true; volatile = false }));
  Alcotest.(check int) "sfence" w.Cost.w_sfence
    (cycles (Pmem.Op.Fence { kind = Pmem.Op.Sfence; pending_flushes = 0; pending_nt = 0 }));
  Alcotest.(check int) "loads are free" 0
    (cycles (Pmem.Op.Load { addr = 0; size = 8 }));
  (* the lint anchors: optimizer projections and lint estimates share a scale *)
  Alcotest.(check int) "clwb matches lint's flush estimate" 250 w.Cost.w_clwb;
  Alcotest.(check int) "sfence matches lint's fence estimate" 30 w.Cost.w_sfence

(* --- synthesis rules ------------------------------------------------ *)

let test_rule_batch_fences () =
  let f1 = cap [ "main"; "commit" ] 4 and f2 = cap [ "main"; "commit" ] 9 in
  let plans =
    plans_of
      [
        store 0 8; flush ~stack:(cap [ "main" ] 2) 0; fence ~stack:f1 (); fence ~stack:f2 ();
      ]
  in
  Alcotest.(check (list string)) "one batching plan" [ "batch_fences" ] (rules plans);
  let p = List.hd plans in
  Alcotest.(check int) "one instance" 1 p.Opt.p_instances;
  Alcotest.(check bool) "deletes the first fence of the pair" true
    (p.Opt.p_edits = [ Replay.Delete_fence_at { pseq = 3 } ])

let test_rule_batch_fences_negative () =
  (* distinct frame paths: no batching opportunity *)
  let f1 = cap [ "main"; "commit" ] 4 and f2 = cap [ "main"; "flush_log" ] 9 in
  let plans =
    plans_of
      [
        store 0 8; flush ~stack:(cap [ "main" ] 2) 0; fence ~stack:f1 (); fence ~stack:f2 ();
      ]
  in
  Alcotest.(check (list string)) "no plan across frames" [] (rules plans)

let test_rule_coalesce () =
  (* two sites flush the same line in one epoch; the later site survives *)
  let a = cap [ "main"; "update_a" ] 2 and b = cap [ "main"; "update_b" ] 5 in
  let plans =
    plans_of
      [ store 0 8; flush ~stack:a 0; store 0 8; flush ~stack:b 0; fence ~stack:(cap [ "main" ] 7) () ]
  in
  Alcotest.(check (list string)) "one coalesce plan" [ "coalesce_flushes" ] (rules plans);
  let p = List.hd plans in
  Alcotest.(check bool) "deletes the earlier site's capture" true
    (p.Opt.p_edits = [ Replay.Delete_flush_at { pseq = 2 } ])

let test_rule_move () =
  (* one site flushes the same line per iteration; a store follows the
     surviving capture, so the plan both deletes and moves *)
  let site = cap [ "main"; "append" ] 3 in
  let plans =
    plans_of
      [
        store 0 8; flush ~stack:site 0; store 0 8; flush ~stack:site 0; store 0 8;
        fence ~stack:(cap [ "main" ] 9) ();
      ]
  in
  Alcotest.(check (list string)) "one move plan" [ "move_flush" ] (rules plans);
  let p = List.hd plans in
  Alcotest.(check bool) "deletes the first capture and moves the survivor" true
    (p.Opt.p_edits
    = [ Replay.Delete_flush_at { pseq = 2 }; Replay.Move_flush_to { pseq = 4; to_pseq = 5 } ])

let test_rule_convert_nt () =
  (* sole writer of two lines, both captured afterwards, epoch fenced *)
  let s = cap [ "main"; "write_buf" ] 1 in
  let plans =
    plans_of
      [
        store ~stack:s 0 128;
        flush ~stack:(cap [ "main"; "persist" ] 4) 0;
        flush ~stack:(cap [ "main"; "persist" ] 4) 1;
        fence ~stack:(cap [ "main" ] 6) ();
      ]
  in
  Alcotest.(check (list string)) "one conversion plan" [ "convert_to_nt" ] (rules plans);
  let p = List.hd plans in
  Alcotest.(check bool) "converts the store and drops both captures" true
    (p.Opt.p_edits
    = [
        Replay.Set_store_nt { pseq = 1 }; Replay.Delete_flush_at { pseq = 2 };
        Replay.Delete_flush_at { pseq = 3 };
      ]);
  Alcotest.(check int) "removes two events" 2 p.Opt.p_projected_events;
  (* a second writer of the same line kills the rule *)
  let plans =
    plans_of
      [
        store ~stack:s 0 128; store ~stack:(cap [ "main"; "other" ] 9) 0 8;
        flush ~stack:(cap [ "main"; "persist" ] 4) 0;
        flush ~stack:(cap [ "main"; "persist" ] 4) 1;
        fence ~stack:(cap [ "main" ] 6) ();
      ]
  in
  Alcotest.(check bool) "not the sole writer: no conversion" true
    (not (List.mem "convert_to_nt" (rules plans)))

let test_rule_convert_clwb () =
  let f = cap [ "main"; "persist" ] 3 in
  let plans =
    plans_of
      [ store 0 8; flush ~kind:Pmem.Op.Clflush ~stack:f 0; fence ~stack:(cap [ "main" ] 5) () ]
  in
  Alcotest.(check (list string)) "one downgrade plan" [ "convert_to_clwb" ] (rules plans);
  let p = List.hd plans in
  Alcotest.(check bool) "swaps the instruction" true
    (p.Opt.p_edits = [ Replay.Set_flush_kind { pseq = 2; kind = Pmem.Op.Clwb } ]);
  Alcotest.(check int) "removes no event" 0 p.Opt.p_projected_events;
  Alcotest.(check int) "saves the clflush-clwb delta"
    (Cost.static_weights.Cost.w_clflush - Cost.static_weights.Cost.w_clwb)
    p.Opt.p_projected_cycles;
  (* an unfenced epoch blocks the downgrade *)
  let plans = plans_of [ store 0 8; flush ~kind:Pmem.Op.Clflush ~stack:f 0 ] in
  Alcotest.(check (list string)) "no plan without a closing fence" [] (rules plans)

let test_synthesis_deterministic () =
  let site = cap [ "main"; "append" ] 3 in
  let ops =
    [
      store 0 8; flush ~stack:site 0; store 0 8; flush ~stack:site 0;
      store ~stack:(cap [ "main"; "write_buf" ] 1) 128 64;
      flush ~stack:(cap [ "main"; "persist" ] 4) 2;
      fence ~stack:(cap [ "main"; "commit" ] 7) (); fence ~stack:(cap [ "main"; "commit" ] 9) ();
    ]
  in
  let a = plans_of ops and b = plans_of ops in
  Alcotest.(check bool) "synthesis is deterministic" true (a = b);
  Alcotest.(check bool) "plans are ranked best projection first" true
    (let rec sorted = function
       | x :: (y :: _ as rest) ->
           x.Opt.p_projected_cycles >= y.Opt.p_projected_cycles && sorted rest
       | _ -> true
     in
     sorted a)

(* --- end-to-end optimize() on synthetic recordings ------------------ *)

let optimize_events ops =
  let evs = mk_events ops in
  let noload = Replay.of_events ~pool_size evs in
  Opt.optimize ~weights:Cost.static_weights ~support:3 ~confidence:0.9 ~eadr:false
    ~oracle:(fun _ -> None)
    ~points:(Mumak.Fault_injection.offline_points Mumak.Config.default)
    noload

let test_optimize_proves_safe_plans () =
  let site = cap [ "main"; "persist" ] 3 in
  let o =
    optimize_events
      [ store 0 8; flush ~kind:Pmem.Op.Clflush ~stack:site 0; fence ~stack:(cap [ "main" ] 5) () ]
  in
  Alcotest.(check int) "one plan synthesized" 1 o.Opt.synthesized;
  Alcotest.(check int) "proven" 1 o.Opt.proven;
  Alcotest.(check int) "no harmful" 0 o.Opt.harmful;
  let b = List.hd (Opt.shipped o) in
  Alcotest.(check int) "cycles saved are replay-measured"
    (Cost.static_weights.Cost.w_clflush - Cost.static_weights.Cost.w_clwb)
    b.Opt.b_measured_cycles;
  Alcotest.(check int) "no events removed" 0 b.Opt.b_measured_events

let test_optimize_batch_and_tally () =
  let f1 = cap [ "main"; "commit" ] 4 and f2 = cap [ "main"; "commit" ] 9 in
  let o =
    optimize_events
      [
        store 0 8; flush ~stack:(cap [ "main" ] 2) 0; fence ~stack:f1 (); fence ~stack:f2 ();
      ]
  in
  Alcotest.(check int) "proven" 1 o.Opt.proven;
  Alcotest.(check int) "verified = synthesized below the cap" o.Opt.synthesized o.Opt.verified;
  (* one baseline pass plus one pass per verified plan *)
  Alcotest.(check int) "replay accounting" (1 + o.Opt.verified) o.Opt.replays;
  let b = List.hd (Opt.shipped o) in
  Alcotest.(check int) "one fence removed" 1 b.Opt.b_measured_events;
  Alcotest.(check bool) "pure deletion: measured equals projected" true
    (b.Opt.b_measured_cycles = b.Opt.b_plan.Opt.p_projected_cycles)

(* The static table prices a trace op by op, and the optimizer measures
   every plan with it: its baseline is the trace's cycles and a plan's
   saving is the baseline minus the cycles of the rewritten trace. *)
let test_measure_and_trace_cycles () =
  let ops =
    [
      store 0 8; flush 0; fence ();
      store 64 8; flush ~kind:Pmem.Op.Clflush ~stack:(cap [ "main"; "persist" ] 3) 1;
      fence ~stack:(cap [ "main" ] 5) ();
    ]
  in
  let evs = normalized ops in
  let w = Cost.static_weights in
  Alcotest.(check int) "trace_cycles sums the per-op weights"
    ((2 * w.Cost.w_store) + w.Cost.w_clwb + w.Cost.w_clflush + (2 * w.Cost.w_sfence))
    (Cost.trace_cycles w evs);
  let o = optimize_events ops in
  Alcotest.(check int) "baseline cycles are the trace's" (Cost.trace_cycles w evs)
    o.Opt.baseline_cycles;
  let shipped = Opt.shipped o in
  Alcotest.(check bool) "a plan ships" true (shipped <> []);
  List.iter
    (fun b ->
      Alcotest.(check int)
        (b.Opt.b_plan.Opt.p_rule ^ ": measured cycles = baseline - rewritten")
        (Cost.trace_cycles w evs
        - Cost.trace_cycles w (Replay.rewrite_events evs b.Opt.b_plan.Opt.p_edits))
        b.Opt.b_measured_cycles)
    shipped

(* --- the one-pass verifier against the copying reference ------------ *)

module VF = Analysis.Verify_fix

let views = [ Pmem.Device.Program_prefix; Pmem.Device.Adr ]
let points = Mumak.Fault_injection.offline_points Mumak.Config.default

(* An oracle that flags an image by its content — one bit of a
   multiplicative hash over the pool prefix the workload can have touched
   — and then writes through the device it opened on the image, so a view
   that leaked writes into the replaying device would shift later
   verdicts. [open_] is how the oracle gets a device: adopting the view it
   is handed, or copying it. *)
let content_oracle ~open_ ~span calls img =
  incr calls;
  let dev = open_ img in
  let bytes = Pmem.Device.peek dev ~addr:0 ~size:span in
  let h = ref 0 in
  for i = 0 to (span / 8) - 1 do
    h := (!h * 0x100000001b3) lxor Int64.to_int (Bytes.get_int64_le bytes (i * 8))
  done;
  let h = !h land max_int in
  let addr = (h lsr 8) mod (span - 8) in
  Pmem.Device.store dev ~addr (Bytes.make 8 '\xab');
  Pmem.Device.clflush dev ~addr;
  if h land 1 = 1 then Some ("content", string_of_int h) else None

(* The parent algorithm, kept as the reference: replay the whole trace,
   snapshot the crash image of every failure point under each view with
   Device.crash, judge each snapshot once through a copy, and snapshot the
   final persisted image. *)
let reference ~oracle recording =
  let want = Hashtbl.create 64 in
  List.iter
    (fun (_, pseq, capture) -> Hashtbl.replace want pseq capture)
    (points (Replay.events recording));
  let keys = Array.make (List.length views) VF.Keys.empty in
  let device =
    Replay.replay recording ~on_event:(fun device ~pseq _ ->
        match Hashtbl.find_opt want pseq with
        | None -> ()
        | Some capture ->
            Hashtbl.remove want pseq;
            List.iteri
              (fun i policy ->
                match oracle (Pmem.Device.crash device ~policy) with
                | None -> ()
                | Some (kind, _) ->
                    let key = kind ^ "@" ^ Pmtrace.Callstack.capture_to_string capture in
                    keys.(i) <- VF.Keys.add key keys.(i))
              views)
  in
  (Array.to_list keys, Pmem.Device.persisted_image device)

(* Per view, the keys of [got] that [had] lacks. *)
let fresh got had = List.map2 (fun g h -> VF.Keys.elements (VF.Keys.diff g h)) got had

let verifier_targets ~ops =
  let workload = Targets.standard_workload ~ops ~key_range:20 () in
  List.map
    (fun (module A : Pmapps.Kv_intf.S) ->
      let version =
        if String.equal A.name "hashmap_atomic" then Pmalloc.Version.V1_6
        else Pmalloc.Version.V1_12
      in
      (A.name, Targets.of_app (module A) ~version ~workload ()))
    Pmapps.Registry.apps
  @ [
      ("montage.hashtable", Targets.of_montage ~variant:`Buffered ~workload ());
      ("montage.lf_hashtable", Targets.of_montage ~variant:`Lockfree ~workload ());
      ("pmemkv.cmap", Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Cmap ~workload ());
      ("pmemkv.stree", Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Stree ~workload ());
      ("redis", Targets.of_redis ~workload ());
      ("rocksdb", Targets.of_rocksdb ~workload ());
    ]

let test_verifier_differential () =
  let targets = verifier_targets ~ops:20 in
  Alcotest.(check int) "15 clean targets" 15 (List.length targets);
  let judged = ref 0 in
  List.iter
    (fun (name, (target : Mumak.Target.t)) ->
      List.iter
        (fun eadr ->
          let noload =
            Replay.record ~eadr ~pool_size:target.Mumak.Target.pool_size
              (fun ~device ~framer -> target.Mumak.Target.run ~device ~framer)
          in
          let span =
            min target.Mumak.Target.pool_size
              ((Replay.stats noload).Pmem.Stats.high_water_mark + 4096)
          in
          let calls = ref 0 in
          let adopted = content_oracle ~open_:(Pmem.Device.adopt ~eadr) ~span calls in
          let copied = content_oracle ~open_:(Pmem.Device.of_image ~eadr) ~span (ref 0) in
          let base = VF.pass ~views ~points ~oracle:adopted noload in
          let base_image = Pmem.Device.persisted_image base.VF.device in
          let ref_base, ref_image = reference ~oracle:copied noload in
          let label what = Printf.sprintf "%s eadr=%b: %s" name eadr what in
          Alcotest.(check (list (list string))) (label "baseline keys")
            (List.map VF.Keys.elements ref_base)
            (List.map VF.Keys.elements base.VF.bugs);
          let plans =
            Opt.synthesize ~weights:Cost.static_weights (Replay.events noload)
            |> List.filteri (fun i _ -> i < 4)
          in
          List.iter
            (fun (plan : Opt.plan) ->
              match Replay.rewrite noload plan.Opt.p_edits with
              | exception Failure _ -> ()
              | rewritten ->
                  incr judged;
                  let from =
                    List.fold_left
                      (fun p ed -> min p (Replay.edit_anchor ed))
                      max_int plan.Opt.p_edits
                  in
                  calls := 0;
                  let re = VF.pass ~from ~views ~points ~oracle:adopted rewritten in
                  let ref_keys, ref_final = reference ~oracle:copied rewritten in
                  let what =
                    label (plan.Opt.p_rule ^ " " ^ Analysis.Fix.anchor_to_string plan.Opt.p_fix)
                  in
                  Alcotest.(check (list (list string))) (what ^ ": fresh keys per view")
                    (fresh ref_keys ref_base) (fresh re.VF.bugs base.VF.bugs);
                  Alcotest.(check bool) (what ^ ": final image verdict")
                    (Pmem.Image.equal ref_final ref_image)
                    (Pmem.Device.persisted_equal re.VF.device base_image);
                  let from_p =
                    List.length
                      (List.filter
                         (fun (_, pseq, _) -> pseq >= from)
                         (points (Replay.events rewritten)))
                  in
                  Alcotest.(check int) (what ^ ": oracle calls")
                    (from_p * List.length views) !calls)
            plans)
        [ false; true ])
    targets;
  Alcotest.(check bool) "some rewrites judged" true (!judged > 0)

(* The memoized verifier against the copying reference: one memo, filled
   by the baseline pass and shared by every recheck, as
   [Verify_fix.baseline] uses it. Each rewrite must get the reference's
   fresh keys per view and its final-image verdict (compared by
   fingerprint), the oracle must never see an image it has already judged
   (told apart by a digest of the view's bytes, not by the fingerprint
   under test), and the memo must answer some views. *)
let test_verifier_memo_differential () =
  let judged = ref 0 in
  List.iter
    (fun (name, (target : Mumak.Target.t)) ->
      List.iter
        (fun eadr ->
          let noload =
            Replay.record ~eadr ~pool_size:target.Mumak.Target.pool_size
              (fun ~device ~framer -> target.Mumak.Target.run ~device ~framer)
          in
          let span =
            min target.Mumak.Target.pool_size
              ((Replay.stats noload).Pmem.Stats.high_water_mark + 4096)
          in
          let calls = ref 0 and views_judged = ref 0 in
          let seen = Hashtbl.create 64 and repeats = ref 0 in
          let adopted img =
            let id = Digest.bytes (Pmem.Image.read img ~addr:0 ~size:(Pmem.Image.size img)) in
            if Hashtbl.mem seen id then incr repeats else Hashtbl.add seen id ();
            content_oracle ~open_:(Pmem.Device.adopt ~eadr) ~span calls img
          in
          let copied = content_oracle ~open_:(Pmem.Device.of_image ~eadr) ~span (ref 0) in
          let memo = VF.memo () in
          let judge ?(from = 1) recording =
            views_judged :=
              !views_judged
              + List.length views
                * List.length
                    (List.filter
                       (fun (_, pseq, _) -> pseq >= from)
                       (points (Replay.events recording)));
            VF.pass ~from ~memo ~views ~points ~oracle:adopted recording
          in
          let base = judge noload in
          let base_image = Pmem.Device.persisted_fingerprint base.VF.device in
          let ref_base, ref_image = reference ~oracle:copied noload in
          let label what = Printf.sprintf "%s eadr=%b: %s" name eadr what in
          Alcotest.(check (list (list string))) (label "memoized baseline keys")
            (List.map VF.Keys.elements ref_base)
            (List.map VF.Keys.elements base.VF.bugs);
          Opt.synthesize ~weights:Cost.static_weights (Replay.events noload)
          |> List.filteri (fun i _ -> i < 4)
          |> List.iter (fun (plan : Opt.plan) ->
                 match Replay.rewrite noload plan.Opt.p_edits with
                 | exception Failure _ -> ()
                 | rewritten ->
                     incr judged;
                     let from =
                       List.fold_left
                         (fun p ed -> min p (Replay.edit_anchor ed))
                         max_int plan.Opt.p_edits
                     in
                     let re = judge ~from rewritten in
                     let ref_keys, ref_final = reference ~oracle:copied rewritten in
                     let what =
                       label
                         (plan.Opt.p_rule ^ " " ^ Analysis.Fix.anchor_to_string plan.Opt.p_fix)
                     in
                     Alcotest.(check (list (list string))) (what ^ ": memoized fresh keys per view")
                       (fresh ref_keys ref_base) (fresh re.VF.bugs base.VF.bugs);
                     Alcotest.(check bool) (what ^ ": final image verdict by fingerprint")
                       (Pmem.Image.equal ref_final ref_image)
                       (String.equal (Pmem.Device.persisted_fingerprint re.VF.device) base_image));
          Alcotest.(check int) (label "no image judged twice") 0 !repeats;
          Alcotest.(check bool) (label "the memo answers some views") true
            (!calls < !views_judged))
        [ false; true ])
    (verifier_targets ~ops:20);
  Alcotest.(check bool) "some rewrites judged" true (!judged > 0)

(* The recheck's final-image test reads the persisted image alone, by
   fingerprint: moving a clwb past a later store to its line persists that
   store too, which changes the persisted image (harm under [preserve])
   though every store stays in the program-prefix view; a clwb turned
   into clflushopt persists the same bytes. *)
let test_recheck_final_image () =
  let recording =
    Replay.record ~pool_size (fun ~device ~framer:_ ->
        Pmem.Device.store_i64 device ~addr:0 1L;
        Pmem.Device.clwb device ~addr:0;
        Pmem.Device.store_i64 device ~addr:8 2L;
        Pmem.Device.sfence device)
  in
  let base =
    VF.baseline ~support:3 ~confidence:0.9 ~eadr:false ~adr:true
      ~oracle:(fun _ -> None)
      ~points:(fun _ -> [])
      recording
  in
  let harm ~preserve edits =
    match base.VF.recheck ~preserve edits with
    | Ok r -> Option.map VF.harm_to_string r.VF.r_harm
    | Error msg -> Some ("rewrite failed: " ^ msg)
  in
  let moved = [ Replay.Move_flush_to { pseq = 2; to_pseq = 3 } ] in
  Alcotest.(check (option string)) "a changed persisted image is harm"
    (Some (VF.harm_to_string VF.Image_changed))
    (harm ~preserve:true moved);
  Alcotest.(check (option string)) "only under preserve" None (harm ~preserve:false moved);
  Alcotest.(check (option string)) "the same persisted image is not" None
    (harm ~preserve:true [ Replay.Set_flush_kind { pseq = 2; kind = Pmem.Op.Clflushopt } ])

(* Deleting the first of two fences makes the second one a failure point
   at the deleted fence's own index: the first edit's anchor is judged
   too, not only what follows it. *)
let test_verifier_judges_first_edit () =
  let f1 = cap [ "main"; "commit" ] 4 and f2 = cap [ "main"; "commit" ] 9 in
  let noload =
    Replay.of_events ~pool_size
      (mk_events
         [ store ~stack:(cap [ "main" ] 1) 0 8; fence ~stack:f1 (); fence ~stack:f2 () ])
  in
  let edits = [ Replay.Delete_fence_at { pseq = 2 } ] in
  let calls = ref 0 in
  let flag _ =
    incr calls;
    Some ("flagged", "")
  in
  let base = VF.pass ~views ~points ~oracle:flag noload in
  calls := 0;
  let re = VF.pass ~from:2 ~views ~points ~oracle:flag (Replay.rewrite noload edits) in
  let key = "flagged@" ^ Pmtrace.Callstack.capture_to_string f2 in
  Alcotest.(check (list (list string))) "the promoted fence is judged" [ [ key ]; [ key ] ]
    (fresh re.VF.bugs base.VF.bugs);
  Alcotest.(check int) "once per view" 2 !calls

(* A load that follows a failure point shares its pseq; the verifier must
   still judge the point once, before its own event, and never again on a
   later image. *)
let test_verifier_judges_each_point_once () =
  let workload = Targets.standard_workload ~ops:30 ~key_range:20 () in
  let target = Targets.of_app (module Pmapps.Btree) ~workload () in
  let loaded =
    Replay.record ~loads:true ~pool_size:target.Mumak.Target.pool_size
      (fun ~device ~framer -> target.Mumak.Target.run ~device ~framer)
  in
  let store_level =
    Mumak.Fault_injection.offline_points
      { Mumak.Config.default with Mumak.Config.granularity = Mumak.Config.Store_level }
  in
  let events = Replay.events loaded in
  let pts = store_level events in
  let at = Hashtbl.create 64 in
  List.iter (fun (_, pseq, _) -> Hashtbl.replace at pseq ()) pts;
  (* the recording has the shape that re-judged points: a failure point's
     event directly followed by a load *)
  let rec followed_by_load pseq = function
    | (a : Pmtrace.Event.t) :: ((b : Pmtrace.Event.t) :: _ as rest) ->
        let pseq =
          match a.Pmtrace.Event.op with Pmem.Op.Load _ -> pseq | _ -> pseq + 1
        in
        (match (a.Pmtrace.Event.op, b.Pmtrace.Event.op) with
        | Pmem.Op.Load _, _ -> false
        | _, Pmem.Op.Load _ -> Hashtbl.mem at pseq
        | _ -> false)
        || followed_by_load pseq rest
    | _ -> false
  in
  Alcotest.(check bool) "a failure point is followed by a load" true (followed_by_load 0 events);
  let calls = ref 0 in
  ignore
    (VF.pass ~views:[ Pmem.Device.Program_prefix ] ~points:store_level
       ~oracle:(fun _ ->
         incr calls;
         None)
       loaded);
  Alcotest.(check int) "one oracle call per failure point" (List.length pts) !calls

(* --- qcheck: rewrite edit composition ------------------------------- *)

(* A random well-formed epoch sequence: each epoch stores to a few lines,
   flushes each dirtied line (possibly repeatedly), and closes with a
   fence. Stacks are synthesized per position so every event is a
   failure-point candidate. *)
let gen_trace =
  QCheck.Gen.(
    let epoch epoch_idx =
      list_size (int_range 1 4) (int_range 0 7) >>= fun lines ->
      int_range 1 2 >>= fun repeats ->
      let ops =
        List.concat_map
          (fun line ->
            let s = store ~stack:(cap [ "main"; "op" ] (epoch_idx * 100)) (line * 64) 8 in
            let fl =
              List.init repeats (fun r ->
                  flush ~stack:(cap [ "main"; "op" ] ((epoch_idx * 100) + 10 + r)) line)
            in
            s :: fl)
          lines
      in
      return (ops @ [ fence ~stack:(cap [ "main"; "op" ] ((epoch_idx * 100) + 50)) () ])
    in
    int_range 1 5 >>= fun n ->
    let rec go i acc =
      if i >= n then return (List.concat (List.rev acc))
      else epoch i >>= fun e -> go (i + 1) (e :: acc)
    in
    go 0 [])

(* Random edits against the trace: delete a subset of flushes, move some
   of the surviving flushes to the epoch's fence, delete non-final
   fences — overlapping and adjacent anchors included by construction. *)
let gen_edits_for evs =
  let insts =
    List.filteri (fun _ _ -> true) evs
    |> List.filter_map (fun (e : Pmtrace.Event.t) ->
           match e.Pmtrace.Event.op with Pmem.Op.Load _ -> None | op -> Some op)
  in
  let n = List.length insts in
  QCheck.Gen.(
    list_size (int_range 0 (max 1 (n / 2))) (int_range 1 n) >>= fun picks ->
    let picks = List.sort_uniq compare picks in
    let op_at p = List.nth insts (p - 1) in
    let next_fence_after p =
      let rec go i = function
        | [] -> None
        | Pmem.Op.Fence _ :: _ when i > p -> Some i
        | _ :: rest -> go (i + 1) rest
      in
      go 1 insts
    in
    let edits =
      List.filter_map
        (fun p ->
          match op_at p with
          | Pmem.Op.Flush _ ->
              if p mod 2 = 0 then Some (Replay.Delete_flush_at { pseq = p })
              else
                Option.map
                  (fun d -> Replay.Move_flush_to { pseq = p; to_pseq = d - 1 })
                  (next_fence_after p)
          | Pmem.Op.Fence _ when p < n -> Some (Replay.Delete_fence_at { pseq = p })
          | _ -> None)
        picks
    in
    (* moving to the slot just before a fence can collide with deleting
       that slot's flush — keep such overlaps, they are the point — but a
       move whose source was also picked for delete is contradictory;
       drop the move *)
    let deleted =
      List.filter_map (function Replay.Delete_flush_at { pseq } -> Some pseq | _ -> None) edits
    in
    return
      (List.filter
         (function
           | Replay.Move_flush_to { pseq; to_pseq } ->
               (not (List.mem pseq deleted)) && to_pseq > pseq
           | _ -> true)
         edits))

let arb_trace_and_edits =
  QCheck.make
    ~print:(fun (evs, edits) ->
      Printf.sprintf "%d events; edits: %s" (List.length evs)
        (String.concat "; " (List.map Replay.edit_to_string edits)))
    QCheck.Gen.(gen_trace >>= fun ops ->
                let evs = mk_events ops in
                gen_edits_for evs >>= fun edits -> return (evs, edits))

let deletions =
  List.filter (function
    | Replay.Delete_flush_at _ | Replay.Delete_fence_at _ -> true
    | _ -> false)

let qcheck_rewrite_renumbers =
  QCheck.Test.make ~name:"rewrite renumbers seqs consecutively from 1" ~count:200
    arb_trace_and_edits (fun (evs, edits) ->
      let out = Replay.rewrite_events evs edits in
      List.length out = List.length evs - List.length (deletions edits)
      && List.for_all2
           (fun i (e : Pmtrace.Event.t) -> e.Pmtrace.Event.seq = i)
           (List.init (List.length out) (fun i -> i + 1))
           out)

let qcheck_rewrite_order_free =
  QCheck.Test.make ~name:"edit-list order never changes the rewrite" ~count:200
    arb_trace_and_edits (fun (evs, edits) ->
      Replay.rewrite_events evs edits = Replay.rewrite_events evs (List.rev edits))

let qcheck_rewrite_arena_roundtrip =
  QCheck.Test.make ~name:"rewritten recordings survive arena serialization" ~count:100
    arb_trace_and_edits (fun (evs, edits) ->
      let noload = Replay.of_events ~pool_size evs in
      Replay.events (Replay.rewrite noload edits) = Replay.rewrite_events evs edits)

let qcheck_rewrite_normalizes =
  QCheck.Test.make ~name:"rewritten traces normalize without error" ~count:100
    arb_trace_and_edits (fun (evs, edits) ->
      let out = Replay.rewrite_events evs edits in
      List.length (Replay.normalize_events ~pool_size out) = List.length out)

(* --- the engine differential on a kvstore --------------------------- *)

let test_engine_kvstore () =
  let workload = Targets.standard_workload ~ops:120 ~key_range:60 () in
  let target () = Targets.of_redis ~workload () in
  let r = Mumak.Engine.analyze ~config:Mumak.Config.optimizing (target ()) in
  let o = Option.get r.Mumak.Engine.opt in
  Alcotest.(check bool) "at least one proven bundle" true (o.Opt.proven >= 1);
  let shipped = Opt.shipped o in
  Alcotest.(check bool) "shipped bundles reduce persist events" true
    (List.exists (fun b -> b.Opt.b_measured_events > 0) shipped);
  Alcotest.(check bool) "nothing shipped is unproven" true
    (List.for_all (fun b -> b.Opt.b_verdict = Analysis.Verify_fix.Proven) shipped);
  Alcotest.(check int) "optimize adds zero executions" 1 r.Mumak.Engine.executions;
  let base =
    Mumak.Engine.analyze
      ~config:{ Mumak.Config.optimizing with Mumak.Config.optimize = false }
      (target ())
  in
  Alcotest.(check bool) "report signature untouched by the phase" true
    (Mumak.Report.signature base.Mumak.Engine.report
    = Mumak.Report.signature r.Mumak.Engine.report);
  (* the optimizer is a function of the workload: a second analysis ranks,
     verifies and prices the same plans, byte for byte *)
  let again = Mumak.Engine.analyze ~config:Mumak.Config.optimizing (target ()) in
  let opt_json r = Telemetry.Json.to_string (Opt.to_json (Option.get r.Mumak.Engine.opt)) in
  Alcotest.(check string) "optimizer JSON repeats" (opt_json r) (opt_json again);
  Alcotest.(check (list string)) "report signature repeats"
    (Mumak.Report.signature r.Mumak.Engine.report)
    (Mumak.Report.signature again.Mumak.Engine.report)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "opt"
    [
      ( "cost",
        [
          Alcotest.test_case "static weights" `Quick test_static_weights;
          Alcotest.test_case "measure + trace cycles" `Quick test_measure_and_trace_cycles;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "batch fences" `Quick test_rule_batch_fences;
          Alcotest.test_case "batch fences: distinct frames" `Quick
            test_rule_batch_fences_negative;
          Alcotest.test_case "coalesce flushes" `Quick test_rule_coalesce;
          Alcotest.test_case "move flush" `Quick test_rule_move;
          Alcotest.test_case "convert to nt" `Quick test_rule_convert_nt;
          Alcotest.test_case "convert to clwb" `Quick test_rule_convert_clwb;
          Alcotest.test_case "deterministic ranking" `Quick test_synthesis_deterministic;
        ] );
      ( "verify",
        [
          Alcotest.test_case "proves safe plans" `Quick test_optimize_proves_safe_plans;
          Alcotest.test_case "batch verdict + replay tally" `Quick
            test_optimize_batch_and_tally;
          Alcotest.test_case "one pass = copying reference" `Slow test_verifier_differential;
          Alcotest.test_case "memoized passes = copying reference" `Slow
            test_verifier_memo_differential;
          Alcotest.test_case "each point judged once" `Quick
            test_verifier_judges_each_point_once;
          Alcotest.test_case "first edit's point judged" `Quick test_verifier_judges_first_edit;
          Alcotest.test_case "final image compared persisted" `Quick test_recheck_final_image;
        ] );
      ( "rewrite-qcheck",
        [
          qt qcheck_rewrite_renumbers;
          qt qcheck_rewrite_order_free;
          qt qcheck_rewrite_arena_roundtrip;
          qt qcheck_rewrite_normalizes;
        ] );
      ("engine", [ Alcotest.test_case "kvstore differential" `Slow test_engine_kvstore ]);
    ]
