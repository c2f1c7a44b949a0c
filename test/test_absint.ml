(* Property tests for the merged-CFG abstract interpreter.

   Three layers: (1) qcheck laws for the per-cache-line lattice (join is
   associative, commutative, idempotent, monotone — on both the public
   chain and the powerset masks the fixpoint actually runs on) and for the
   transfer functions (mask-monotone); (2) qcheck structural laws for the
   multi-trace automaton merge (idempotent under duplicated recordings,
   insensitive to recording order); (3) the per-site safety proofs the
   optimizer ranks its plans by (found on a clean target, consistent with
   [proven_safe_at], unchanged under eADR). The engine-level differential — absint
   under replay at jobs=1 and jobs=4 against re-execution — lives in
   test_replay_engine. *)

module L = Analysis.Absint.Lattice

let elem_arb = QCheck.make ~print:L.elem_to_string (QCheck.Gen.oneofl L.all_elems)
let mask_arb = QCheck.make ~print:string_of_int (QCheck.Gen.oneofl L.all_masks)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

(* --- (1) lattice laws --- *)

let lattice_tests =
  [
    QCheck.Test.make ~name:"elem join associative"
      (QCheck.triple elem_arb elem_arb elem_arb) (fun (a, b, c) ->
        L.join a (L.join b c) = L.join (L.join a b) c);
    QCheck.Test.make ~name:"elem join commutative" (QCheck.pair elem_arb elem_arb)
      (fun (a, b) -> L.join a b = L.join b a);
    QCheck.Test.make ~name:"elem join idempotent, bot identity" elem_arb (fun a ->
        L.join a a = a && L.join L.Bot a = a);
    QCheck.Test.make ~name:"elem join monotone (upper bound, least)"
      (QCheck.pair elem_arb elem_arb) (fun (a, b) ->
        L.leq a (L.join a b) && L.leq b (L.join a b)
        && ((not (L.leq a b)) || L.join a b = b));
    QCheck.Test.make ~name:"mask join associative"
      (QCheck.triple mask_arb mask_arb mask_arb) (fun (a, b, c) ->
        L.mask_join a (L.mask_join b c) = L.mask_join (L.mask_join a b) c);
    QCheck.Test.make ~name:"mask join commutative" (QCheck.pair mask_arb mask_arb)
      (fun (a, b) -> L.mask_join a b = L.mask_join b a);
    QCheck.Test.make ~name:"mask join idempotent, bot identity" mask_arb (fun a ->
        L.mask_join a a = a && L.mask_join L.bot a = a);
    QCheck.Test.make ~name:"mask join monotone (upper bound, least)"
      (QCheck.pair mask_arb mask_arb) (fun (a, b) ->
        L.mask_leq a (L.mask_join a b)
        && ((not (L.mask_leq a b)) || L.mask_join a b = b));
    QCheck.Test.make ~name:"elem_of_mask maps bot to Bot and is total" mask_arb
      (fun m ->
        L.elem_of_mask L.bot = L.Bot
        && List.mem (L.elem_of_mask m) L.all_elems);
  ]

(* --- transfer monotonicity --- *)

(* A synthetic automaton node with a chosen instruction multiset; the
   capture is arbitrary since transfer only reads [instrs] and [key]. *)
let node_of_instrs instrs : Analysis.Cfg.node =
  {
    Analysis.Cfg.capture = { Pmtrace.Callstack.path = [ "t" ]; op_index = 0 };
    key = "t@0";
    instrs;
    succs = [];
    first_pseq = 0;
    runs = 1;
  }

let instr_choices =
  [
    Analysis.Cfg.Store { lines = [ 0 ]; nt = false };
    Analysis.Cfg.Store { lines = [ 0 ]; nt = true };
    Analysis.Cfg.Store { lines = [ 1 ]; nt = false };
    Analysis.Cfg.Flush { kind = Pmem.Op.Clflush; line = 0 };
    Analysis.Cfg.Flush { kind = Pmem.Op.Clflushopt; line = 0 };
    Analysis.Cfg.Flush { kind = Pmem.Op.Clwb; line = 1 };
    Analysis.Cfg.Fence { kind = Pmem.Op.Sfence };
    Analysis.Cfg.Fence { kind = Pmem.Op.Rmw };
  ]

let instrs_arb =
  QCheck.make
    ~print:(fun is -> String.concat ";" (List.map Analysis.Cfg.instr_to_string is))
    QCheck.Gen.(
      let* n = 1 -- 3 in
      list_size (return n) (oneofl instr_choices))

let state_of_mask line m : Analysis.Absint.state =
  if m = L.bot then Analysis.Absint.Lines.empty
  else
    Analysis.Absint.Lines.singleton line
      { Analysis.Absint.mask = m; wit_dirty = None; wit_pending = None }

let mask_at line (st : Analysis.Absint.state) =
  match Analysis.Absint.Lines.find_opt line st with
  | Some v -> v.Analysis.Absint.mask
  | None -> L.bot

let transfer_tests =
  [
    QCheck.Test.make ~name:"transfer mask-monotone in the input state"
      (QCheck.triple instrs_arb mask_arb mask_arb) (fun (instrs, m1, m2) ->
        let node = node_of_instrs instrs in
        let s1 = state_of_mask 0 m1 in
        let s2 = Analysis.Absint.state_join s1 (state_of_mask 0 m2) in
        let t1 = Analysis.Absint.transfer node s1 in
        let t2 = Analysis.Absint.transfer node s2 in
        L.mask_leq (mask_at 0 t1) (mask_at 0 t2)
        && L.mask_leq (mask_at 1 t1) (mask_at 1 t2));
    QCheck.Test.make ~name:"transfer output independent of join order"
      (QCheck.pair instrs_arb mask_arb) (fun (instrs, m) ->
        let node = node_of_instrs instrs in
        let s = state_of_mask 0 m in
        Analysis.Absint.state_equal
          (Analysis.Absint.transfer node s)
          (Analysis.Absint.transfer (node_of_instrs (List.rev instrs)) s));
  ]

(* --- (2) automaton merge laws --- *)

let record (target : Mumak.Target.t) =
  Pmtrace.Replay.events
    (Pmtrace.Replay.record ~pool_size:target.Mumak.Target.pool_size (fun ~device ~framer ->
         target.Mumak.Target.run ~device ~framer))

let app name =
  match Pmapps.Registry.find name with
  | Some m -> m
  | None -> Alcotest.failf "unknown app %s" name

(* Three genuinely different recordings of the same application: distinct
   seeds exercise distinct paths, so the merge is non-trivial. *)
let sample_runs =
  lazy
    (List.map
       (fun seed ->
         record
           (Targets.of_app (app "wort")
              ~workload:(Workload.standard ~ops:40 ~key_range:12 ~seed)
              ()))
       [ 1L; 7L; 42L ])

let cfg_sig runs = Analysis.Cfg.signature (Analysis.Cfg.build runs)

let cfg_tests =
  [
    QCheck.Test.make ~name:"merge idempotent under duplicated recordings"
      (QCheck.make ~print:string_of_int QCheck.Gen.(1 -- 7)) (fun sel ->
        let runs = Lazy.force sample_runs in
        let dup = List.filteri (fun i _ -> sel land (1 lsl i) <> 0) runs in
        String.equal (cfg_sig runs) (cfg_sig (runs @ dup)));
    QCheck.Test.make ~name:"merge insensitive to recording order"
      (QCheck.make
         ~print:(fun p -> String.concat "," (List.map string_of_int p))
         (QCheck.Gen.shuffle_l [ 0; 1; 2 ]))
      (fun perm ->
        let runs = Lazy.force sample_runs in
        let shuffled = List.map (List.nth runs) perm in
        Analysis.Cfg.equal
          (Analysis.Cfg.build runs)
          (Analysis.Cfg.build shuffled));
  ]

let test_cfg_merges_paths () =
  let runs = Lazy.force sample_runs in
  let merged = Analysis.Cfg.build runs in
  let single = Analysis.Cfg.build [ List.hd runs ] in
  Alcotest.(check bool) "merged automaton saw every run" true (merged.Analysis.Cfg.runs = 3);
  Alcotest.(check bool) "merge adds structure over a single run" true
    (Analysis.Cfg.edge_count merged > Analysis.Cfg.edge_count single);
  (* every node of the merged automaton has a concrete path witness *)
  Analysis.Cfg.sorted_nodes merged
  |> List.iter (fun n ->
         match Analysis.Cfg.witness merged n.Analysis.Cfg.key with
         | [] -> Alcotest.failf "no witness for %s" n.Analysis.Cfg.key
         | path ->
             Alcotest.(check string)
               (Printf.sprintf "witness for %s ends at the node" n.Analysis.Cfg.key)
               n.Analysis.Cfg.key
               (List.nth path (List.length path - 1)))

(* --- (3) per-site safety proofs --- *)

let proven_keys (a : Analysis.Absint.t) =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) a.Analysis.Absint.proven [])

let test_proofs_on_clean_target () =
  let runs = Lazy.force sample_runs in
  let a = Analysis.Absint.analyze ~eadr:false runs in
  Alcotest.(check bool) "clean wort: proven-safe sites found" true
    (Analysis.Absint.proven_count a > 0);
  (* the optimizer asks by capture; it must see exactly the proven nodes *)
  Analysis.Cfg.sorted_nodes a.Analysis.Absint.cfg
  |> List.iter (fun (n : Analysis.Cfg.node) ->
         Alcotest.(check bool)
           (Printf.sprintf "proven_safe_at %s agrees with the proof table" n.Analysis.Cfg.key)
           (Hashtbl.mem a.Analysis.Absint.proven n.Analysis.Cfg.key)
           (Analysis.Absint.proven_safe_at a n.Analysis.Cfg.capture))

let test_proofs_ignore_eadr () =
  (* crash images are program-prefix cuts under ADR and eADR alike, so the
     proofs must not move; only the durability findings go *)
  let runs = Lazy.force sample_runs in
  let adr = Analysis.Absint.analyze ~eadr:false runs in
  let eadr = Analysis.Absint.analyze ~eadr:true runs in
  Alcotest.(check (list string)) "same proven sites under eADR" (proven_keys adr)
    (proven_keys eadr);
  let ordering (a : Analysis.Absint.t) =
    List.filter_map
      (fun (f : Analysis.Absint.finding) ->
        if f.Analysis.Absint.f_kind = Analysis.Absint.Ordering then
          Some f.Analysis.Absint.f_detail
        else None)
      a.Analysis.Absint.findings
  in
  Alcotest.(check (list string)) "eADR keeps only ordering findings" (ordering adr)
    (List.map (fun (f : Analysis.Absint.finding) -> f.Analysis.Absint.f_detail)
       eadr.Analysis.Absint.findings)

let () =
  Alcotest.run "absint"
    [
      qsuite "lattice" lattice_tests;
      qsuite "transfer" transfer_tests;
      qsuite "cfg-merge" cfg_tests;
      ( "cfg-structure",
        [ Alcotest.test_case "merged paths and witnesses" `Quick test_cfg_merges_paths ] );
      ( "absint-proven-safe",
        [
          Alcotest.test_case "clean target: proofs and lookups agree" `Quick
            test_proofs_on_clean_target;
          Alcotest.test_case "proofs unaffected by eADR" `Quick test_proofs_ignore_eadr;
        ] );
    ]
