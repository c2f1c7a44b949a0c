(* Tests for the instrumentation layer: call stacks, tracing, stack
   resolution. *)

open Pmtrace

let scenario ~device:d ~(framer : Framer.t) =
  framer.Framer.frame "main" (fun () ->
      framer.Framer.frame "insert" (fun () ->
          Pmem.Device.store_i64 d ~addr:0 1L;
          Pmem.Device.clwb d ~addr:0;
          Pmem.Device.sfence d);
      framer.Framer.frame "insert" (fun () ->
          Pmem.Device.store_i64 d ~addr:64 2L;
          Pmem.Device.clwb d ~addr:64;
          Pmem.Device.sfence d))

let run_scenario tracer =
  scenario ~device:(Tracer.device tracer) ~framer:(Framer.of_callstack (Tracer.stack tracer))

let test_trace_collection () =
  let recording = Replay.record ~pool_size:4096 scenario in
  Alcotest.(check int) "6 events" 6 (Replay.length recording);
  let seqs = List.map (fun e -> e.Event.seq) (Replay.events recording) in
  Alcotest.(check (list int)) "monotonic seq" [ 1; 2; 3; 4; 5; 6 ] seqs

let test_stack_capture () =
  let events = Replay.events (Replay.record ~pool_size:4096 scenario) in
  let stack_of n =
    match (List.nth events n).Event.stack with
    | Some c -> c
    | None -> Alcotest.fail "missing stack"
  in
  Alcotest.(check (list string)) "path" [ "_start"; "main"; "insert" ] (stack_of 0).Callstack.path;
  (* within one frame activation the op index advances per PM instruction *)
  Alcotest.(check int) "eventwise index 1" 1 (stack_of 0).Callstack.op_index;
  Alcotest.(check int) "eventwise index 3" 3 (stack_of 2).Callstack.op_index;
  (* the second activation of "insert" restarts its counter, so the same
     code point gets the same identity *)
  Alcotest.(check bool) "same identity across activations" true
    (Callstack.capture_equal (stack_of 0) (stack_of 3));
  (* with loads traced, every store, flush and fence keeps the index it has
     without them, and each load is numbered among all the activation's
     instructions *)
  let loaded =
    Replay.record ~loads:true ~pool_size:4096 (fun ~device:loaded ~(framer : Framer.t) ->
        framer.Framer.frame "main" (fun () ->
            framer.Framer.frame "insert" (fun () ->
                ignore (Pmem.Device.load_i64 loaded ~addr:0);
                Pmem.Device.store_i64 loaded ~addr:0 1L;
                ignore (Pmem.Device.load_i64 loaded ~addr:64);
                Pmem.Device.clwb loaded ~addr:0;
                Pmem.Device.sfence loaded)))
  in
  let indices =
    List.map
      (fun (e : Event.t) ->
        let kind = match e.Event.op with Pmem.Op.Load _ -> "load" | _ -> "other" in
        match e.Event.stack with
        | Some c -> Printf.sprintf "%s@%d" kind c.Callstack.op_index
        | None -> Alcotest.fail "missing stack")
      (Replay.events loaded)
  in
  Alcotest.(check (list string)) "load-traced indices"
    [ "load@1"; "other@1"; "load@3"; "other@2"; "other@3" ]
    indices

let test_frames_pop_on_exception () =
  let cs = Callstack.create () in
  (try Callstack.with_frame cs "f" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "stack empty after raise" 0 (Callstack.depth cs)

let test_listener_and_collect_flag () =
  let d = Pmem.Device.create ~size:4096 () in
  let tracer = Tracer.create d in
  let n = ref 0 in
  Tracer.add_listener tracer (fun _ _ -> incr n);
  run_scenario tracer;
  Alcotest.(check int) "listener saw all" 6 !n

let test_resolve_stacks () =
  let d = Pmem.Device.create ~size:4096 () in
  let tracer = Tracer.create d in
  run_scenario tracer;
  (* events were collected without stacks; resolve #2 and #5 by re-running *)
  let resolved =
    Tracer.resolve_stacks tracer ~wanted:[ 2; 5 ] ~run:(fun () -> run_scenario tracer)
  in
  Alcotest.(check int) "two resolved" 2 (Hashtbl.length resolved);
  let c2 = Hashtbl.find resolved 2 in
  Alcotest.(check (list string)) "resolved path" [ "_start"; "main"; "insert" ] c2.Callstack.path;
  Alcotest.(check int) "resolved index" 2 c2.Callstack.op_index

let test_trace_fold_order () =
  let t = Arena.create () in
  List.iter
    (fun seq -> Arena.add t { Event.seq; op = Pmem.Op.Store { addr = 0; size = 8; nt = false }; stack = None })
    [ 1; 2; 3 ];
  let seqs = Arena.fold t [] (fun acc e -> e.Event.seq :: acc) in
  Alcotest.(check (list int)) "fold in execution order" [ 3; 2; 1 ] seqs

let prop_capture_identity =
  QCheck.Test.make ~name:"capture equality is structural" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 0 6) (string_of_size (Gen.return 3))) small_nat)
    (fun (labels, k) ->
      let cs = Callstack.create () in
      List.iter (fun l -> Callstack.push cs l) labels;
      for _ = 1 to k do
        Callstack.tick cs ~load:false
      done;
      let a = Callstack.capture cs and b = Callstack.capture cs in
      Callstack.capture_equal a b
      && Callstack.capture_compare a b = 0
      && Callstack.capture_hash a = Callstack.capture_hash b)

(* Random push / pop / tick / capture sequences against a model stack of
   (label, all instructions, non-load instructions), innermost first. *)
type step = Push of string | Pop | Tick of bool (* load *) | Capture

let gen_steps =
  QCheck.Gen.(
    list_size (int_range 0 120)
      (frequency
         [
           (3, map (fun l -> Push l) (oneofl [ "a"; "b"; "c" ]));
           (3, return Pop);
           (4, map (fun load -> Tick load) bool);
           (4, return Capture);
         ]))

let print_step = function
  | Push l -> "push " ^ l
  | Pop -> "pop"
  | Tick load -> if load then "load" else "tick"
  | Capture -> "capture"

let prop_capture_model =
  QCheck.Test.make ~name:"model stack captures; arena agrees" ~count:300
    (QCheck.make gen_steps ~print:(fun steps -> String.concat "; " (List.map print_step steps)))
    (fun steps ->
      let cs = Callstack.create () in
      let model = ref [ (Callstack.root_label, 0, 0) ] and at_load = ref false in
      let arena = Arena.create () in
      let fed = ref [] and distinct = Hashtbl.create 16 in
      List.iter
        (function
          | Push l ->
              Callstack.push cs l;
              model := (l, 0, 0) :: !model
          | Pop -> (
              match !model with
              | [ _ ] -> ()
              | _ :: rest ->
                  Callstack.pop cs;
                  model := rest
              | [] -> assert false)
          | Tick load -> (
              Callstack.tick cs ~load;
              at_load := load;
              match !model with
              | (l, ops, persists) :: rest ->
                  model := (l, ops + 1, if load then persists else persists + 1) :: rest
              | [] -> assert false)
          | Capture ->
              let expected =
                match !model with
                | (_, ops, persists) :: _ ->
                    {
                      Callstack.path = List.rev_map (fun (l, _, _) -> l) !model;
                      op_index = (if !at_load then ops else persists);
                    }
                | [] -> assert false
              in
              let c = Callstack.capture cs in
              if not (Callstack.capture_equal c expected && c = expected) then
                QCheck.Test.fail_reportf "captured %s, model %s" (Callstack.capture_to_string c)
                  (Callstack.capture_to_string expected);
              let op =
                if !at_load then Pmem.Op.Load { addr = 0; size = 8 }
                else Pmem.Op.Store { addr = 0; size = 8; nt = false }
              in
              Arena.add arena { Event.seq = List.length !fed; op; stack = Some c };
              Hashtbl.replace distinct c.Callstack.path ();
              fed := expected :: !fed)
        steps;
      List.for_all2
        (fun i expected -> (Arena.get arena i).Event.stack = Some expected)
        (List.init (List.length !fed) Fun.id)
        (List.rev !fed)
      && Arena.path_count arena = Hashtbl.length distinct)

let () =
  Alcotest.run "pmtrace"
    [
      ( "tracer",
        [
          Alcotest.test_case "collection" `Quick test_trace_collection;
          Alcotest.test_case "stack capture" `Quick test_stack_capture;
          Alcotest.test_case "frames pop on exception" `Quick test_frames_pop_on_exception;
          Alcotest.test_case "listener / collect flag" `Quick test_listener_and_collect_flag;
          Alcotest.test_case "resolve stacks" `Quick test_resolve_stacks;
          Alcotest.test_case "fold order" `Quick test_trace_fold_order;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_capture_identity; prop_capture_model ] );
    ]
