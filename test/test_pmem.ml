(* Unit and property tests for the persistent-memory simulator: these pin
   down the x86 persistency semantics everything else builds on. *)

open Pmem

let i64 = Testutil.Crash.i64

let dev () = Device.create ~size:4096 ()

let check_persisted d ~addr expected =
  let img = Device.crash d ~policy:Device.Adr in
  Alcotest.check i64 "persisted value" expected (Image.read_i64 img ~addr)

(* --- basic store/load --- *)

let test_load_sees_store () =
  let d = dev () in
  Device.store_i64 d ~addr:128 42L;
  Alcotest.check i64 "volatile view" 42L (Device.load_i64 d ~addr:128)

let test_store_alone_not_durable () =
  let d = dev () in
  Device.store_i64 d ~addr:128 42L;
  check_persisted d ~addr:128 0L

let test_clwb_without_fence_not_durable () =
  let d = dev () in
  Device.store_i64 d ~addr:128 42L;
  Device.clwb d ~addr:128;
  check_persisted d ~addr:128 0L;
  let img = Device.crash d ~policy:Device.Adr_with_pending in
  Alcotest.check i64 "accepted flush may drain" 42L (Image.read_i64 img ~addr:128)

let test_clwb_fence_durable () =
  let d = dev () in
  Device.store_i64 d ~addr:128 42L;
  Device.clwb d ~addr:128;
  Device.sfence d;
  check_persisted d ~addr:128 42L

let test_clflushopt_fence_durable () =
  let d = dev () in
  Device.store_i64 d ~addr:128 42L;
  Device.clflushopt d ~addr:128;
  Device.sfence d;
  check_persisted d ~addr:128 42L;
  Alcotest.check i64 "still loadable after invalidation" 42L (Device.load_i64 d ~addr:128)

let test_clflush_immediate () =
  let d = dev () in
  Device.store_i64 d ~addr:128 42L;
  Device.clflush d ~addr:128;
  check_persisted d ~addr:128 42L

let test_mfence_drains () =
  let d = dev () in
  Device.store_i64 d ~addr:128 1L;
  Device.clwb d ~addr:128;
  Device.mfence d;
  check_persisted d ~addr:128 1L

let test_program_prefix_includes_everything () =
  let d = dev () in
  Device.store_i64 d ~addr:128 1L;
  Device.store_i64 d ~addr:256 2L;
  Device.clwb d ~addr:256;
  let img = Device.crash d ~policy:Device.Program_prefix in
  Alcotest.check i64 "unflushed store persists gracefully" 1L (Image.read_i64 img ~addr:128);
  Alcotest.check i64 "unfenced flush persists gracefully" 2L (Image.read_i64 img ~addr:256)

(* --- flush capture semantics --- *)

let test_overwrite_after_flush_keeps_captured_content () =
  let d = dev () in
  Device.store_i64 d ~addr:128 1L;
  Device.clwb d ~addr:128;
  (* dirty overwrite before the fence: the fence persists the captured
     snapshot, not the newer value *)
  Device.store_i64 d ~addr:128 2L;
  Device.sfence d;
  check_persisted d ~addr:128 1L;
  Alcotest.check i64 "volatile view has newest" 2L (Device.load_i64 d ~addr:128)

let test_flush_covers_whole_line () =
  let d = dev () in
  Device.store_i64 d ~addr:192 7L;
  Device.store_i64 d ~addr:200 8L;
  (* both stores are in line 3; one flush suffices *)
  Device.clwb d ~addr:192;
  Device.sfence d;
  check_persisted d ~addr:192 7L;
  check_persisted d ~addr:200 8L

let test_line_versions_two_candidates () =
  let d = dev () in
  Device.store_i64 d ~addr:128 1L;
  Device.clwb d ~addr:128;
  Device.store_i64 d ~addr:128 2L;
  match Device.line_versions d with
  | [ (line, [ v0; v1 ]) ] ->
      Alcotest.(check int) "line index" 2 line;
      Alcotest.check i64 "older candidate" 1L (Bytes.get_int64_le v0 0);
      Alcotest.check i64 "newer candidate" 2L (Bytes.get_int64_le v1 0)
  | other ->
      Alcotest.failf "expected one line with two versions, got %d lines" (List.length other)

(* --- non-temporal stores --- *)

let test_nt_store_buffered_until_fence () =
  let d = dev () in
  Device.store_nt_i64 d ~addr:128 42L;
  Alcotest.check i64 "program sees NT store" 42L (Device.load_i64 d ~addr:128);
  check_persisted d ~addr:128 0L;
  Device.sfence d;
  check_persisted d ~addr:128 42L

(* --- RMW --- *)

let test_cas_success_and_fence_semantics () =
  let d = dev () in
  Device.store_i64 d ~addr:256 9L;
  Device.clwb d ~addr:256;
  (* the CAS drains the pending flush *)
  let ok = Device.cas d ~addr:128 ~expected:0L ~desired:5L in
  Alcotest.(check bool) "cas succeeds" true ok;
  check_persisted d ~addr:256 9L;
  Alcotest.check i64 "cas visible" 5L (Device.load_i64 d ~addr:128)

let test_cas_failure () =
  let d = dev () in
  Device.store_i64 d ~addr:128 3L;
  let ok = Device.cas d ~addr:128 ~expected:0L ~desired:5L in
  Alcotest.(check bool) "cas fails" false ok;
  Alcotest.check i64 "value unchanged" 3L (Device.load_i64 d ~addr:128)

let test_fetch_add () =
  let d = dev () in
  Device.store_i64 d ~addr:128 10L;
  let old = Device.fetch_add d ~addr:128 5L in
  Alcotest.check i64 "returns old" 10L old;
  Alcotest.check i64 "adds" 15L (Device.load_i64 d ~addr:128)

(* --- bounds and hooks --- *)

let test_out_of_bounds () =
  let d = dev () in
  Alcotest.check_raises "store oob"
    (Device.Out_of_bounds { addr = 4095; size = 8; device_size = 4096 })
    (fun () -> Device.store_i64 d ~addr:4095 1L)

let test_flush_outside_pool_is_volatile () =
  let d = dev () in
  let seen = ref None in
  Device.set_hook d
    (Some (function Op.Flush { volatile; _ } -> seen := Some volatile | _ -> ()));
  Device.clwb d ~addr:100_000;
  Alcotest.(check (option bool)) "volatile flag" (Some true) !seen

let test_hook_sees_ops_in_order () =
  let d = dev () in
  let ops = ref [] in
  Device.set_hook d (Some (fun op -> ops := op :: !ops));
  Device.store_i64 d ~addr:128 1L;
  Device.clwb d ~addr:128;
  Device.sfence d;
  match List.rev !ops with
  | [ Op.Store { addr = 128; size = 8; nt = false };
      Op.Flush { kind = Op.Clwb; line = 2; dirty = true; volatile = false };
      Op.Fence { kind = Op.Sfence; pending_flushes = 1; pending_nt = 0 } ] ->
      ()
  | l -> Alcotest.failf "unexpected op sequence (%d ops)" (List.length l)

let test_hook_raise_aborts_store () =
  let d = dev () in
  Device.set_hook d (Some (fun _ -> failwith "crash"));
  (try Device.store_i64 d ~addr:128 1L with Failure _ -> ());
  Device.set_hook d None;
  Alcotest.check i64 "store aborted" 0L (Device.load_i64 d ~addr:128)

let test_of_image_restart () =
  let d = dev () in
  Device.store_i64 d ~addr:128 42L;
  Device.clflush d ~addr:128;
  let img = Device.crash d ~policy:Device.Adr in
  let d2 = Device.of_image img in
  Alcotest.check i64 "restart sees durable data" 42L (Device.load_i64 d2 ~addr:128)

(* --- enumeration --- *)

let test_enumerate_subsets () =
  let d = dev () in
  Device.store_i64 d ~addr:0 1L;
  Device.store_i64 d ~addr:64 2L;
  let seq, total = Enumerate.images d ~limit:100 in
  Alcotest.(check int) "2 dirty lines -> 4 states" 4 total;
  let images = List.of_seq seq in
  Alcotest.(check int) "all enumerated" 4 (List.length images);
  let keys =
    List.map (fun img -> (Image.read_i64 img ~addr:0, Image.read_i64 img ~addr:64)) images
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "distinct states" 4 (List.length keys)

let test_enumerate_three_versions () =
  let d = dev () in
  Device.store_i64 d ~addr:0 1L;
  Device.clwb d ~addr:0;
  Device.store_i64 d ~addr:0 2L;
  let seq, total = Enumerate.images d ~limit:100 in
  Alcotest.(check int) "persisted|snapshot|newest" 3 total;
  let values =
    List.of_seq seq |> List.map (fun img -> Image.read_i64 img ~addr:0) |> List.sort_uniq compare
  in
  Alcotest.(check (list i64)) "values" [ 0L; 1L; 2L ] values

let test_enumerate_slot_granular () =
  let d = dev () in
  (* two 8-byte stores in the same line may tear independently *)
  Device.store_i64 d ~addr:0 1L;
  Device.store_i64 d ~addr:8 2L;
  let _seq, total = Enumerate.images d ~limit:100 in
  Alcotest.(check int) "line granularity: one line" 2 total;
  let _seq, total_slots = Enumerate.images_slot_granular d ~limit:100 in
  Alcotest.(check int) "slot granularity: two slots" 4 total_slots

let test_enumerate_limit () =
  let d = dev () in
  for i = 0 to 9 do
    Device.store_i64 d ~addr:(i * 64) (Int64.of_int i)
  done;
  let seq, total = Enumerate.images d ~limit:16 in
  Alcotest.(check int) "total exponential" 1024 total;
  Alcotest.(check int) "capped" 16 (Seq.length seq)

(* --- eADR --- *)

let test_eadr_stores_survive_power_cut () =
  let d = Device.create ~eadr:true ~size:4096 () in
  Device.store_i64 d ~addr:128 42L;
  (* no flush, no fence: the battery-backed caches still make it durable *)
  let img = Device.crash d ~policy:Device.Adr in
  Alcotest.check i64 "unflushed store survives under eADR" 42L (Image.read_i64 img ~addr:128)

let test_eadr_policy_is_ignored () =
  let d = Device.create ~eadr:true ~size:4096 () in
  Device.store_i64 d ~addr:128 1L;
  Device.store_i64 d ~addr:256 2L;
  List.iter
    (fun policy ->
      let img = Device.crash d ~policy in
      Alcotest.check i64 "all stores present" 1L (Image.read_i64 img ~addr:128);
      Alcotest.check i64 "all stores present" 2L (Image.read_i64 img ~addr:256))
    [ Device.Adr; Device.Adr_with_pending; Device.Program_prefix ]

let test_adr_device_reports_eadr_flag () =
  Alcotest.(check bool) "default is ADR" false (Device.eadr (dev ()));
  Alcotest.(check bool) "flag round-trips" true
    (Device.eadr (Device.create ~eadr:true ~size:4096 ()))

(* --- image --- *)

let test_image_snapshot_independent () =
  let img = Image.create ~size:256 in
  Image.write_i64 img ~addr:0 1L;
  let snap = Image.snapshot img in
  Image.write_i64 img ~addr:0 2L;
  Alcotest.check i64 "snapshot unchanged" 1L (Image.read_i64 snap ~addr:0);
  Alcotest.(check bool) "images differ" false (Image.equal img snap)

(* --- stats --- *)

let test_stats_counts () =
  let d = dev () in
  Device.store_i64 d ~addr:0 1L;
  Device.store_nt_i64 d ~addr:64 1L;
  Device.clwb d ~addr:0;
  Device.clflush d ~addr:0;
  Device.clflushopt d ~addr:0;
  Device.sfence d;
  Device.mfence d;
  ignore (Device.fetch_add d ~addr:0 1L);
  let s = Device.stats d in
  Alcotest.(check int) "stores" 2 s.Stats.stores (* regular + rmw *);
  Alcotest.(check int) "nt" 1 s.Stats.nt_stores;
  Alcotest.(check int) "clwb" 1 s.Stats.clwb;
  Alcotest.(check int) "clflush" 1 s.Stats.clflush;
  Alcotest.(check int) "clflushopt" 1 s.Stats.clflushopt;
  Alcotest.(check int) "fences" 3 (Stats.fences s)

(* --- properties --- *)

let prop_lines_spanned_cover =
  QCheck.Test.make ~name:"lines_spanned covers the access range" ~count:500
    QCheck.(pair (int_range 0 10_000) (int_range 1 512))
    (fun (addr, size) ->
      let lines = Addr.lines_spanned ~addr ~size in
      List.for_all
        (fun b -> List.mem (Addr.line_of b) lines)
        [ addr; addr + size - 1; addr + (size / 2) ]
      && List.length lines = ((addr + size - 1) / 64) - (addr / 64) + 1)

let prop_align_up =
  QCheck.Test.make ~name:"align_up is minimal and aligned" ~count:500
    QCheck.(pair (int_range 0 100_000) (int_range 1 12))
    (fun (n, k) ->
      let a = 1 lsl k in
      let r = Addr.align_up n a in
      r >= n && r mod a = 0 && r - n < a)

let prop_store_load_roundtrip =
  QCheck.Test.make ~name:"load returns the last store (volatile view)" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (pair (int_range 0 500) (int_range 1 32)))
    (fun writes ->
      let d = Device.create ~size:4096 () in
      let model = Bytes.make 4096 '\000' in
      List.iteri
        (fun i (addr, size) ->
          let payload = Bytes.make size (Char.chr (i mod 256)) in
          Device.store d ~addr payload;
          Bytes.blit payload 0 model addr size)
        writes;
      let view = Device.volatile_view d in
      Bytes.equal (Image.unsafe_bytes view) model)

let prop_flush_fence_durability =
  QCheck.Test.make ~name:"flushed+fenced stores always survive an ADR crash" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 0 63))
    (fun slots ->
      let d = Device.create ~size:4096 () in
      List.iter
        (fun slot ->
          Device.store_i64 d ~addr:(slot * 64) (Int64.of_int (slot + 1));
          Device.clwb d ~addr:(slot * 64))
        slots;
      Device.sfence d;
      let img = Device.crash d ~policy:Device.Adr in
      List.for_all
        (fun slot -> Image.read_i64 img ~addr:(slot * 64) = Int64.of_int (slot + 1))
        slots)

let prop_prefix_crash_equals_volatile_view =
  QCheck.Test.make ~name:"graceful crash image equals the volatile view" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 0 4000))
    (fun addrs ->
      let d = Device.create ~size:4096 () in
      List.iteri
        (fun i addr ->
          let addr = min addr 4088 in
          Device.store_i64 d ~addr:(addr / 8 * 8) (Int64.of_int i);
          if i mod 3 = 0 then Device.clwb d ~addr;
          if i mod 7 = 0 then Device.sfence d)
        addrs;
      Image.equal (Device.crash d ~policy:Device.Program_prefix) (Device.volatile_view d))

(* Crash views are copy-on-write: writing through a view, or through a
   device that adopted one (and crashing that device), must never reach
   the device it was taken from. A random op sequence (every store, flush, fence and RMW kind,
   plus allocator poison) runs twice on a pool whose size is no multiple
   of the 4 KiB page, once with views taken and scribbled on at random
   steps; every policy's crash image and the volatile view must agree at
   the end. *)
let policies = [ Device.Adr; Device.Adr_with_pending; Device.Program_prefix ]

let gen_view_case =
  QCheck.Gen.(
    let op = pair (int_range 0 10) (triple nat nat nat) in
    triple bool (int_range 1 4095) (list_size (int_range 1 60) op)
    >>= fun (eadr, extra, ops) -> return (eadr, 4096 + extra, ops))

let arb_view_case =
  QCheck.make
    ~print:(fun (eadr, size, ops) ->
      Printf.sprintf "eadr=%b size=%d ops=[%s]" eadr size
        (String.concat "; "
           (List.map (fun (k, (a, b, c)) -> Printf.sprintf "%d:%d,%d,%d" k a b c) ops)))
    gen_view_case

let run_view_case ~views (eadr, size, ops) =
  let d = Device.create ~eadr ~size () in
  let span a len = (a mod (size - len + 1), len) in
  List.iteri
    (fun i (kind, (a, b, c)) ->
      let fill = Char.chr (c mod 256) in
      match kind with
      | 0 | 1 ->
          let addr, len = span a (1 + (b mod 100)) in
          (if kind = 0 then Device.store else Device.store_nt) d ~addr (Bytes.make len fill)
      | 2 -> Device.clflush d ~addr:(a mod size)
      | 3 -> Device.clflushopt d ~addr:(a mod size)
      | 4 -> Device.clwb d ~addr:(a mod size)
      | 5 -> if b mod 2 = 0 then Device.sfence d else Device.mfence d
      | 6 ->
          let addr, _ = span a 8 in
          let expected =
            if b mod 2 = 0 then Bytes.get_int64_le (Device.peek d ~addr ~size:8) 0
            else Int64.of_int c
          in
          ignore (Device.cas d ~addr ~expected ~desired:(Int64.of_int (i + 1)))
      | 7 ->
          let addr, _ = span a 8 in
          ignore (Device.fetch_add d ~addr (Int64.of_int c))
      | 8 ->
          let addr, len = span a (1 + (b mod 200)) in
          Device.poison d ~addr ~size:len
      | _ ->
          if views then
            List.iter
              (fun policy ->
                let view = Device.crash_view d ~policy in
                let addr, len = span b (1 + (c mod 300)) in
                Image.write view ~addr (Bytes.make len '\xee');
                let adopted = Device.adopt ~eadr view in
                let addr, len = span a (1 + (c mod 100)) in
                Device.store adopted ~addr (Bytes.make len '\x77');
                Device.store_nt adopted ~addr:(a mod (size - 8)) (Bytes.make 8 '\x55');
                Device.clflush adopted ~addr;
                Device.sfence adopted;
                (* crashing the adopting device copies, never flattens,
                   the view it recovers on *)
                ignore (Device.crash adopted ~policy);
                ignore (Image.cow_pages view))
              policies)
    ops;
  (List.map (fun policy -> Device.crash d ~policy) policies, Device.volatile_view d)

let prop_crash_views_isolated =
  QCheck.Test.make ~name:"crash views never write through to the device" ~count:300
    arb_view_case (fun case ->
      let crashes, volatile = run_view_case ~views:true case in
      let crashes', volatile' = run_view_case ~views:false case in
      List.for_all2 Image.equal crashes crashes' && Image.equal volatile volatile')

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "pmem"
    [
      ( "store-load",
        [
          Alcotest.test_case "load sees store" `Quick test_load_sees_store;
          Alcotest.test_case "store alone not durable" `Quick test_store_alone_not_durable;
          Alcotest.test_case "clwb without fence" `Quick test_clwb_without_fence_not_durable;
          Alcotest.test_case "clwb+fence durable" `Quick test_clwb_fence_durable;
          Alcotest.test_case "clflushopt+fence durable" `Quick test_clflushopt_fence_durable;
          Alcotest.test_case "clflush immediate" `Quick test_clflush_immediate;
          Alcotest.test_case "mfence drains" `Quick test_mfence_drains;
          Alcotest.test_case "program prefix" `Quick test_program_prefix_includes_everything;
        ] );
      ( "flush-capture",
        [
          Alcotest.test_case "overwrite after flush" `Quick
            test_overwrite_after_flush_keeps_captured_content;
          Alcotest.test_case "flush covers line" `Quick test_flush_covers_whole_line;
          Alcotest.test_case "line versions" `Quick test_line_versions_two_candidates;
        ] );
      ( "nt-and-rmw",
        [
          Alcotest.test_case "nt buffered until fence" `Quick test_nt_store_buffered_until_fence;
          Alcotest.test_case "cas success+fence" `Quick test_cas_success_and_fence_semantics;
          Alcotest.test_case "cas failure" `Quick test_cas_failure;
          Alcotest.test_case "fetch_add" `Quick test_fetch_add;
        ] );
      ( "bounds-hooks",
        [
          Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
          Alcotest.test_case "volatile flush" `Quick test_flush_outside_pool_is_volatile;
          Alcotest.test_case "hook order" `Quick test_hook_sees_ops_in_order;
          Alcotest.test_case "hook raise aborts" `Quick test_hook_raise_aborts_store;
          Alcotest.test_case "of_image restart" `Quick test_of_image_restart;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "subsets" `Quick test_enumerate_subsets;
          Alcotest.test_case "three versions" `Quick test_enumerate_three_versions;
          Alcotest.test_case "slot granular" `Quick test_enumerate_slot_granular;
          Alcotest.test_case "limit" `Quick test_enumerate_limit;
        ] );
      ( "eadr",
        [
          Alcotest.test_case "stores survive power cut" `Quick
            test_eadr_stores_survive_power_cut;
          Alcotest.test_case "policy ignored" `Quick test_eadr_policy_is_ignored;
          Alcotest.test_case "flag" `Quick test_adr_device_reports_eadr_flag;
        ] );
      ( "image-stats",
        [
          Alcotest.test_case "snapshot independence" `Quick test_image_snapshot_independent;
          Alcotest.test_case "stats counts" `Quick test_stats_counts;
        ] );
      qsuite "properties"
        [
          prop_lines_spanned_cover;
          prop_align_up;
          prop_store_load_roundtrip;
          prop_flush_fence_durability;
          prop_prefix_crash_equals_volatile_view;
          prop_crash_views_isolated;
        ];
    ]
