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

(* A flush of a line the cache does not hold reports the line clean and
   writes nothing back: a line never stored to, and a line [clflush] has
   evicted. *)
let test_hook_flush_of_uncached_line () =
  let d = dev () in
  let ops = ref [] in
  Device.set_hook d (Some (fun op -> ops := op :: !ops));
  let adr () = Device.crash d ~policy:Device.Adr in
  let same what before =
    Alcotest.(check bool) what true (Image.equal before (adr ()))
  in
  let fresh = adr () in
  Device.clwb d ~addr:256;
  same "a clwb of a never-stored line leaves the ADR image" fresh;
  Device.store_i64 d ~addr:128 1L;
  Device.clflush d ~addr:128;
  let flushed = adr () in
  Alcotest.check i64 "clflush persisted the store" 1L (Image.read_i64 flushed ~addr:128);
  Device.clwb d ~addr:128;
  same "a clwb of an evicted line leaves the ADR image" flushed;
  Device.sfence d;
  same "the fence after them leaves the ADR image" flushed;
  match List.rev !ops with
  | [ Op.Flush { kind = Op.Clwb; line = 4; dirty = false; volatile = false };
      Op.Store { addr = 128; size = 8; nt = false };
      Op.Flush { kind = Op.Clflush; line = 2; dirty = true; volatile = false };
      Op.Flush { kind = Op.Clwb; line = 2; dirty = false; volatile = false };
      Op.Fence { kind = Op.Sfence; pending_flushes = 0; pending_nt = 0 } ] ->
      ()
  | l -> Alcotest.failf "unexpected op sequence (%d ops)" (List.length l)

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

let offsets pages = List.map (fun (off, _, _) -> off) pages

(* A copy-on-write view copies a page up only when a write changes it. *)
let test_clean_crash_view_shares_pages () =
  let d = Device.create ~size:(3 * 4096) () in
  List.iter (fun addr -> Device.store_i64 d ~addr (Int64.of_int addr)) [ 128; 4100; 9000 ];
  List.iter (fun addr -> Device.clwb d ~addr) [ 128; 4100; 9000 ];
  Device.sfence d;
  (* every cached line now equals its persisted bytes *)
  let view = Device.crash_view d ~policy:Device.Program_prefix in
  Alcotest.(check int) "no private pages" 0 (List.length (Image.cow_pages view));
  Device.store_i64 d ~addr:4100 7L;
  let view = Device.crash_view d ~policy:Device.Program_prefix in
  Alcotest.(check (list int)) "only the changed page" [ 4096 ] (offsets (Image.cow_pages view))

let test_identical_write_shares_page () =
  let img = Image.create ~size:5000 in
  Image.write img ~addr:4090 (Bytes.make 10 'x');
  let view = Image.cow img in
  Image.write view ~addr:4090 (Bytes.make 10 'x');
  Image.write view ~addr:0 (Bytes.make 64 '\000');
  Alcotest.(check int) "no private pages" 0 (List.length (Image.cow_pages view));
  Image.write view ~addr:4095 (Bytes.of_string "xy");
  Alcotest.(check (list int))
    "the write that changes a byte copies that page only" [ 4096 ]
    (offsets (Image.cow_pages view));
  Alcotest.(check string) "view reads the write" "xyx"
    (Bytes.to_string (Image.read view ~addr:4095 ~size:3))

let test_equal_keeps_view () =
  let img = Image.create ~size:5000 in
  let view = Image.cow img in
  Image.write_i64 view ~addr:4096 1L;
  let other = Image.snapshot view in
  Alcotest.(check bool) "equal to its snapshot" true (Image.equal view other);
  Alcotest.(check bool) "differs from its base" false (Image.equal img view);
  Alcotest.(check (list int))
    "still lists its private page" [ 4096 ]
    (offsets (Image.cow_pages view));
  (* a page the view never wrote is its base's: a write to the base shows
     through (which [Image.cow]'s callers must not do while it lives) *)
  Image.write_i64 img ~addr:0 5L;
  Alcotest.check i64 "still reads through its base" 5L (Image.read_i64 view ~addr:0)

(* A pool costs its page table and the pages written to it, read with
   the exact allocation counter: a 4 MiB device is a 1,024-entry table,
   and zeros written into untouched pages copy none of them up. *)
let test_pool_costs_what_it_touches () =
  let allocated f =
    let before = Mumak.Metrics.allocated_bytes () in
    let r = f () in
    (Mumak.Metrics.allocated_bytes () -. before, r)
  in
  let at_most what budget bytes =
    if bytes > budget then Alcotest.failf "%s allocated %.0f bytes (budget %.0f)" what bytes budget
  in
  let size = 4 lsl 20 in
  let bytes, d = allocated (fun () -> Device.create ~size ()) in
  at_most "Device.create ~size:(4 lsl 20)" 16_384. bytes;
  let zeros = Bytes.make 10_000 '\000' in
  Device.store d ~addr:4000 zeros;
  Device.flush_range d ~kind:Op.Clwb ~addr:4000 ~size:10_000;
  Device.sfence d;
  let bytes, _ = allocated (fun () -> Device.persisted_image d) in
  at_most "a snapshot after persisting zeros" 16_384. bytes;
  let img = Image.create ~size in
  let bytes, () = allocated (fun () -> Image.write img ~addr:4000 zeros) in
  at_most "an all-zero write" 1024. bytes;
  let view = Image.cow img in
  Image.write view ~addr:4000 zeros;
  Alcotest.(check int) "an all-zero write through a view" 0 (List.length (Image.cow_pages view));
  let bytes, () = allocated (fun () -> Image.write_i64 img ~addr:8190 0x0101010101010101L) in
  if bytes < 8192. then Alcotest.failf "a page-straddling write allocated %.0f bytes" bytes;
  at_most "a page-straddling write" (8192. +. 1024.) bytes;
  let bytes, _ = allocated (fun () -> Image.snapshot img) in
  at_most "a snapshot of two written pages" (16_384. +. 8192.) bytes

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
      Bytes.equal (Image.read view ~addr:0 ~size:4096) model)

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

(* The device's data path against a byte-array model of the same
   persistency semantics. [view] is what loads see and [image] what
   survives; a store caches its lines, a clflush persists its line and
   drops it, clflushopt/clwb capture it for the next fence, which applies
   the captures, then the non-temporal payloads, then drops the lines a
   clflushopt flushed if they are clean by then. An uncached line's view is
   its persisted bytes. *)
type model = {
  m_size : int;
  image : bytes;
  view : bytes;
  cached : bool array;
  dirty : bool array;
  captures : (int, bytes) Hashtbl.t;
  mutable order : int list; (* lines with a pending capture, newest first *)
  mutable inval : int list;
  mutable nt : (int * bytes) list; (* newest first *)
}

let model_of base =
  let size = Bytes.length base in
  let lines = (size + 63) / 64 in
  {
    m_size = size;
    image = Bytes.copy base;
    view = Bytes.copy base;
    cached = Array.make lines false;
    dirty = Array.make lines false;
    captures = Hashtbl.create 8;
    order = [];
    inval = [];
    nt = [];
  }

let line_len m line = min 64 (m.m_size - (line * 64))

let model_write m ~addr b ~dirty =
  Bytes.blit b 0 m.view addr (Bytes.length b);
  for line = addr / 64 to (addr + Bytes.length b - 1) / 64 do
    m.cached.(line) <- true;
    if dirty then m.dirty.(line) <- true
  done

(* [volatile] flushes, and flushes of uncached lines, do nothing *)
let model_flush m kind ~line ~volatile =
  if (not volatile) && line >= 0 && line < Array.length m.cached && m.cached.(line) then begin
    let base = line * 64 and len = line_len m line in
    match kind with
    | Op.Clflush ->
        Bytes.blit m.view base m.image base len;
        Hashtbl.remove m.captures line;
        m.order <- List.filter (( <> ) line) m.order;
        m.cached.(line) <- false;
        m.dirty.(line) <- false
    | Op.Clflushopt | Op.Clwb ->
        if not (Hashtbl.mem m.captures line) then m.order <- line :: m.order;
        Hashtbl.replace m.captures line (Bytes.sub m.view base len);
        m.dirty.(line) <- false;
        if kind = Op.Clflushopt then m.inval <- line :: m.inval
  end

let model_flush_addr m kind ~addr =
  model_flush m kind ~line:(addr / 64) ~volatile:(addr < 0 || addr >= m.m_size)

let model_apply_captures m img =
  List.iter
    (fun line -> Bytes.blit (Hashtbl.find m.captures line) 0 img (line * 64) (line_len m line))
    (List.rev m.order)

let model_apply_nt m img =
  List.iter (fun (addr, b) -> Bytes.blit b 0 img addr (Bytes.length b)) (List.rev m.nt)

let model_fence m =
  model_apply_captures m m.image;
  Hashtbl.reset m.captures;
  m.order <- [];
  model_apply_nt m m.image;
  m.nt <- [];
  List.iter
    (fun line -> if m.cached.(line) && not m.dirty.(line) then m.cached.(line) <- false)
    m.inval;
  m.inval <- [];
  Array.iteri
    (fun line cached ->
      if not cached then Bytes.blit m.image (line * 64) m.view (line * 64) (line_len m line))
    m.cached

let model_crash m ~eadr policy =
  let img = Bytes.copy m.image in
  (match if eadr then Device.Program_prefix else policy with
  | Device.Adr -> ()
  | Device.Adr_with_pending -> model_apply_captures m img
  | Device.Program_prefix ->
      model_apply_nt m img;
      Array.iteri
        (fun line cached ->
          if cached then Bytes.blit m.view (line * 64) img (line * 64) (line_len m line))
        m.cached);
  img

let flush_kinds = [| Op.Clflush; Op.Clflushopt; Op.Clwb |]

(* An 8-byte address, straddling two lines for odd [a]. *)
let i64_addr size a =
  if a mod 2 = 0 then a / 2 mod (size - 7)
  else min (size - 8) ((a / 2 mod (size / 64) * 64) + 57 + (a mod 7))

(* Runs one op sequence on a fresh pool ([base] = None) or on a device
   adopting a copy-on-write view of [base], checking every read and the
   final crash images against the model. With [fingerprints] the fresh
   pool keeps a fingerprint, and after each op whose index [fingerprints]
   selects, every policy's fingerprint and the persisted one must equal a
   from-scratch hash of the matching image. Returns the first mismatch,
   and what a no-op hook must not change. *)
let run_datapath ?fingerprints ~hook ~base (eadr, size, ops) =
  let d, m =
    match base with
    | None ->
        ( Device.create ~eadr ~fingerprint:(fingerprints <> None) ~size (),
          model_of (Bytes.make size '\000') )
    | Some img -> (Device.adopt ~eadr (Image.cow img), model_of (Image.read img ~addr:0 ~size))
  in
  if hook then Device.set_hook d (Some ignore);
  let mismatch = ref None in
  let fail fmt = Printf.ksprintf (fun msg -> if !mismatch = None then mismatch := Some msg) fmt in
  let read what ~addr got =
    if not (Bytes.equal got (Bytes.sub m.view addr (Bytes.length got))) then
      fail "%s at %d, %d bytes" what addr (Bytes.length got)
  in
  let rejected what expected f =
    let before = Stats.copy (Device.stats d) in
    (match f () with
    | () -> fail "%s accepted" what
    | exception e when e = expected -> ()
    | exception e -> fail "%s raised %s" what (Printexc.to_string e));
    if Device.stats d <> before then fail "%s counted" what
  in
  let oob addr len = Device.Out_of_bounds { addr; size = len; device_size = size } in
  let check_fingerprints i =
    List.iteri
      (fun k policy ->
        if Device.fingerprint d ~policy <> Device.image_fingerprint (Device.crash d ~policy) then
          fail "fingerprint under policy %d of [Adr; Adr_with_pending; Program_prefix] after op %d"
            k i)
      policies;
    if Device.persisted_fingerprint d <> Device.image_fingerprint (Device.persisted_image d) then
      fail "persisted fingerprint after op %d" i
  in
  List.iteri
    (fun i (kind, (a, b, c)) ->
      let span len = (a mod (size - len + 1), len) in
      let payload len = Bytes.init len (fun j -> Char.chr ((c + (j * 31) + i) land 255)) in
      let v = Int64.of_int ((c * 7919) + b) in
      (match kind with
      | 0 | 1 ->
          let addr, len = span (1 + (b mod 100)) in
          (* every fifth store rewrites the bytes already there *)
          let p = if b mod 5 = 0 then Bytes.sub m.view addr len else payload len in
          if kind = 0 then Device.store d ~addr p else Device.store_nt d ~addr p;
          model_write m ~addr p ~dirty:(kind = 0);
          if kind = 1 then m.nt <- (addr, Bytes.copy p) :: m.nt
      | 2 | 3 ->
          let addr = i64_addr size a in
          let p = Bytes.create 8 in
          Bytes.set_int64_le p 0 v;
          if kind = 2 then Device.store_i64 d ~addr v else Device.store_nt_i64 d ~addr v;
          model_write m ~addr p ~dirty:(kind = 2);
          if kind = 3 then m.nt <- (addr, p) :: m.nt
      | 4 ->
          let addr, len = span (1 + (b mod 200)) in
          Device.poison d ~addr ~size:len;
          model_write m ~addr (Bytes.make len '\xdd') ~dirty:false
      | 5 ->
          let kind = flush_kinds.(b mod 3) and addr = a mod (size + 200) in
          let len = 1 + (c mod 300) in
          Device.flush_range d ~kind ~addr ~size:len;
          for line = addr / 64 to (addr + len - 1) / 64 do
            model_flush_addr m kind ~addr:(line * 64)
          done
      | 6 ->
          let kind = flush_kinds.(b mod 3) in
          if c mod 4 = 0 then begin
            let line = a mod ((size / 64) + 4) and volatile = b mod 2 = 0 in
            Device.flush_line d ~kind ~line ~volatile;
            model_flush m kind ~line ~volatile
          end
          else begin
            let addr = a mod (size + 200) in
            (match kind with
            | Op.Clflush -> Device.clflush d ~addr
            | Op.Clflushopt -> Device.clflushopt d ~addr
            | Op.Clwb -> Device.clwb d ~addr);
            model_flush_addr m kind ~addr
          end
      | 7 ->
          if b mod 2 = 0 then Device.sfence d else Device.mfence d;
          model_fence m
      | 8 | 9 ->
          let addr = i64_addr size a in
          let current = Bytes.get_int64_le m.view addr in
          let p = Bytes.create 8 in
          if kind = 8 then begin
            let expected = if b mod 2 = 0 then current else v in
            let ok = Device.cas d ~addr ~expected ~desired:v in
            if ok <> Int64.equal current expected then fail "cas at %d" addr;
            Bytes.set_int64_le p 0 v;
            if ok then model_write m ~addr p ~dirty:true
          end
          else begin
            if not (Int64.equal (Device.fetch_add d ~addr v) current) then
              fail "fetch_add at %d" addr;
            Bytes.set_int64_le p 0 (Int64.add current v);
            model_write m ~addr p ~dirty:true
          end;
          model_fence m
      | 10 | 11 ->
          (* narrower and wider than the cached set, up to several KB *)
          let addr, len = span (if c mod 3 = 0 then 1 + (b mod 16) else 1 + (b mod 3000)) in
          if kind = 10 then read "load" ~addr (Device.load d ~addr ~size:len)
          else read "peek" ~addr (Device.peek d ~addr ~size:len)
      | 12 ->
          let addr = i64_addr size a in
          let p = Bytes.create 8 in
          Bytes.set_int64_le p 0 (Device.load_i64 d ~addr);
          read "load_i64" ~addr p
      | _ -> (
          match b mod 9 with
          | 0 ->
              rejected "store" (oob (size - 3) 4) (fun () ->
                  Device.store d ~addr:(size - 3) (payload 4))
          | 1 -> rejected "load" (oob (-1) 8) (fun () -> ignore (Device.load d ~addr:(-1) ~size:8))
          | 2 -> rejected "peek" (oob 0 0) (fun () -> ignore (Device.peek d ~addr:0 ~size:0))
          | 3 -> rejected "poison" (oob size 1) (fun () -> Device.poison d ~addr:size ~size:1)
          | 4 ->
              rejected "store_i64" (oob (size - 7) 8) (fun () ->
                  Device.store_i64 d ~addr:(size - 7) v)
          | 5 -> rejected "load_i64" (oob (-8) 8) (fun () -> ignore (Device.load_i64 d ~addr:(-8)))
          | 6 ->
              rejected "store_nt_i64" (oob (size - 4) 8) (fun () ->
                  Device.store_nt_i64 d ~addr:(size - 4) v)
          | 7 ->
              rejected "cas" (oob (size - 1) 8) (fun () ->
                  ignore (Device.cas d ~addr:(size - 1) ~expected:0L ~desired:v))
          | _ -> (
              match Device.flush_range d ~kind:Op.Clwb ~addr:a ~size:(-(c mod 2)) with
              | () -> fail "flush_range of size <= 0 accepted"
              | exception Assert_failure _ -> ())));
      match fingerprints with Some at when at i -> check_fingerprints i | _ -> ())
    ops;
  let crashes = List.map (fun policy -> Device.crash d ~policy) policies in
  List.iteri
    (fun i img ->
      let want = model_crash m ~eadr (List.nth policies i) in
      if not (Bytes.equal (Image.read img ~addr:0 ~size) want) then
        fail "crash image under policy %d of [Adr; Adr_with_pending; Program_prefix]" i)
    crashes;
  (!mismatch, Stats.copy (Device.stats d), Device.poison_log d, crashes)

let gen_datapath_case =
  QCheck.Gen.(
    let op = pair (int_range 0 13) (triple nat nat nat) in
    quad bool (int_range 1 12287) nat (list_size (int_range 1 80) op)
    >>= fun (eadr, extra, seed, ops) ->
    (* no multiple of 64 (hence of 4096) *)
    let size = 8192 + extra + if extra mod 64 = 0 then 1 else 0 in
    return (eadr, size, seed, ops))

let arb_datapath_case =
  QCheck.make
    ~print:(fun (eadr, size, seed, ops) ->
      Printf.sprintf "eadr=%b size=%d seed=%d ops=[%s]" eadr size seed
        (String.concat "; "
           (List.map (fun (k, (a, b, c)) -> Printf.sprintf "%d:%d,%d,%d" k a b c) ops)))
    gen_datapath_case

let prop_datapath_model =
  QCheck.Test.make ~name:"data path matches a byte model, hooked or not" ~count:300
    arb_datapath_case (fun (eadr, size, seed, ops) ->
      let random = Random.State.make [| seed |] in
      let base = Image.create ~size in
      Image.write base ~addr:0 (Bytes.init size (fun _ -> Char.chr (Random.State.int random 256)));
      List.for_all
        (fun base ->
          let case = (eadr, size, ops) in
          let plain, stats, poison, crashes = run_datapath ~hook:false ~base case in
          let hooked, stats', poison', crashes' = run_datapath ~hook:true ~base case in
          match (plain, hooked) with
          | Some msg, _ | None, Some msg -> QCheck.Test.fail_reportf "model mismatch: %s" msg
          | None, None ->
              stats = stats' && poison = poison'
              && List.for_all2 Image.equal crashes crashes'
              || QCheck.Test.fail_report "a no-op hook changed stats, poison log or crash images")
        [ None; Some base ])

(* The write patterns a fingerprint must follow, with several writes
   between requests: a pending NT payload under a line clflush evicted,
   poison after a clflushopt capture (the fence then drops the clean line
   and its poison), clwb keeping a line cached, RMWs, the pool's partial
   last line, and lines written back to zeros. *)
let test_fingerprint_follows_writes () =
  let zero = String.make 16 '\000' in
  List.iter
    (fun eadr ->
      let d = Device.create ~eadr ~fingerprint:true ~size:4100 () in
      let check what =
        List.iteri
          (fun k policy ->
            Alcotest.(check string)
              (Printf.sprintf "eadr=%b, policy %d: %s" eadr k what)
              (Device.image_fingerprint (Device.crash d ~policy))
              (Device.fingerprint d ~policy))
          policies;
        Alcotest.(check string)
          (Printf.sprintf "eadr=%b, persisted: %s" eadr what)
          (Device.image_fingerprint (Device.persisted_image d))
          (Device.persisted_fingerprint d)
      in
      Alcotest.(check string) "a fresh pool's fingerprint is zero" zero
        (Device.fingerprint d ~policy:Device.Program_prefix);
      Device.store_nt_i64 d ~addr:128 1L;
      Device.store_i64 d ~addr:128 2L;
      Device.clflush d ~addr:128;
      check "NT payload pending under an evicted line";
      Device.sfence d;
      check "NT payload drained";
      Device.store_i64 d ~addr:256 3L;
      Device.clflushopt d ~addr:256;
      Device.poison d ~addr:256 ~size:16;
      check "poison after a clflushopt capture";
      Device.sfence d;
      check "the fence drops the clean line";
      (* a line clflushed after its clflushopt, faulted back in by poison
         alone: the fence still evicts it, and nothing else writes it *)
      Device.store_i64 d ~addr:320 8L;
      Device.clflushopt d ~addr:320;
      Device.clflush d ~addr:320;
      Device.poison d ~addr:328 ~size:8;
      check "poison on a line queued for eviction";
      Device.sfence d;
      check "the fence evicts the poisoned line";
      Device.store_i64 d ~addr:512 4L;
      Device.clwb d ~addr:512;
      Device.sfence d;
      Device.store_i64 d ~addr:512 5L;
      check "clwb keeps the line cached";
      ignore (Device.cas d ~addr:640 ~expected:0L ~desired:6L);
      ignore (Device.fetch_add d ~addr:648 7L);
      check "RMWs";
      Device.store d ~addr:4096 (Bytes.of_string "tail");
      Device.clflush d ~addr:4096;
      check "the partial last line";
      List.iter
        (fun (addr, len) ->
          Device.store d ~addr (Bytes.make len '\000');
          Device.clflush d ~addr)
        [ (128, 64); (256, 64); (320, 64); (512, 64); (640, 64); (4096, 4) ];
      check "lines written back to zeros";
      Alcotest.(check string) "an all-zero pool's fingerprint is zero" zero
        (Device.fingerprint d ~policy:Device.Adr))
    [ false; true ];
  Alcotest.check_raises "a device that keeps none"
    (Invalid_argument "Pmem.Device: this device keeps no fingerprint") (fun () ->
      ignore (Device.fingerprint (dev ()) ~policy:Device.Adr))

(* The incremental fingerprint against a from-scratch hash of each crash
   image, on the data-path sequences above (stores and NT stores, poison,
   every flush kind, fences and RMWs) under eADR and ADR: after every op,
   and after every third op so that touches pile up between requests. *)
let prop_fingerprint_incremental =
  QCheck.Test.make ~name:"fingerprints equal a from-scratch hash of the image" ~count:200
    arb_datapath_case (fun (_, size, _, ops) ->
      List.for_all
        (fun (eadr, at) ->
          match run_datapath ~fingerprints:at ~hook:false ~base:None (eadr, size, ops) with
          | Some msg, _, _, _ -> QCheck.Test.fail_reportf "eadr=%b: %s" eadr msg
          | None, _, _, _ -> true)
        [
          (false, fun _ -> true);
          (true, fun _ -> true);
          (false, fun i -> i mod 3 = 2 || i = List.length ops - 1);
        ])

(* Paged images, their snapshots and their views (views of views
   included) against byte-array models, on pool sizes that are no
   multiple of the 4 KiB page: writes, blits both ways and words at
   page-straddling addresses, every third write all zeros and every third
   a rewrite of the bytes already there, and [equal] between any two.
   A view's base is never written while the view lives, as [Image.cow]
   requires, so taking a view of a plain image freezes it. Afterwards
   every image reads its model, and a fresh image reads all zero: the
   shared zero page was never written. *)
type paged = { img : Image.t; model : bytes; view : bool; mutable frozen : bool }

let gen_paged_case =
  QCheck.Gen.(
    let op = pair (int_range 0 8) (triple nat nat nat) in
    pair (int_range 9 13_000) (list_size (int_range 1 80) op) >>= fun (size, ops) ->
    return ((if size mod 4096 = 0 then size + 1 else size), ops))

let arb_paged_case =
  QCheck.make
    ~print:(fun (size, ops) ->
      Printf.sprintf "size=%d ops=[%s]" size
        (String.concat "; "
           (List.map (fun (k, (a, b, c)) -> Printf.sprintf "%d:%d,%d,%d" k a b c) ops)))
    gen_paged_case

(* [len] bytes at an address that straddles a page boundary for most
   [a] when the pool has one, clipped to the pool. *)
let paged_span size a len =
  let len = min len size and pages = size / 4096 in
  let addr =
    if a mod 3 <> 0 && pages > 0 then (4096 * (1 + (a / 3 mod pages))) - 1 - (a / 5 mod len)
    else a mod (size - len + 1)
  in
  (max 0 (min addr (size - len)), len)

let prop_paged_image_model =
  QCheck.Test.make ~name:"paged images, snapshots and views read like a byte model" ~count:300
    arb_paged_case (fun (size, ops) ->
      let objs =
        ref [| { img = Image.create ~size; model = Bytes.make size '\000'; view = false;
                 frozen = false } |]
      in
      let mismatch = ref None in
      let fail fmt =
        Printf.ksprintf (fun msg -> if !mismatch = None then mismatch := Some msg) fmt
      in
      let pick a = !objs.(a mod Array.length !objs) in
      (* the first writable image from [a] on: the newest one always is *)
      let writable a =
        let n = Array.length !objs in
        let rec from k =
          let o = !objs.((a + k) mod n) in
          if o.frozen then from (k + 1) else o
        in
        from 0
      in
      let payload o ~addr len c =
        match c mod 3 with
        | 0 -> Bytes.make len '\000'
        | 1 -> Bytes.sub o.model addr len
        | _ -> Bytes.init len (fun j -> Char.chr ((c + (j * 13)) land 255))
      in
      let add o = if Array.length !objs < 8 then objs := Array.append !objs [| o |] in
      List.iteri
        (fun i (kind, (a, b, c)) ->
          match kind with
          | 0 ->
              let o = writable a in
              let addr, len = paged_span size b (1 + (c mod 5000)) in
              let p = payload o ~addr len c in
              Image.write o.img ~addr p;
              Bytes.blit p 0 o.model addr len
          | 1 ->
              let o = writable a in
              let addr, len = paged_span size b (1 + (c mod 300)) in
              let src_off = c mod 17 in
              let p = payload o ~addr len c in
              let src = Bytes.cat (Bytes.make src_off '\x5a') p in
              Image.blit_to o.img ~dst_addr:addr ~src ~src_off ~len;
              Bytes.blit p 0 o.model addr len
          | 2 ->
              let o = pick a in
              let addr, len = paged_span size b (1 + (c mod 6000)) in
              let dst_off = c mod 13 in
              let dst = Bytes.make (dst_off + len + 3) '\x11' in
              Image.blit_from o.img ~src_addr:addr ~dst ~dst_off ~len;
              if not (Bytes.equal (Bytes.sub dst dst_off len) (Bytes.sub o.model addr len)) then
                fail "blit_from at %d, %d bytes, op %d" addr len i
          | 3 ->
              let o = pick a in
              let addr, _ = paged_span size b 8 in
              if Image.read_i64 o.img ~addr <> Bytes.get_int64_le o.model addr then
                fail "read_i64 at %d, op %d" addr i
          | 4 ->
              let o = writable a in
              let addr, _ = paged_span size b 8 in
              let v = if c mod 3 = 0 then 0L else Int64.of_int ((c * 7919) + i) in
              Image.write_i64 o.img ~addr v;
              Bytes.set_int64_le o.model addr v
          | 5 ->
              let o = pick a in
              add { img = Image.snapshot o.img; model = Bytes.copy o.model; view = false;
                    frozen = false }
          | 6 ->
              let o = pick a in
              if Array.length !objs < 8 then begin
                if not o.view then o.frozen <- true;
                add { img = Image.cow o.img; model = Bytes.copy o.model; view = true;
                      frozen = false }
              end
          | 7 ->
              let o = pick a and o' = pick b in
              if Image.equal o.img o'.img <> Bytes.equal o.model o'.model then
                fail "equal, op %d" i
          | _ ->
              let o = pick a in
              let addr, len = paged_span size b (1 + (c mod 9000)) in
              if not (Bytes.equal (Image.read o.img ~addr ~size:len) (Bytes.sub o.model addr len))
              then fail "read at %d, %d bytes, op %d" addr len i)
        ops;
      Array.iteri
        (fun k o ->
          if not (Bytes.equal (Image.read o.img ~addr:0 ~size) o.model) then
            fail "image %d (view %b) differs from its model" k o.view)
        !objs;
      List.iter
        (fun size ->
          let fresh = Image.read (Image.create ~size) ~addr:0 ~size in
          if not (Bytes.equal fresh (Bytes.make size '\000')) then
            fail "a fresh %d-byte image reads a nonzero byte" size)
        [ size; 4096 ];
      match !mismatch with None -> true | Some msg -> QCheck.Test.fail_reportf "%s" msg)

(* --- the int table --- *)

(* A key from a small universe, so that bindings share chains, hide one
   another and get removed: a dense line or page index, or a key shaped
   like [Pmtrace.Arena.code], with a path id above bit 32 and an op index
   below. *)
let table_key ~coded k = if coded then ((1 + (k mod 7)) lsl 32) lor (k / 7) else k

(* Op kinds 0-2 add, 3-4 remove, 5 probes, 6 asks [mem], 7 compares
   [length] and the walks. *)
let arb_table_case =
  QCheck.make
    ~print:(fun (coded, ops) ->
      Printf.sprintf "coded=%b ops=[%s]" coded
        (String.concat "; " (List.map (fun (k, key) -> Printf.sprintf "%d:%d" k key) ops)))
    QCheck.Gen.(pair bool (list_size (int_range 1 400) (pair (int_range 0 7) (int_range 0 150))))

let prop_int_table_model =
  QCheck.Test.make ~name:"agrees with a Hashtbl model" ~count:300 arb_table_case
    (fun (coded, ops) ->
      let t = Int_table.create 1 and model = Hashtbl.create 16 in
      let by_key l = List.stable_sort (fun (a, _) (b, _) -> compare a b) l in
      let check i what ok = if not ok then QCheck.Test.fail_reportf "op %d: %s" i what in
      List.iteri
        (fun i (kind, k) ->
          let key = table_key ~coded k in
          match kind with
          | 0 | 1 | 2 ->
              Int_table.add t key i;
              Hashtbl.add model key i
          | 3 | 4 ->
              Int_table.remove t key;
              Hashtbl.remove model key
          | 5 ->
              let want = Option.value (Hashtbl.find_opt model key) ~default:(-1) in
              check i (Printf.sprintf "find_or %d" key) (Int_table.find_or t key (-1) = want)
          | 6 -> check i (Printf.sprintf "mem %d" key) (Int_table.mem t key = Hashtbl.mem model key)
          | _ ->
              check i "length" (Int_table.length t = Hashtbl.length model);
              let folded = Int_table.fold (fun k v acc -> (k, v) :: acc) t [] in
              let iterated = ref [] in
              Int_table.iter (fun k v -> iterated := (k, v) :: !iterated) t;
              check i "iter and fold walk alike" (folded = !iterated);
              check i "bindings"
                (by_key folded = by_key (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])))
        ops;
      true)

(* Probes box no option and raise nothing, hit or miss. *)
let test_int_table_probes_allocate_nothing () =
  let t = Int_table.create 16 in
  for k = 0 to 99 do
    Int_table.add t (2 * k) k
  done;
  let before = Mumak.Metrics.allocated_bytes () in
  let hits = ref 0 in
  for k = 0 to 199 do
    if Int_table.find_or t k (-1) >= 0 then incr hits;
    if Int_table.mem t k then incr hits
  done;
  let bytes = Mumak.Metrics.allocated_bytes () -. before in
  Alcotest.(check int) "every even key found, twice" 200 !hits;
  if bytes > 256. then Alcotest.failf "400 probes allocated %.0f bytes" bytes

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
          Alcotest.test_case "flush of an uncached line" `Quick test_hook_flush_of_uncached_line;
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
          Alcotest.test_case "clean crash view shares pages" `Quick
            test_clean_crash_view_shares_pages;
          Alcotest.test_case "identical write shares page" `Quick
            test_identical_write_shares_page;
          Alcotest.test_case "equal keeps a view a view" `Quick test_equal_keeps_view;
          Alcotest.test_case "a pool costs what it touches" `Quick
            test_pool_costs_what_it_touches;
        ] );
      ( "fingerprint",
        [ Alcotest.test_case "follows every write" `Quick test_fingerprint_follows_writes ] );
      ( "int-table",
        [
          Alcotest.test_case "probes allocate nothing" `Quick
            test_int_table_probes_allocate_nothing;
          QCheck_alcotest.to_alcotest prop_int_table_model;
        ] );
      qsuite "properties"
        [
          prop_lines_spanned_cover;
          prop_align_up;
          prop_store_load_roundtrip;
          prop_flush_fence_durability;
          prop_prefix_crash_equals_volatile_view;
          prop_crash_views_isolated;
          prop_datapath_model;
          prop_fingerprint_incremental;
          prop_paged_image_model;
        ];
    ]
