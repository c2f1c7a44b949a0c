(* Tests for the PMDK-analogue: pool lifecycle, redo-logged allocation,
   undo-log transactions, and — crucially — crash-atomicity sweeps: we crash
   every operation at every PM instruction and require recovery to restore a
   consistent state. *)

open Pmalloc

let i64 = Testutil.Crash.i64
let pool_size = 256 * 1024

let fresh ?(version = Version.V1_12) () =
  let dev = Pmem.Device.create ~size:pool_size () in
  let pool = Pool.create ~version dev in
  (dev, pool)

(* --- pool lifecycle --- *)

let test_create_attach () =
  let dev, pool = fresh () in
  let img = Pmem.Device.crash dev ~policy:Pmem.Device.Program_prefix in
  let pool2 = Pool.attach (Pmem.Device.of_image img) in
  Alcotest.(check string) "version survives" "1.12"
    (Version.to_string (Pool.version pool2));
  Alcotest.(check int) "size" (Pool.size pool) (Pool.size pool2)

let test_header_corruption_detected () =
  let dev, _pool = fresh () in
  let img = Pmem.Device.crash dev ~policy:Pmem.Device.Program_prefix in
  Pmem.Image.write img ~addr:20 (Bytes.make 1 '\xff');
  Alcotest.check_raises "corrupt header"
    (Pool.Corrupted "header checksum mismatch")
    (fun () -> ignore (Pool.attach (Pmem.Device.of_image img)))

let test_root_roundtrip () =
  let dev, pool = fresh () in
  Pool.set_root pool ~off:8192 ~size:128;
  let img = Pmem.Device.crash dev ~policy:Pmem.Device.Program_prefix in
  let pool2 = Pool.attach (Pmem.Device.of_image img) in
  Alcotest.(check (option (pair int int))) "root" (Some (8192, 128)) (Pool.root pool2)

(* --- allocator --- *)

let test_alloc_free_reuse () =
  let _dev, pool = fresh () in
  let heap = Alloc.attach pool in
  let a = Alloc.alloc heap ~bytes:100 in
  let b = Alloc.alloc heap ~bytes:200 in
  Alcotest.(check bool) "disjoint" true (b >= a + 128 || a >= b + 256);
  Alcotest.(check int) "size a (2 chunks)" 128 (Alloc.alloc_size heap a);
  Alcotest.(check int) "size b (4 chunks)" 256 (Alloc.alloc_size heap b);
  Alloc.free heap a;
  let c = Alloc.alloc heap ~bytes:64 in
  Alcotest.(check bool) "freed space reusable" true (c >= 0);
  Alcotest.(check (result unit string)) "bitmap consistent" (Ok ()) (Alloc.check pool)

let test_alloc_zeroing_by_version () =
  let _dev, pool16 = fresh ~version:Version.V1_6 () in
  let heap = Alloc.attach pool16 in
  let a = Alloc.alloc heap ~bytes:64 in
  Alcotest.check i64 "V1_6 zeroes" 0L (Pool.read_i64 pool16 ~off:a);
  let _dev, pool112 = fresh ~version:Version.V1_12 () in
  let heap = Alloc.attach pool112 in
  let a = Alloc.alloc heap ~bytes:64 in
  Alcotest.(check bool) "V1_12 poisons" true (Pool.read_i64 pool112 ~off:a <> 0L);
  let b = Alloc.alloc ~zero:true heap ~bytes:64 in
  Alcotest.check i64 "explicit zero honoured" 0L (Pool.read_i64 pool112 ~off:b)

let test_alloc_out_of_space () =
  let _dev, pool = fresh () in
  let heap = Alloc.attach pool in
  let total = Alloc.chunk_count heap * 64 in
  Alcotest.(check bool) "big alloc rejected" true
    (match Alloc.alloc heap ~bytes:(total * 2) with
    | exception Alloc.Out_of_space _ -> true
    | _ -> false)

let test_alloc_mirror_rebuilt_after_crash () =
  let dev, pool = fresh () in
  let heap = Alloc.attach pool in
  let a = Alloc.alloc heap ~bytes:64 in
  let img = Pmem.Device.crash dev ~policy:Pmem.Device.Program_prefix in
  let pool2, heap2, _report = Recovery.open_pool (Pmem.Device.of_image img) in
  ignore pool2;
  Alcotest.(check int) "used chunks survive" (Alloc.used_chunks heap) (Alloc.used_chunks heap2);
  Alloc.free heap2 a;
  Alcotest.(check int) "free works after reattach" (Alloc.used_chunks heap - 1)
    (Alloc.used_chunks heap2)

(* --- redo log --- *)

let test_redo_commit_applies () =
  let _dev, pool = fresh () in
  let b = Redo.begin_ () in
  Redo.add b ~addr:8192 ~value:7L;
  Redo.add b ~addr:8200 ~value:8L;
  Redo.commit pool b;
  Alcotest.check i64 "first applied" 7L (Pool.read_i64 pool ~off:8192);
  Alcotest.check i64 "second applied" 8L (Pool.read_i64 pool ~off:8200)

let test_redo_recover_is_idempotent () =
  let dev, pool = fresh () in
  let b = Redo.begin_ () in
  Redo.add b ~addr:8192 ~value:7L;
  Redo.commit pool b;
  let img = Pmem.Device.crash dev ~policy:Pmem.Device.Program_prefix in
  let pool2 = Pool.attach (Pmem.Device.of_image img) in
  Alcotest.(check bool) "clean after commit" true (Redo.recover pool2 = `Clean);
  Alcotest.check i64 "value still there" 7L (Pool.read_i64 pool2 ~off:8192)

(* --- transactions --- *)

let test_tx_commit_persists () =
  let dev, pool = fresh () in
  let heap = Alloc.attach pool in
  let a = Alloc.alloc ~zero:true heap ~bytes:64 in
  Tx.run ~heap pool (fun tx -> Tx.add_and_store_i64 tx ~off:a 42L);
  let img = Pmem.Device.crash dev ~policy:Pmem.Device.Adr in
  (* even a power-cut (nothing volatile survives) sees the committed data *)
  let pool2, _heap2, _ = Recovery.open_pool (Pmem.Device.of_image img) in
  Alcotest.check i64 "committed durable" 42L (Pool.read_i64 pool2 ~off:a)

let test_tx_abort_rolls_back () =
  let _dev, pool = fresh () in
  let heap = Alloc.attach pool in
  let a = Alloc.alloc ~zero:true heap ~bytes:64 in
  Pool.persist_i64 pool ~off:a 1L;
  (try
     Tx.run ~heap pool (fun tx ->
         Tx.add_and_store_i64 tx ~off:a 99L;
         failwith "user abort")
   with Failure _ -> ());
  Alcotest.check i64 "rolled back" 1L (Pool.read_i64 pool ~off:a)

let test_tx_large_overflow () =
  let _dev, pool = fresh () in
  let heap = Alloc.attach pool in
  let a = Alloc.alloc ~zero:true heap ~bytes:8192 in
  (* 8192/8 = 1024 single-slot snapshots > 128 fixed slots: forces the
     extension chain to grow *)
  Tx.run ~heap pool (fun tx ->
      for i = 0 to 1023 do
        Tx.add_and_store_i64 tx ~off:(a + (i * 8)) (Int64.of_int i)
      done);
  Alcotest.check i64 "first" 0L (Pool.read_i64 pool ~off:a);
  Alcotest.check i64 "last" 1023L (Pool.read_i64 pool ~off:(a + 8184));
  Alcotest.(check (result unit string)) "no leaked extensions: bitmap sane" (Ok ())
    (Alloc.check pool);
  (* all extension chunks must have been freed again *)
  Alcotest.(check int) "only the data allocation remains" (8192 / 64)
    (Alloc.used_chunks heap)

let test_tx_nested_rejected () =
  let _dev, pool = fresh () in
  let _tx = Tx.begin_ pool in
  Alcotest.(check bool) "second begin rejected" true
    (match Tx.begin_ pool with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- crash sweeps: the core guarantee --- *)

(* Run [scenario] against a freshly formatted pool, crash at every PM
   instruction, and require that recovery succeeds and [validate] holds on
   the recovered pool. [prepare] runs before injection is armed. *)
let sweep_scenario ?(version = Version.V1_12) ?(prepare = fun _ _ -> ()) ~name scenario
    validate =
  let setup dev =
    let pool = Pool.create ~version dev in
    let heap = Alloc.attach pool in
    prepare pool heap;
    (pool, heap)
  in
  let run (pool, heap) = scenario pool heap in
  let checked =
    Testutil.Crash.sweep ~size:pool_size ~policy:Pmem.Device.Program_prefix ~setup run
      ~check:(fun ~at image ->
        match Recovery.open_pool (Pmem.Device.of_image image) with
        | pool, heap, _report -> validate ~at pool heap
        | exception Pool.Corrupted msg ->
            Alcotest.failf "%s: crash at op %d left unrecoverable pool: %s" name at msg)
  in
  Alcotest.(check bool) (name ^ ": sweep ran") true (checked > 0)

let test_sweep_alloc_free () =
  sweep_scenario ~name:"alloc/free"
    (fun pool heap ->
      ignore pool;
      let a = Alloc.alloc heap ~bytes:128 in
      let b = Alloc.alloc heap ~bytes:64 in
      Alloc.free heap a;
      ignore b)
    (fun ~at pool _heap ->
      match Alloc.check pool with
      | Ok () -> ()
      | Error e -> Alcotest.failf "bitmap inconsistent at op %d: %s" at e)

let test_sweep_tx_atomicity () =
  (* A transaction writes two cells; after any crash + recovery the cells
     must be both-old or both-new. *)
  sweep_scenario ~name:"tx atomicity"
    ~prepare:(fun pool heap ->
      let a = Alloc.alloc ~zero:true heap ~bytes:64 in
      assert (a = (Pool.layout pool).Layout.heap_off);
      Pool.persist_i64 pool ~off:a 1L;
      Pool.persist_i64 pool ~off:(a + 8) 1L)
    (fun pool heap ->
      let a = (Pool.layout pool).Layout.heap_off in
      Tx.run ~heap pool (fun tx ->
          Tx.add_and_store_i64 tx ~off:a 2L;
          Tx.add_and_store_i64 tx ~off:(a + 8) 2L))
    (fun ~at pool _heap ->
      let a = (Pool.layout pool).Layout.heap_off in
      let x = Pool.read_i64 pool ~off:a and y = Pool.read_i64 pool ~off:(a + 8) in
      let consistent =
        (Int64.equal x 1L && Int64.equal y 1L) || (Int64.equal x 2L && Int64.equal y 2L)
      in
      if not consistent then
        Alcotest.failf "atomicity violated at op %d: x=%Ld y=%Ld" at x y)

let test_sweep_tx_overflow_clean_version () =
  (* Large (overflow-using) transactions must also be crash-atomic when the
     seeded 1.12 bug is disabled. The probe transaction at validation time
     would trip over a stale extension pointer if commit were torn. *)
  sweep_scenario ~name:"tx overflow"
    ~prepare:(fun _pool heap -> ignore (Alloc.alloc ~zero:true heap ~bytes:2048))
    (fun pool heap ->
      let a = (Pool.layout pool).Layout.heap_off in
      Tx.run ~heap pool (fun tx ->
          for i = 0 to 255 do
            Tx.add_and_store_i64 tx ~off:(a + (i * 8)) 7L
          done))
    (fun ~at pool heap ->
      match
        Tx.run ~heap pool (fun tx -> Tx.add_and_store_i64 tx ~off:(Pool.size pool - 64) 1L)
      with
      | () -> ()
      | exception Pool.Corrupted msg -> Alcotest.failf "probe tx failed at op %d: %s" at msg)

let test_seeded_bug_tx_overflow_commit () =
  (* With the seeded PMDK-1.12 bug enabled, some crash point during a large
     commit must leave a stale extension pointer that makes the next large
     transaction raise — the bug Mumak found (section 6.4). *)
  Bugreg.with_enabled [ "pmdk112_tx_overflow_commit" ] (fun () ->
      let setup dev =
        let pool = Pool.create ~version:Version.V1_12 dev in
        let heap = Alloc.attach pool in
        ignore (Alloc.alloc ~zero:true heap ~bytes:2048);
        (pool, heap)
      in
      let run (pool, heap) =
        let a = (Pool.layout pool).Layout.heap_off in
        Tx.run ~heap pool (fun tx ->
            for i = 0 to 255 do
              Tx.add_and_store_i64 tx ~off:(a + (i * 8)) 7L
            done)
      in
      let total = Testutil.Crash.ops_in ~size:pool_size ~setup run in
      let exposed = ref false in
      for at = 1 to total do
        match
          Testutil.Crash.image_at ~size:pool_size ~policy:Pmem.Device.Program_prefix ~setup
            ~at run
        with
        | None -> ()
        | Some image -> (
            match
              let pool, heap, _ = Recovery.open_pool (Pmem.Device.of_image image) in
              Tx.run ~heap pool (fun tx ->
                  Tx.add_and_store_i64 tx ~off:(Pool.size pool - 64) 1L)
            with
            | () -> ()
            | exception Pool.Corrupted _ -> exposed := true)
      done;
      Alcotest.(check bool) "bug exposed by some crash point" true !exposed)

(* The pool header protocol itself must be failure-atomic at every single
   PM instruction: a crash during create reads as Not_initialised (the app
   re-creates), a crash during a root publish is completed by the redo log,
   and Corrupted is never raised. This sweep covers the two holes found by
   dogfooding Mumak at store granularity (DESIGN.md note 3). *)
let test_sweep_header_protocol () =
  let scenario dev =
    let pool = Pool.create ~version:Version.V1_12 dev in
    let heap = Alloc.attach pool in
    let a = Alloc.alloc ~zero:true heap ~bytes:64 in
    Pool.set_root pool ~off:a ~size:64;
    let b = Alloc.alloc ~zero:true heap ~bytes:64 in
    Pool.set_root pool ~off:b ~size:64
  in
  let total = Testutil.Crash.ops_in ~size:pool_size ~setup:(fun d -> d) scenario in
  for at = 1 to total do
    match
      Testutil.Crash.image_at ~size:pool_size ~policy:Pmem.Device.Program_prefix
        ~setup:(fun d -> d) ~at scenario
    with
    | None -> Alcotest.failf "crash point %d not reached" at
    | Some image -> (
        match Recovery.open_pool (Pmem.Device.of_image image) with
        | _pool, _heap, _report -> ()
        | exception Pool.Not_initialised -> () (* crash before the commit marker *)
        | exception Pool.Corrupted msg ->
            Alcotest.failf "header protocol torn at op %d: %s" at msg)
  done

let prop_alloc_free_random =
  QCheck.Test.make ~name:"random alloc/free keeps bitmap consistent" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 60) (int_range 1 600))
    (fun sizes ->
      let _dev, pool = fresh () in
      let heap = Alloc.attach pool in
      let live = ref [] in
      List.iteri
        (fun i bytes ->
          (match Alloc.alloc heap ~bytes with
          | addr -> live := addr :: !live
          | exception Alloc.Out_of_space _ -> ());
          if i mod 3 = 2 then
            match !live with
            | [] -> ()
            | a :: rest ->
                Alloc.free heap a;
                live := rest)
        sizes;
      Alloc.check pool = Ok ())

let prop_tx_random_rollback =
  QCheck.Test.make ~name:"aborted tx restores every snapshotted word" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 0 127))
    (fun slots ->
      let _dev, pool = fresh () in
      let heap = Alloc.attach pool in
      let a = Alloc.alloc ~zero:true heap ~bytes:1024 in
      List.iteri (fun i s -> Pool.persist_i64 pool ~off:(a + (s * 8)) (Int64.of_int i)) slots;
      let before = List.map (fun s -> Pool.read_i64 pool ~off:(a + (s * 8))) slots in
      (try
         Tx.run ~heap pool (fun tx ->
             List.iter (fun s -> Tx.add_and_store_i64 tx ~off:(a + (s * 8)) 9999L) slots;
             failwith "abort")
       with Failure _ -> ());
      let after = List.map (fun s -> Pool.read_i64 pool ~off:(a + (s * 8))) slots in
      before = after)

(* --- bitmap scans against a byte-at-a-time reference --- *)

(* [Alloc.check]'s contract, one byte at a time: the first orphan
   continuation or invalid mark in index order. *)
let reference_check bitmap =
  let error = ref None in
  Bytes.iteri
    (fun i c ->
      if Option.is_none !error then
        match Char.code c with
        | 0 | 1 -> ()
        | 2 ->
            if i = 0 || Bytes.get bitmap (i - 1) = '\000' then
              error := Some (Printf.sprintf "orphan continuation chunk at index %d" i)
        | b -> error := Some (Printf.sprintf "invalid bitmap byte %d at index %d" b i))
    bitmap;
  match !error with None -> Ok () | Some e -> Error e

let reference_used bitmap = Bytes.fold_left (fun n c -> if c = '\000' then n else n + 1) 0 bitmap

let read_bitmap pool =
  let layout = Pool.layout pool in
  Pool.read_bytes pool ~off:layout.Layout.bitmap_off ~len:layout.Layout.chunk_count

(* Bitmap pieces aimed at the word scan's edges; word boundaries are
   counted from the first bitmap byte. *)
type piece =
  | Free of int (* that many free bytes *)
  | Free_words of int (* up to a word boundary, then that many all-free words *)
  | Run of int (* a start and [n - 1] continuations *)
  | Straddle of int * int (* a run of [n] starting [r < n] bytes before a word boundary *)
  | Orphan (* a free byte, then a continuation *)
  | Word_orphan (* an all-free word, then a continuation opening the next word *)
  | Invalid of int (* a mark out of range *)

let render ~len pieces =
  let b = Buffer.create len in
  let free k = Buffer.add_string b (String.make k '\000') in
  let to_word () = free ((8 - (Buffer.length b land 7)) land 7) in
  let run n =
    Buffer.add_char b '\001';
    Buffer.add_string b (String.make (n - 1) '\002')
  in
  List.iter
    (function
      | Free k -> free k
      | Free_words k ->
          to_word ();
          free (8 * k)
      | Run n -> run n
      | Straddle (r, n) ->
          to_word ();
          free (8 - r);
          run n
      | Orphan ->
          free 1;
          Buffer.add_char b '\002'
      | Word_orphan ->
          to_word ();
          free 8;
          Buffer.add_char b '\002'
      | Invalid v -> Buffer.add_char b (Char.chr v))
    pieces;
  let s = Buffer.contents b in
  Bytes.of_string
    (if String.length s >= len then String.sub s 0 len
     else s ^ String.make (len - String.length s) '\000')

(* A pool of [chunks] (mostly not a multiple of 8) whose bitmap holds the
   rendered pieces; a third of the bitmaps have no error piece. *)
let gen_bitmap_pool =
  let open QCheck.Gen in
  let valid =
    [
      (4, map (fun k -> Free k) (int_range 1 12));
      (3, map (fun k -> Free_words k) (int_range 1 4));
      (5, map (fun n -> Run n) (int_range 1 20));
      (3, int_range 1 7 >>= fun r -> map (fun n -> Straddle (r, n)) (int_range (r + 1) (r + 12)));
    ]
  in
  let faulty =
    [ (1, return Orphan); (1, return Word_orphan); (1, map (fun v -> Invalid v) (int_range 3 255)) ]
  in
  int_range 3 700 >>= fun words ->
  frequency [ (1, return valid); (2, return (valid @ faulty)) ] >>= fun pieces ->
  map (fun ps -> (16704 + (64 * words), ps)) (list_size (int_range 0 60) (frequency pieces))

let bitmap_pool (pool_size, pieces) =
  let dev = Pmem.Device.create ~size:pool_size () in
  let pool = Pool.create dev in
  let layout = Pool.layout pool in
  Pool.write_bytes pool ~off:layout.Layout.bitmap_off
    (render ~len:layout.Layout.chunk_count pieces);
  pool

let arb_bitmap_pool =
  QCheck.make gen_bitmap_pool ~print:(fun case ->
      let bitmap = read_bitmap (bitmap_pool case) in
      Printf.sprintf "%d chunks: %s" (Bytes.length bitmap)
        (String.concat ""
           (List.map
              (fun c -> if Char.code c < 3 then string_of_int (Char.code c) else "x")
              (List.of_seq (Bytes.to_seq bitmap)))))

(* [Alloc.check] reads the bitmap with the one load it always made: one
   [Load] event of the whole bitmap and one counted load. Its buffer is
   reused across calls, so a smaller pool checked after a larger one
   whose last chunk is an orphan must see only its own, clean, bitmap. *)
let test_check_one_load () =
  List.iter
    (fun (pool_size, orphan) ->
      let dev = Pmem.Device.create ~size:pool_size () in
      let pool = Pool.create dev in
      let layout = Pool.layout pool in
      let n = layout.Layout.chunk_count in
      if orphan then Pool.write_bytes pool ~off:(layout.Layout.bitmap_off + n - 1) (Bytes.make 1 '\002');
      Pmem.Device.trace_loads dev true;
      let seen = ref [] in
      Pmem.Device.set_hook dev (Some (fun op -> seen := Pmem.Op.to_string op :: !seen));
      let loads = (Pmem.Device.stats dev).Pmem.Stats.loads in
      let got = Alloc.check pool in
      Alcotest.(check (result unit string)) "first error"
        (if orphan then Error (Printf.sprintf "orphan continuation chunk at index %d" (n - 1))
         else Ok ())
        got;
      Alcotest.(check (list string)) "one load event"
        [ Pmem.Op.to_string (Pmem.Op.Load { addr = layout.Layout.bitmap_off; size = n }) ]
        !seen;
      Alcotest.(check int) "one load counted" (loads + 1) (Pmem.Device.stats dev).Pmem.Stats.loads)
    [ (1 lsl 22, true); (1 lsl 20, false); (1 lsl 21, true) ]

let prop_check_matches_bytewise =
  QCheck.Test.make ~name:"check = byte-at-a-time reference" ~count:400 arb_bitmap_pool
    (fun case ->
      let pool = bitmap_pool case in
      Alloc.check pool = reference_check (read_bitmap pool))

let prop_used_chunks_matches_bytewise =
  QCheck.Test.make ~name:"used_chunks = byte-at-a-time count" ~count:200
    QCheck.(pair arb_bitmap_pool (list_of_size (Gen.int_range 0 30) (pair bool (int_range 1 600))))
    (fun (case, ops) ->
      let pool = bitmap_pool case in
      let heap = Alloc.attach pool in
      let layout = Pool.layout pool in
      let counted () = Alloc.used_chunks heap = reference_used (read_bitmap pool) in
      let live =
        ref
          (List.filter
             (fun a -> Alloc.is_allocation_start heap a)
             (List.init (Alloc.chunk_count heap) (Layout.chunk_addr layout)))
      in
      counted ()
      && List.for_all
           (fun (is_alloc, n) ->
             (if is_alloc then (
                match Alloc.alloc heap ~bytes:n with
                | a -> live := a :: !live
                | exception Alloc.Out_of_space _ -> ())
              else
                match !live with
                | [] -> ()
                | l ->
                    let a = List.nth l (n mod List.length l) in
                    Alloc.free heap a;
                    live := List.filter (( <> ) a) l);
             counted ())
           ops)

let () =
  Alcotest.run "pmalloc"
    [
      ( "pool",
        [
          Alcotest.test_case "create/attach" `Quick test_create_attach;
          Alcotest.test_case "header corruption" `Quick test_header_corruption_detected;
          Alcotest.test_case "root roundtrip" `Quick test_root_roundtrip;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "alloc/free/reuse" `Quick test_alloc_free_reuse;
          Alcotest.test_case "zeroing by version" `Quick test_alloc_zeroing_by_version;
          Alcotest.test_case "out of space" `Quick test_alloc_out_of_space;
          Alcotest.test_case "mirror rebuilt" `Quick test_alloc_mirror_rebuilt_after_crash;
          Alcotest.test_case "check loads the bitmap once" `Quick test_check_one_load;
        ] );
      ( "redo",
        [
          Alcotest.test_case "commit applies" `Quick test_redo_commit_applies;
          Alcotest.test_case "recover idempotent" `Quick test_redo_recover_is_idempotent;
        ] );
      ( "tx",
        [
          Alcotest.test_case "commit persists" `Quick test_tx_commit_persists;
          Alcotest.test_case "abort rolls back" `Quick test_tx_abort_rolls_back;
          Alcotest.test_case "large overflow" `Quick test_tx_large_overflow;
          Alcotest.test_case "nested rejected" `Quick test_tx_nested_rejected;
        ] );
      ( "crash-sweeps",
        [
          Alcotest.test_case "alloc/free sweep" `Slow test_sweep_alloc_free;
          Alcotest.test_case "tx atomicity sweep" `Slow test_sweep_tx_atomicity;
          Alcotest.test_case "tx overflow sweep" `Slow test_sweep_tx_overflow_clean_version;
          Alcotest.test_case "seeded 1.12 bug exposed" `Slow test_seeded_bug_tx_overflow_commit;
          Alcotest.test_case "header protocol sweep" `Slow test_sweep_header_protocol;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_alloc_free_random;
            prop_tx_random_rollback;
            prop_check_matches_bytewise;
            prop_used_chunks_matches_bytewise;
          ] );
    ]
