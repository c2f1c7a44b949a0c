(** Persistent chunk allocator.

    The heap is an array of 64-byte chunks described by a persisted bitmap
    (one byte per chunk: 0 = free, 1 = allocation start, 2 = continuation).
    Every bitmap mutation goes through the {!Redo} log as whole-word writes,
    so allocation and free are failure-atomic: after any crash the bitmap is
    either fully pre- or fully post-operation.

    A volatile mirror of the bitmap accelerates the free-run search; it is
    rebuilt from PM on {!attach}.

    Version note: in {!Version.V1_6} fresh allocations are zero-filled and
    persisted; from 1.8 on they are handed out uninitialised (filled with a
    0xDD poison pattern in the simulator), matching the allocator behaviour
    change that breaks Hashmap Atomic (paper section 6.1). *)

type t = {
  pool : Pool.t;
  mirror : Bytes.t; (* volatile copy of the bitmap *)
  mutable next_fit : int; (* chunk index where the next search starts *)
}

exception Out_of_space of { requested_chunks : int }

let free_byte = '\000'
let start_byte = '\001'
let cont_byte = '\002'

let attach pool =
  let layout = Pool.layout pool in
  let mirror =
    Pool.read_bytes pool ~off:layout.Layout.bitmap_off ~len:layout.Layout.chunk_count
  in
  { pool; mirror; next_fit = 0 }

let pool t = t.pool
let chunk_count t = (Pool.layout t.pool).Layout.chunk_count

(* The bitmap is mostly free, so its scans skip all-free words eight bytes
   at a time and look at single bytes only inside a word that holds a mark.
   [skip_free b n i] is the first index from the word-aligned [i] on that
   is not inside an all-free word of the first [n] bytes of [b]. *)
let rec skip_free b n i =
  if i + 8 <= n && Bytes.get_int64_ne b i = 0L then skip_free b n (i + 8) else i

let used_chunks t =
  let m = t.mirror in
  let rec words i used =
    let i = skip_free m (Bytes.length m) i in
    if i >= Bytes.length m then used else bytes i (min (Bytes.length m) (i + 8)) used
  and bytes i stop used =
    if i >= stop then words stop used
    else bytes (i + 1) stop (if Bytes.get m i = free_byte then used else used + 1)
  in
  words 0 0

(* Find [n] consecutive free chunks, next-fit with wrap-around. *)
let find_run t n =
  let total = chunk_count t in
  let run_at start =
    let rec ok i = i >= n || (start + i < total && Bytes.get t.mirror (start + i) = free_byte && ok (i + 1)) in
    ok 0
  in
  let rec search pos remaining =
    if remaining <= 0 then None
    else
      let pos = if pos >= total then 0 else pos in
      if run_at pos then Some pos
      else search (pos + 1) (remaining - 1)
  in
  search t.next_fit total

(* Stage whole-word bitmap updates covering chunk range [c0, c0+n) where
   each byte takes its new mark, and commit them through the redo log. *)
let write_marks t ~c0 ~n ~mark_start ~mark_rest =
  let layout = Pool.layout t.pool in
  let bitmap_off = layout.Layout.bitmap_off in
  (* Update the mirror first, then derive the new word values from it. *)
  for i = 0 to n - 1 do
    Bytes.set t.mirror (c0 + i) (if i = 0 then mark_start else mark_rest)
  done;
  let w_first = (bitmap_off + c0) / 8 and w_last = (bitmap_off + c0 + n - 1) / 8 in
  let b = Redo.begin_ () in
  for w = w_first to w_last do
    let word_addr = w * 8 in
    let value = ref 0L in
    for k = 7 downto 0 do
      let byte_addr = word_addr + k in
      let c = byte_addr - bitmap_off in
      let byte =
        if c >= 0 && c < chunk_count t then Char.code (Bytes.get t.mirror c) else 0
      in
      value := Int64.logor (Int64.shift_left !value 8) (Int64.of_int byte)
    done;
    Redo.add b ~addr:word_addr ~value:!value
  done;
  Redo.commit t.pool b

let alloc ?(zero = false) t ~bytes =
  if bytes <= 0 then invalid_arg "Pmalloc.Alloc.alloc: size must be positive";
  let n = (bytes + Layout.chunk_size - 1) / Layout.chunk_size in
  match find_run t n with
  | None -> raise (Out_of_space { requested_chunks = n })
  | Some c0 ->
      write_marks t ~c0 ~n ~mark_start:start_byte ~mark_rest:cont_byte;
      t.next_fit <- c0 + n;
      let addr = Layout.chunk_addr (Pool.layout t.pool) c0 in
      let zero_fill = zero || Pool.version t.pool = Version.V1_6 in
      if zero_fill then begin
        for i = 0 to n - 1 do
          Pool.write_bytes t.pool
            ~off:(addr + (i * Layout.chunk_size))
            (Bytes.make Layout.chunk_size '\000')
        done;
        Pool.persist t.pool ~off:addr ~size:(n * Layout.chunk_size)
      end
      else
        (* Uninitialised memory: hand out garbage contents, the way reused
           heap memory holds stale data. Not a program store, so it is
           invisible to the instrumentation. *)
        Pmem.Device.poison (Pool.device t.pool) ~addr ~size:(n * Layout.chunk_size);
      addr

(* Number of chunks in the allocation starting at chunk [c0]. *)
let run_length t c0 =
  let total = chunk_count t in
  let rec count i =
    if c0 + i < total && Bytes.get t.mirror (c0 + i) = cont_byte then count (i + 1) else i
  in
  count 1

let alloc_size t addr =
  let c0 = Layout.chunk_of_addr (Pool.layout t.pool) addr in
  run_length t c0 * Layout.chunk_size

let is_allocation_start t addr =
  let c0 = Layout.chunk_of_addr (Pool.layout t.pool) addr in
  c0 >= 0 && c0 < chunk_count t && Bytes.get t.mirror c0 = start_byte

let free t addr =
  let layout = Pool.layout t.pool in
  let c0 = Layout.chunk_of_addr layout addr in
  if c0 < 0 || c0 >= chunk_count t then invalid_arg "Pmalloc.Alloc.free: address outside heap";
  if Bytes.get t.mirror c0 <> start_byte then
    invalid_arg "Pmalloc.Alloc.free: not the start of an allocation";
  let n = run_length t c0 in
  write_marks t ~c0 ~n ~mark_start:free_byte ~mark_rest:free_byte;
  if c0 < t.next_fit then t.next_fit <- c0

(* [check]'s copy of the persisted bitmap, one per domain, grown to the
   largest bitmap checked so far and reused by every later call. *)
let check_buffer = Domain.DLS.new_key (fun () -> ref Bytes.empty)

(** Structural validation of the persisted bitmap: every continuation byte
    must follow a start or another continuation, and byte values must be in
    range. Used by recovery procedures as part of their consistency
    oracle. Reports the first error in index order. *)
let check pool =
  let layout = Pool.layout pool in
  let n = layout.Layout.chunk_count in
  let buffer = Domain.DLS.get check_buffer in
  if Bytes.length !buffer < n then buffer := Bytes.create n;
  let bitmap = !buffer in
  Pool.read_into pool ~off:layout.Layout.bitmap_off ~len:n bitmap;
  let rec words i =
    let i = skip_free bitmap n i in
    if i >= n then Ok () else bytes i (min n (i + 8))
  and bytes i stop =
    if i >= stop then words stop
    else
      match Bytes.get bitmap i with
      | c when c = free_byte || c = start_byte -> bytes (i + 1) stop
      | c when c = cont_byte ->
          if i = 0 || Bytes.get bitmap (i - 1) = free_byte then
            Error (Printf.sprintf "orphan continuation chunk at index %d" i)
          else bytes (i + 1) stop
      | c -> Error (Printf.sprintf "invalid bitmap byte %d at index %d" (Char.code c) i)
  in
  words 0
