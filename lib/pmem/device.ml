type crash_policy = Program_prefix | Adr | Adr_with_pending

exception Out_of_bounds of { addr : int; size : int; device_size : int }

(* Per-line volatile cache state. [data] is the full 64-byte line as the
   program sees it. [dirty] is true when the line holds stores that have not
   been captured by any flush yet. [capture] holds what the latest unfenced
   clflushopt/clwb captured while [pending] is set; the buffer is reused by
   the line's later captures ([Bytes.empty] until the first).
   [invalidate_queued] is set while the line's index sits in
   [invalidate_on_fence]. *)
type line_state = {
  line : int;
  data : bytes;
  mutable dirty : bool;
  mutable pending : bool;
  mutable capture : bytes;
  mutable invalidate_queued : bool;
}

(* The cached lines by index. A probe answers a miss with [no_line] (or
   [no_fp_line]), so it neither boxes an option nor raises. Nothing
   depends on the table's iteration order: [line_versions] sorts, and the
   other walks write disjoint lines or sum over them. *)
module Lines = Int_table

(* The line table's initial bucket count: an adopted crash view starts
   small, and walking the table costs at least this many buckets. *)
let initial_lines = 16

(* Fingerprint upkeep, on a device created with [~fingerprint:true]. Per
   line it touched, the device keeps the hash of the line's persisted
   bytes and of its [Program_prefix] view, and the lane-wise sums of both
   over all lines. A write to either queues the line, and only queued
   lines are rehashed, when a fingerprint is asked for. *)
type fp_line = {
  fl_line : int;
  mutable persisted_h : string;
  mutable prefix_h : string;
  mutable persisted_stale : bool; (* persisted bytes written since the last rehash *)
  mutable queued : bool;
}

type fp = {
  hashes : fp_line Lines.t;
  mutable queue : fp_line array; (* [queue.(0 .. n_queued - 1)]: lines to rehash *)
  mutable n_queued : int;
  persisted_sum : bytes;
  prefix_sum : bytes;
  persisted_buf : bytes; (* hash input: line index, then the line's bytes *)
  view_buf : bytes;
}

type t = {
  image : Image.t;
  eadr : bool;
  fp : fp option;
  lines : line_state Lines.t;
  mutable pending : line_state array;
      (* [pending.(0 .. n_pending - 1)]: the lines holding an unfenced
         capture, in flush-issue order, oldest first *)
  mutable n_pending : int;
  mutable invalidate_on_fence : int array;
      (* [invalidate_on_fence.(0 .. n_invalidate - 1)]: lines a clflushopt
         drops from the cache at the next fence, if clean by then *)
  mutable n_invalidate : int;
  mutable pending_nt : (int * bytes) list; (* (addr, data), newest first *)
  mutable hook : (Op.t -> unit) option;
  mutable trace_loads : bool;
  mutable op_count : int; (* instrumentation events emitted so far *)
  mutable poison_rev : (int * int * int) list;
      (* (op_count at poison time, addr, size), newest first: the replay
         side-channel that lets a trace interpreter re-apply allocator
         poison at the right interleaving positions *)
  stats : Stats.t;
}

(* A line-table miss, and the filler of [pending]'s unused slots: never
   written, so a miss reads clean and unpending. A faulted-in line starts
   as a copy. *)
let no_line =
  { line = -1; data = Bytes.empty; dirty = false; pending = false; capture = Bytes.empty;
    invalidate_queued = false }

let make ~eadr ~fp image =
  {
    image;
    eadr;
    fp;
    lines = Lines.create initial_lines;
    pending = [||];
    n_pending = 0;
    invalidate_on_fence = [||];
    n_invalidate = 0;
    pending_nt = [];
    hook = None;
    trace_loads = false;
    op_count = 0;
    poison_rev = [];
    stats = Stats.create ();
  }

(* A 128-bit line hash is two little-endian 64-bit lanes; an image's
   fingerprint is their lane-wise sum over its lines, modulo 2^64. *)
let fp_bytes = 16
let zero_hash = String.make fp_bytes '\000'
let no_fp_line =
  { fl_line = -1; persisted_h = zero_hash; prefix_h = zero_hash; persisted_stale = false;
    queued = false }

(* Hash inputs hold the line index in bytes 0-7 and the line's bytes,
   zero past the end of the pool, in bytes 8-71. *)
let hash_input () = Bytes.make (8 + Addr.line_size) '\000'

let rec zero_from b i = i >= Bytes.length b || (Bytes.get_int64_ne b i = 0L && zero_from b (i + 8))

(* An all-zero line hashes to zero, so a fresh pool's fingerprint is
   zero whatever its size. *)
let line_hash buf = if zero_from buf 8 then zero_hash else Digest.bytes buf

let replace_hash sum ~was ~now =
  if was != now then
    for lane = 0 to (fp_bytes / 8) - 1 do
      let o = lane * 8 in
      Bytes.set_int64_le sum o
        (Int64.add
           (Int64.sub (Bytes.get_int64_le sum o) (String.get_int64_le was o))
           (String.get_int64_le now o))
    done

(* The bytes of [line] inside [img]: the pool's last line may be partial. *)
let avail img line = Int.min Addr.line_size (Image.size img - Addr.line_base line)

(* [line]'s bytes in [img], or in the line-sized [content], as hash input. *)
let image_line img line buf =
  let n = avail img line in
  Bytes.set_int64_le buf 0 (Int64.of_int line);
  Image.blit_from img ~src_addr:(Addr.line_base line) ~dst:buf ~dst_off:8 ~len:n;
  Bytes.fill buf (8 + n) (Addr.line_size - n) '\000'

let content_line img line content buf =
  let n = avail img line in
  Bytes.set_int64_le buf 0 (Int64.of_int line);
  Bytes.blit content 0 buf 8 n;
  Bytes.fill buf (8 + n) (Addr.line_size - n) '\000'

(* [a], whose first [n] slots are in use, with room for one more. *)
let room a n ~fill =
  if n < Array.length a then a
  else begin
    let grown = Array.make (Int.max 8 (2 * n)) fill in
    Array.blit a 0 grown 0 n;
    grown
  end

(* [line]'s bytes may have changed in the persisted image ([persisted])
   or in the program-prefix view: queue it for a rehash, on a device that
   keeps a fingerprint. *)
let touch t line ~persisted =
  match t.fp with
  | None -> ()
  | Some fp ->
      let fl =
        let fl = Lines.find_or fp.hashes line no_fp_line in
        if fl != no_fp_line then fl
        else begin
          let fl = { no_fp_line with fl_line = line } in
          Lines.add fp.hashes line fl;
          fl
        end
      in
      if persisted then fl.persisted_stale <- true;
      if not fl.queued then begin
        fp.queue <- room fp.queue fp.n_queued ~fill:no_fp_line;
        fp.queue.(fp.n_queued) <- fl;
        fp.n_queued <- fp.n_queued + 1;
        fl.queued <- true
      end

let image_fingerprint img =
  let buf = hash_input () and sum = Bytes.of_string zero_hash in
  for line = 0 to (Image.size img - 1) / Addr.line_size do
    image_line img line buf;
    replace_hash sum ~was:zero_hash ~now:(line_hash buf)
  done;
  Bytes.to_string sum

let adopt ?(eadr = false) image = make ~eadr ~fp:None image

(* A fresh pool's fingerprint state: every line zero, nothing queued. *)
let create ?(eadr = false) ?(fingerprint = false) ~size () =
  let fp =
    if not fingerprint then None
    else
      Some
        {
          hashes = Lines.create initial_lines;
          queue = [||];
          n_queued = 0;
          persisted_sum = Bytes.of_string zero_hash;
          prefix_sum = Bytes.of_string zero_hash;
          persisted_buf = hash_input ();
          view_buf = hash_input ();
        }
  in
  make ~eadr ~fp (Image.create ~size)

let of_image ?(eadr = false) img = adopt ~eadr (Image.snapshot img)

let size t = Image.size t.image
let eadr t = t.eadr
let stats t = t.stats
let set_hook t hook = t.hook <- hook
let trace_loads t flag = t.trace_loads <- flag

(* [op_count] advances on every emission point whether or not a hook is
   installed, so poison-log positions line up with the events a collecting
   tracer records for the same execution. The [Op.t] itself is built only
   for a hook, which runs before the instruction takes effect. *)
let emit_store t ~addr ~size ~nt =
  t.op_count <- t.op_count + 1;
  match t.hook with None -> () | Some f -> f (Op.Store { addr; size; nt })

let emit_flush t kind ~line ~vol =
  t.op_count <- t.op_count + 1;
  match t.hook with
  | None -> ()
  | Some f ->
      let dirty = (not vol) && (Lines.find_or t.lines line no_line).dirty in
      f (Op.Flush { kind; line; dirty; volatile = vol })

let emit_fence t kind =
  t.op_count <- t.op_count + 1;
  match t.hook with
  | None -> ()
  | Some f ->
      f
        (Op.Fence
           { kind; pending_flushes = t.n_pending; pending_nt = List.length t.pending_nt })

let check_bounds t addr size =
  if addr < 0 || size <= 0 || addr + size > Image.size t.image then
    raise (Out_of_bounds { addr; size; device_size = Image.size t.image })

(* Fetch the cache-line state for [line], faulting it in from the persistent
   image on first touch. *)
let line_state t line =
  let ls = Lines.find_or t.lines line no_line in
  if ls != no_line then ls
  else begin
    let data = Bytes.make Addr.line_size '\000' in
    let base = Addr.line_base line in
    let avail = Int.min Addr.line_size (Image.size t.image - base) in
    if avail > 0 then Image.blit_from t.image ~src_addr:base ~dst:data ~dst_off:0 ~len:avail;
    let ls = { no_line with line; data } in
    Lines.add t.lines line ls;
    ls
  end

(* In every line walk, [lo, hi) is the part of the access inside the line
   that starts at [base]. *)
let write_cached t ~addr b ~dirty =
  let len = Bytes.length b in
  for line = Addr.line_of addr to Addr.line_of (addr + len - 1) do
    let ls = line_state t line in
    let base = Addr.line_base line in
    let lo = Int.max addr base and hi = Int.min (addr + len) (base + Addr.line_size) in
    Bytes.blit b (lo - addr) ls.data (lo - base) (hi - lo);
    if dirty then ls.dirty <- true;
    touch t line ~persisted:false
  done

(* A word inside one line is written in place; one that straddles two
   lines takes the general path. *)
let write_cached_i64 t ~addr v =
  let off = addr land (Addr.line_size - 1) in
  if off <= Addr.line_size - 8 then begin
    let ls = line_state t (Addr.line_of addr) in
    Bytes.set_int64_le ls.data off v;
    ls.dirty <- true;
    touch t ls.line ~persisted:false
  end
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_cached t ~addr b ~dirty:true
  end

let record_store t ~addr ~size ~nt =
  let st = t.stats in
  if nt then st.nt_stores <- st.nt_stores + 1 else st.stores <- st.stores + 1;
  st.bytes_written <- st.bytes_written + size;
  if addr + size > st.high_water_mark then st.high_water_mark <- addr + size

let store t ~addr b =
  let len = Bytes.length b in
  check_bounds t addr len;
  emit_store t ~addr ~size:len ~nt:false;
  write_cached t ~addr b ~dirty:true;
  record_store t ~addr ~size:len ~nt:false

let store_i64 t ~addr v =
  check_bounds t addr 8;
  emit_store t ~addr ~size:8 ~nt:false;
  write_cached_i64 t ~addr v;
  record_store t ~addr ~size:8 ~nt:false

(* The pending queue keeps [b] itself when the device [owns] it, else a
   copy. *)
let store_nt_bytes t ~addr b ~owns =
  let len = Bytes.length b in
  check_bounds t addr len;
  emit_store t ~addr ~size:len ~nt:true;
  (* NT stores bypass the cache: the program still observes them (we update
     the overlay without dirtying it) and they persist at the next fence. *)
  write_cached t ~addr b ~dirty:false;
  t.pending_nt <- (addr, if owns then b else Bytes.copy b) :: t.pending_nt;
  record_store t ~addr ~size:len ~nt:true

let store_nt t ~addr b = store_nt_bytes t ~addr b ~owns:false

let store_nt_i64 t ~addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  store_nt_bytes t ~addr b ~owns:true

let poison t ~addr ~size =
  check_bounds t addr size;
  (* no event, no stats: this models memory contents that predate the
     program's stores; it lands in the overlay so loads and crash images
     observe it *)
  t.poison_rev <- (t.op_count, addr, size) :: t.poison_rev;
  for line = Addr.line_of addr to Addr.line_of (addr + size - 1) do
    let ls = line_state t line in
    let base = Addr.line_base line in
    let lo = Int.max addr base and hi = Int.min (addr + size) (base + Addr.line_size) in
    Bytes.fill ls.data (lo - base) (hi - lo) '\xdd';
    touch t line ~persisted:false
  done

let poison_log t = List.rev t.poison_rev

(* The program's view of [size] bytes at [addr] into [out] at [off], read
   by [load], [load_into], [peek] and [peek_into]: cached lines over the
   persisted image. A read spanning more lines than are cached (and than
   the table has initial buckets) copies the image range once and
   overlays the cached lines inside it. *)
let read_into t ~addr ~size out ~off =
  let first = Addr.line_of addr and last = Addr.line_of (addr + size - 1) in
  if last - first + 1 > Int.max initial_lines (Lines.length t.lines) then begin
    Image.blit_from t.image ~src_addr:addr ~dst:out ~dst_off:off ~len:size;
    Lines.iter
      (fun line ls ->
        if line >= first && line <= last then begin
          let base = Addr.line_base line in
          let lo = Int.max addr base and hi = Int.min (addr + size) (base + Addr.line_size) in
          Bytes.blit ls.data (lo - base) out (off + lo - addr) (hi - lo)
        end)
      t.lines
  end
  else
    for line = first to last do
      let base = Addr.line_base line in
      let lo = Int.max addr base and hi = Int.min (addr + size) (base + Addr.line_size) in
      let ls = Lines.find_or t.lines line no_line in
      if ls != no_line then Bytes.blit ls.data (lo - base) out (off + lo - addr) (hi - lo)
      else Image.blit_from t.image ~src_addr:lo ~dst:out ~dst_off:(off + lo - addr) ~len:(hi - lo)
    done

let read t ~addr ~size =
  let out = Bytes.create size in
  read_into t ~addr ~size out ~off:0;
  out

let begin_load t ~addr ~size =
  check_bounds t addr size;
  if t.trace_loads then begin
    t.op_count <- t.op_count + 1;
    match t.hook with None -> () | Some f -> f (Op.Load { addr; size })
  end;
  t.stats.loads <- t.stats.loads + 1

let load t ~addr ~size =
  begin_load t ~addr ~size;
  read t ~addr ~size

let load_into t ~addr ~size dst =
  if size > Bytes.length dst then invalid_arg "Pmem.Device.load_into: buffer too small";
  begin_load t ~addr ~size;
  read_into t ~addr ~size dst ~off:0

(* A word inside one line is read in place; one that straddles two lines
   takes the general path. *)
let load_i64 t ~addr =
  begin_load t ~addr ~size:8;
  let off = addr land (Addr.line_size - 1) in
  if off <= Addr.line_size - 8 then begin
    let ls = Lines.find_or t.lines (Addr.line_of addr) no_line in
    if ls != no_line then Bytes.get_int64_le ls.data off else Image.read_i64 t.image ~addr
  end
  else Bytes.get_int64_le (read t ~addr ~size:8) 0

(* Instrumentation-free read of the program's view of memory: no event, no
   counter. This is how the trace recorder snoops store payloads without
   perturbing the trace or the statistics it must later reproduce. *)
let peek t ~addr ~size =
  check_bounds t addr size;
  read t ~addr ~size

let peek_into t ~addr ~size dst ~off =
  if off < 0 || off + size > Bytes.length dst then
    invalid_arg "Pmem.Device.peek_into: buffer too small";
  check_bounds t addr size;
  read_into t ~addr ~size dst ~off

let volatile_addr t addr = addr < 0 || addr >= Image.size t.image

(* Write the 64 bytes [content] of [line] into [img], clipping to the image
   size (the last line of the pool may be partial). *)
let write_line img line content =
  let n = avail img line in
  if n > 0 then Image.blit_to img ~dst_addr:(Addr.line_base line) ~src:content ~src_off:0 ~len:n

(* Non-temporal payloads, newest first, written into [img] oldest first. *)
let rec write_nt img = function
  | [] -> ()
  | (addr, b) :: older ->
      write_nt img older;
      Image.blit_to img ~dst_addr:addr ~src:b ~src_off:0 ~len:(Bytes.length b)

(* The writes that reach the device's own persisted image, and the cache
   evictions: the sites that queue a line for a fingerprint rehash. *)
let persist_line t line content =
  write_line t.image line content;
  touch t line ~persisted:true

let persist_nt t =
  write_nt t.image t.pending_nt;
  if Option.is_some t.fp then
    List.iter
      (fun (addr, b) ->
        for line = Addr.line_of addr to Addr.line_of (addr + Bytes.length b - 1) do
          touch t line ~persisted:true
        done)
      t.pending_nt

let evict t line =
  Lines.remove t.lines line;
  touch t line ~persisted:false

let queue_pending t ls =
  t.pending <- room t.pending t.n_pending ~fill:no_line;
  t.pending.(t.n_pending) <- ls;
  t.n_pending <- t.n_pending + 1;
  ls.pending <- true

let unqueue_pending t ls =
  let rec find i = if t.pending.(i) == ls then i else find (i + 1) in
  let i = find 0 in
  Array.blit t.pending (i + 1) t.pending i (t.n_pending - i - 1);
  t.n_pending <- t.n_pending - 1;
  t.pending.(t.n_pending) <- no_line;
  ls.pending <- false

let queue_invalidate t ls =
  if not ls.invalidate_queued then begin
    t.invalidate_on_fence <- room t.invalidate_on_fence t.n_invalidate ~fill:0;
    t.invalidate_on_fence.(t.n_invalidate) <- ls.line;
    t.n_invalidate <- t.n_invalidate + 1;
    ls.invalidate_queued <- true
  end

let flush_line_vol t kind ~line ~vol =
  emit_flush t kind ~line ~vol;
  let st = t.stats in
  (match kind with
  | Op.Clflush -> st.clflush <- st.clflush + 1
  | Op.Clflushopt -> st.clflushopt <- st.clflushopt + 1
  | Op.Clwb -> st.clwb <- st.clwb + 1);
  (* a volatile address, or a line never cached: nothing unpersisted to
     write back *)
  let ls = if vol then no_line else Lines.find_or t.lines line no_line in
  if ls != no_line then
    match kind with
    | Op.Clflush ->
        (* clflush is strongly ordered: it persists immediately and
           invalidates the line. *)
        persist_line t line ls.data;
        evict t line;
        if ls.pending then unqueue_pending t ls
    | Op.Clflushopt | Op.Clwb ->
        if not ls.pending then queue_pending t ls;
        if Bytes.length ls.capture = 0 then ls.capture <- Bytes.copy ls.data
        else Bytes.blit ls.data 0 ls.capture 0 Addr.line_size;
        ls.dirty <- false;
        if kind = Op.Clflushopt then queue_invalidate t ls

let flush_one t kind ~addr =
  flush_line_vol t kind ~line:(Addr.line_of addr) ~vol:(volatile_addr t addr)

(* Replay entry point: the recorded [Op.Flush] already names the line and
   whether the original address was volatile, so re-applying it must not
   re-derive either from an address (the line base of a volatile address can
   alias a real pool line). *)
let flush_line t ~kind ~line ~volatile = flush_line_vol t kind ~line ~vol:volatile

let clflush t ~addr = flush_one t Op.Clflush ~addr
let clflushopt t ~addr = flush_one t Op.Clflushopt ~addr
let clwb t ~addr = flush_one t Op.Clwb ~addr

(* The lines of [Addr.lines_spanned ~addr ~size], walked in place; a size
   <= 0 still fails its assertion. *)
let flush_range t ~kind ~addr ~size =
  if size <= 0 then ignore (Addr.lines_spanned ~addr ~size);
  for line = addr / Addr.line_size to (addr + size - 1) / Addr.line_size do
    flush_one t kind ~addr:(Addr.line_base line)
  done

let drain t kind =
  emit_fence t kind;
  let st = t.stats in
  (match kind with
  | Op.Sfence -> st.sfence <- st.sfence + 1
  | Op.Mfence -> st.mfence <- st.mfence + 1
  | Op.Rmw -> st.rmw <- st.rmw + 1);
  (* Apply captured flushes oldest-first, then non-temporal stores
     oldest-first: NT data was written after the lines it may overlap were
     last captured only if the NT store came later, and since NT stores
     carry their own payload the final image is order-insensitive here. *)
  for i = 0 to t.n_pending - 1 do
    let ls = t.pending.(i) in
    persist_line t ls.line ls.capture;
    ls.pending <- false;
    t.pending.(i) <- no_line
  done;
  t.n_pending <- 0;
  persist_nt t;
  t.pending_nt <- [];
  for i = 0 to t.n_invalidate - 1 do
    let line = t.invalidate_on_fence.(i) in
    let ls = Lines.find_or t.lines line no_line in
    if ls != no_line then if ls.dirty then ls.invalidate_queued <- false else evict t line
  done;
  t.n_invalidate <- 0

let sfence t = drain t Op.Sfence
let mfence t = drain t Op.Mfence

(* The fence half of a recorded RMW, without the load/store half: replay
   re-applies the store from the recorded event stream and then drains with
   the matching fence kind so statistics and pending-queue behavior agree
   with the original [cas]/[fetch_add]. *)
let rmw_fence t = drain t Op.Rmw

let cas t ~addr ~expected ~desired =
  check_bounds t addr 8;
  let current = load_i64 t ~addr in
  let success = Int64.equal current expected in
  if success then (
    emit_store t ~addr ~size:8 ~nt:false;
    write_cached_i64 t ~addr desired;
    record_store t ~addr ~size:8 ~nt:false);
  drain t Op.Rmw;
  success

let fetch_add t ~addr delta =
  check_bounds t addr 8;
  let current = load_i64 t ~addr in
  emit_store t ~addr ~size:8 ~nt:false;
  write_cached_i64 t ~addr (Int64.add current delta);
  record_store t ~addr ~size:8 ~nt:false;
  drain t Op.Rmw;
  current

let persisted_image t = Image.snapshot t.image
let volatile_view_into t img = Lines.iter (fun line ls -> write_line img line ls.data) t.lines

let volatile_view t =
  let img = Image.snapshot t.image in
  volatile_view_into t img;
  img

(* One crash-image constructor: a copy-on-write view of the persistent
   image plus whatever [policy] adds on top, written into the view's
   private pages so the device is never touched. [crash] snapshots it. *)
let crash_view t ~policy =
  (* Under eADR the persistence domain covers the CPU caches: every store
     that became globally visible survives, whatever the policy asked. *)
  let policy = if t.eadr then Program_prefix else policy in
  let img = Image.cow t.image in
  (match policy with
  | Adr -> ()
  | Adr_with_pending ->
      for i = 0 to t.n_pending - 1 do
        let ls = t.pending.(i) in
        write_line img ls.line ls.capture
      done
  | Program_prefix ->
      (* Graceful crash: everything the program issued persists. The overlay
         holds the newest content of every touched line, and NT stores were
         merged into it, so overlaying the image with the cache suffices. *)
      write_nt img t.pending_nt;
      volatile_view_into t img);
  img

let crash t ~policy = Image.snapshot (crash_view t ~policy)

let persisted_equal t img = Image.equal t.image img

(* The program-prefix view of an uncached [line] is its persisted bytes
   under the pending non-temporal payloads that overlap it, oldest first,
   as [crash_view] writes them. *)
let rec nt_into buf line = function
  | [] -> ()
  | (addr, b) :: older ->
      nt_into buf line older;
      let base = Addr.line_base line and len = Bytes.length b in
      let lo = Int.max addr base and hi = Int.min (addr + len) (base + Addr.line_size) in
      if lo < hi then Bytes.blit b (lo - addr) buf (8 + lo - base) (hi - lo)

let nt_overlaps line pending =
  List.exists
    (fun (addr, b) ->
      Addr.line_of addr <= line && line <= Addr.line_of (addr + Bytes.length b - 1))
    pending

(* Rehash every queued line: its persisted bytes if they were written,
   and its program-prefix view, which shares the persisted hash when the
   bytes are the same. *)
let refresh t fp =
  let pbuf = fp.persisted_buf and vbuf = fp.view_buf in
  for i = 0 to fp.n_queued - 1 do
    let fl = fp.queue.(i) in
    let line = fl.fl_line in
    fp.queue.(i) <- no_fp_line;
    fl.queued <- false;
    image_line t.image line pbuf;
    if fl.persisted_stale then begin
      fl.persisted_stale <- false;
      let h = line_hash pbuf in
      replace_hash fp.persisted_sum ~was:fl.persisted_h ~now:h;
      fl.persisted_h <- h
    end;
    let ls = Lines.find_or t.lines line no_line in
    let view_differs =
      if ls != no_line then begin
        content_line t.image line ls.data vbuf;
        not (Bytes.equal vbuf pbuf)
      end
      else
        nt_overlaps line t.pending_nt
        && begin
             Bytes.blit pbuf 0 vbuf 0 (Bytes.length pbuf);
             nt_into vbuf line t.pending_nt;
             not (Bytes.equal vbuf pbuf)
           end
    in
    let h = if view_differs then line_hash vbuf else fl.persisted_h in
    replace_hash fp.prefix_sum ~was:fl.prefix_h ~now:h;
    fl.prefix_h <- h
  done;
  fp.n_queued <- 0

let kept_fp t =
  match t.fp with
  | Some fp ->
      refresh t fp;
      fp
  | None -> invalid_arg "Pmem.Device: this device keeps no fingerprint"

let persisted_fingerprint t = Bytes.to_string (kept_fp t).persisted_sum

(* [Adr_with_pending] is the persisted image with each pending capture
   written over its line: the persisted sum with those lines' hashes
   swapped, computed on request. *)
let fingerprint t ~policy =
  let fp = kept_fp t in
  match if t.eadr then Program_prefix else policy with
  | Adr -> Bytes.to_string fp.persisted_sum
  | Program_prefix -> Bytes.to_string fp.prefix_sum
  | Adr_with_pending ->
      let sum = Bytes.copy fp.persisted_sum and buf = fp.view_buf in
      for i = 0 to t.n_pending - 1 do
        let ls = t.pending.(i) in
        let was = (Lines.find_or fp.hashes ls.line no_fp_line).persisted_h in
        content_line t.image ls.line ls.capture buf;
        replace_hash sum ~was ~now:(line_hash buf)
      done;
      Bytes.unsafe_to_string sum

let line_versions t =
  Lines.fold
    (fun line ls acc ->
      (* the pending capture, then the current contents if newer *)
      let dirty = if ls.dirty then [ Bytes.copy ls.data ] else [] in
      match if ls.pending then Bytes.copy ls.capture :: dirty else dirty with
      | [] -> acc
      | versions -> (line, versions) :: acc)
    t.lines []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let unpersisted_line_count t = List.length (line_versions t)
