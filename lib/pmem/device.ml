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

(* The cached lines by index. A lookup is [find] with [Not_found] for a
   miss, so a hit boxes no option. *)
module Lines = Hashtbl.Make (Int)

(* The line table's initial bucket count: an adopted crash view starts
   small, and walking the table costs at least this many buckets. *)
let initial_lines = 16

type t = {
  image : Image.t;
  eadr : bool;
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

(* Fills the unused slots of [pending]; a faulted-in line starts as a copy. *)
let no_line =
  { line = -1; data = Bytes.empty; dirty = false; pending = false; capture = Bytes.empty;
    invalidate_queued = false }

let adopt ?(eadr = false) image =
  {
    image;
    eadr;
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

let create ?(eadr = false) ~size () = adopt ~eadr (Image.create ~size)
let of_image ?(eadr = false) img = adopt ~eadr (Image.snapshot img)

let size t = Image.size t.image
let eadr t = t.eadr
let stats t = t.stats
let set_hook t hook = t.hook <- hook
let hook_installed t = t.hook <> None
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
      let dirty =
        (not vol)
        && match Lines.find t.lines line with ls -> ls.dirty | exception Not_found -> false
      in
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
  match Lines.find t.lines line with
  | ls -> ls
  | exception Not_found ->
      let data = Bytes.make Addr.line_size '\000' in
      let base = Addr.line_base line in
      let avail = Int.min Addr.line_size (Image.size t.image - base) in
      if avail > 0 then Image.blit_from t.image ~src_addr:base ~dst:data ~dst_off:0 ~len:avail;
      let ls = { no_line with line; data } in
      Lines.add t.lines line ls;
      ls

(* In every line walk, [lo, hi) is the part of the access inside the line
   that starts at [base]. *)
let write_cached t ~addr b ~dirty =
  let len = Bytes.length b in
  for line = Addr.line_of addr to Addr.line_of (addr + len - 1) do
    let ls = line_state t line in
    let base = Addr.line_base line in
    let lo = Int.max addr base and hi = Int.min (addr + len) (base + Addr.line_size) in
    Bytes.blit b (lo - addr) ls.data (lo - base) (hi - lo);
    if dirty then ls.dirty <- true
  done

(* A word inside one line is written in place; one that straddles two
   lines takes the general path. *)
let write_cached_i64 t ~addr v =
  let off = addr land (Addr.line_size - 1) in
  if off <= Addr.line_size - 8 then begin
    let ls = line_state t (Addr.line_of addr) in
    Bytes.set_int64_le ls.data off v;
    ls.dirty <- true
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
    Bytes.fill ls.data (lo - base) (hi - lo) '\xdd'
  done

let poison_log t = List.rev t.poison_rev

(* The program's view of [size] bytes at [addr], read by [load] and [peek]:
   cached lines over the persisted image. A read spanning more lines than
   are cached (and than the table has initial buckets) copies the image
   range once and overlays the cached lines inside it. *)
let read t ~addr ~size =
  let out = Bytes.create size in
  let first = Addr.line_of addr and last = Addr.line_of (addr + size - 1) in
  if last - first + 1 > Int.max initial_lines (Lines.length t.lines) then begin
    Image.blit_from t.image ~src_addr:addr ~dst:out ~dst_off:0 ~len:size;
    Lines.iter
      (fun line ls ->
        if line >= first && line <= last then begin
          let base = Addr.line_base line in
          let lo = Int.max addr base and hi = Int.min (addr + size) (base + Addr.line_size) in
          Bytes.blit ls.data (lo - base) out (lo - addr) (hi - lo)
        end)
      t.lines
  end
  else
    for line = first to last do
      let base = Addr.line_base line in
      let lo = Int.max addr base and hi = Int.min (addr + size) (base + Addr.line_size) in
      match Lines.find t.lines line with
      | ls -> Bytes.blit ls.data (lo - base) out (lo - addr) (hi - lo)
      | exception Not_found ->
          Image.blit_from t.image ~src_addr:lo ~dst:out ~dst_off:(lo - addr) ~len:(hi - lo)
    done;
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

(* A word inside one line is read in place; one that straddles two lines
   takes the general path. *)
let load_i64 t ~addr =
  begin_load t ~addr ~size:8;
  let off = addr land (Addr.line_size - 1) in
  if off <= Addr.line_size - 8 then
    match Lines.find t.lines (Addr.line_of addr) with
    | ls -> Bytes.get_int64_le ls.data off
    | exception Not_found -> Image.read_i64 t.image ~addr
  else Bytes.get_int64_le (read t ~addr ~size:8) 0

(* Instrumentation-free read of the program's view of memory: no event, no
   counter. This is how the trace recorder snoops store payloads without
   perturbing the trace or the statistics it must later reproduce. *)
let peek t ~addr ~size =
  check_bounds t addr size;
  read t ~addr ~size

let volatile_addr t addr = addr < 0 || addr >= Image.size t.image

(* Write the 64 bytes [content] of [line] into [img], clipping to the image
   size (the last line of the pool may be partial). *)
let write_line img line content =
  let base = Addr.line_base line in
  let avail = Int.min Addr.line_size (Image.size img - base) in
  if avail > 0 then Image.blit_to img ~dst_addr:base ~src:content ~src_off:0 ~len:avail

(* Non-temporal payloads, newest first, written into [img] oldest first. *)
let rec write_nt img = function
  | [] -> ()
  | (addr, b) :: older ->
      write_nt img older;
      Image.blit_to img ~dst_addr:addr ~src:b ~src_off:0 ~len:(Bytes.length b)

(* [a], whose first [n] slots are in use, with room for one more. *)
let room a n ~fill =
  if n < Array.length a then a
  else begin
    let grown = Array.make (Int.max 8 (2 * n)) fill in
    Array.blit a 0 grown 0 n;
    grown
  end

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
  if not vol then
    match Lines.find t.lines line with
    | exception Not_found -> () (* line never cached: nothing unpersisted to write back *)
    | ls -> (
        match kind with
        | Op.Clflush ->
            (* clflush is strongly ordered: it persists immediately and
               invalidates the line. *)
            write_line t.image line ls.data;
            Lines.remove t.lines line;
            if ls.pending then unqueue_pending t ls
        | Op.Clflushopt | Op.Clwb ->
            if not ls.pending then queue_pending t ls;
            if Bytes.length ls.capture = 0 then ls.capture <- Bytes.copy ls.data
            else Bytes.blit ls.data 0 ls.capture 0 Addr.line_size;
            ls.dirty <- false;
            if kind = Op.Clflushopt then queue_invalidate t ls)

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
    write_line t.image ls.line ls.capture;
    ls.pending <- false;
    t.pending.(i) <- no_line
  done;
  t.n_pending <- 0;
  write_nt t.image t.pending_nt;
  t.pending_nt <- [];
  for i = 0 to t.n_invalidate - 1 do
    let line = t.invalidate_on_fence.(i) in
    match Lines.find t.lines line with
    | ls -> if ls.dirty then ls.invalidate_queued <- false else Lines.remove t.lines line
    | exception Not_found -> ()
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
let pending_flush_count t = t.n_pending
let pending_nt_count t = List.length t.pending_nt
