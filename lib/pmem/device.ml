type crash_policy = Program_prefix | Adr | Adr_with_pending

exception Out_of_bounds of { addr : int; size : int; device_size : int }

(* Per-line volatile cache state. [data] is the full 64-byte line as the
   program sees it. [dirty] is true when the line holds stores that have not
   been captured by any flush yet. *)
type line_state = { data : bytes; mutable dirty : bool }

type t = {
  image : Image.t;
  eadr : bool;
  lines : (int, line_state) Hashtbl.t;
  pending : (int, bytes) Hashtbl.t;
      (* line -> content captured by an unfenced clflushopt/clwb *)
  mutable pending_order : int list; (* lines in flush-issue order, newest first *)
  invalidate_on_fence : (int, unit) Hashtbl.t;
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

let adopt ?(eadr = false) image =
  {
    image;
    eadr;
    lines = Hashtbl.create 1024;
    pending = Hashtbl.create 64;
    pending_order = [];
    invalidate_on_fence = Hashtbl.create 64;
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
   tracer records for the same execution. *)
let emit t op =
  t.op_count <- t.op_count + 1;
  match t.hook with None -> () | Some f -> f op

let check_bounds t addr size =
  if addr < 0 || size <= 0 || addr + size > Image.size t.image then
    raise (Out_of_bounds { addr; size; device_size = Image.size t.image })

(* Fetch the cache-line state for [line], faulting it in from the persistent
   image on first touch. *)
let line_state t line =
  match Hashtbl.find_opt t.lines line with
  | Some ls -> ls
  | None ->
      let data = Bytes.make Addr.line_size '\000' in
      let base = Addr.line_base line in
      let avail = min Addr.line_size (Image.size t.image - base) in
      if avail > 0 then Image.blit_from t.image ~src_addr:base ~dst:data ~dst_off:0 ~len:avail;
      let ls = { data; dirty = false } in
      Hashtbl.replace t.lines line ls;
      ls

let write_cached t ~addr b =
  let len = Bytes.length b in
  List.iter
    (fun line ->
      let ls = line_state t line in
      let base = Addr.line_base line in
      let lo = max addr base and hi = min (addr + len) (base + Addr.line_size) in
      Bytes.blit b (lo - addr) ls.data (lo - base) (hi - lo))
    (Addr.lines_spanned ~addr ~size:len)

let mark_dirty t ~addr ~size =
  List.iter
    (fun line -> (line_state t line).dirty <- true)
    (Addr.lines_spanned ~addr ~size)

let record_store t ~addr ~size ~nt =
  let st = t.stats in
  if nt then st.nt_stores <- st.nt_stores + 1 else st.stores <- st.stores + 1;
  st.bytes_written <- st.bytes_written + size;
  if addr + size > st.high_water_mark then st.high_water_mark <- addr + size

let store t ~addr b =
  let len = Bytes.length b in
  check_bounds t addr len;
  emit t (Op.Store { addr; size = len; nt = false });
  write_cached t ~addr b;
  mark_dirty t ~addr ~size:len;
  record_store t ~addr ~size:len ~nt:false

let store_i64 t ~addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  store t ~addr b

let store_nt t ~addr b =
  let len = Bytes.length b in
  check_bounds t addr len;
  emit t (Op.Store { addr; size = len; nt = true });
  (* NT stores bypass the cache: the program still observes them (we update
     the overlay without dirtying it) and they persist at the next fence. *)
  write_cached t ~addr b;
  t.pending_nt <- (addr, Bytes.copy b) :: t.pending_nt;
  record_store t ~addr ~size:len ~nt:true

let store_nt_i64 t ~addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  store_nt t ~addr b

let poison t ~addr ~size =
  check_bounds t addr size;
  (* no event, no stats: this models memory contents that predate the
     program's stores; it lands in the overlay so loads and crash images
     observe it *)
  t.poison_rev <- (t.op_count, addr, size) :: t.poison_rev;
  write_cached t ~addr (Bytes.make size '\xdd')

let poison_log t = List.rev t.poison_rev

let load t ~addr ~size =
  check_bounds t addr size;
  if t.trace_loads then emit t (Op.Load { addr; size });
  t.stats.loads <- t.stats.loads + 1;
  let out = Bytes.create size in
  List.iter
    (fun line ->
      let base = Addr.line_base line in
      let lo = max addr base and hi = min (addr + size) (base + Addr.line_size) in
      match Hashtbl.find_opt t.lines line with
      | Some ls -> Bytes.blit ls.data (lo - base) out (lo - addr) (hi - lo)
      | None -> Image.blit_from t.image ~src_addr:lo ~dst:out ~dst_off:(lo - addr) ~len:(hi - lo))
    (Addr.lines_spanned ~addr ~size);
  out

let load_i64 t ~addr = Bytes.get_int64_le (load t ~addr ~size:8) 0

(* Instrumentation-free read of the program's view of memory: no event, no
   counter. This is how the trace recorder snoops store payloads without
   perturbing the trace or the statistics it must later reproduce. *)
let peek t ~addr ~size =
  check_bounds t addr size;
  let out = Bytes.create size in
  List.iter
    (fun line ->
      let base = Addr.line_base line in
      let lo = max addr base and hi = min (addr + size) (base + Addr.line_size) in
      match Hashtbl.find_opt t.lines line with
      | Some ls -> Bytes.blit ls.data (lo - base) out (lo - addr) (hi - lo)
      | None -> Image.blit_from t.image ~src_addr:lo ~dst:out ~dst_off:(lo - addr) ~len:(hi - lo))
    (Addr.lines_spanned ~addr ~size);
  out

let volatile_addr t addr = addr < 0 || addr >= Image.size t.image

(* Persist the captured [content] of [line] into the image, clipping to the
   image size (the last line of the pool may be partial). *)
let persist_line_content t line content =
  let base = Addr.line_base line in
  let avail = min Addr.line_size (Image.size t.image - base) in
  if avail > 0 then Image.blit_to t.image ~dst_addr:base ~src:content ~src_off:0 ~len:avail

let flush_line_vol t kind ~line ~vol =
  let dirty =
    (not vol)
    && match Hashtbl.find_opt t.lines line with Some ls -> ls.dirty | None -> false
  in
  emit t (Op.Flush { kind; line; dirty; volatile = vol });
  let st = t.stats in
  (match kind with
  | Op.Clflush -> st.clflush <- st.clflush + 1
  | Op.Clflushopt -> st.clflushopt <- st.clflushopt + 1
  | Op.Clwb -> st.clwb <- st.clwb + 1);
  if not vol then
    match Hashtbl.find_opt t.lines line with
    | None -> () (* line never cached: nothing unpersisted to write back *)
    | Some ls -> (
        match kind with
        | Op.Clflush ->
            (* clflush is strongly ordered: it persists immediately and
               invalidates the line. *)
            persist_line_content t line ls.data;
            Hashtbl.remove t.lines line;
            Hashtbl.remove t.pending line;
            t.pending_order <- List.filter (fun l -> l <> line) t.pending_order
        | Op.Clflushopt | Op.Clwb ->
            if not (Hashtbl.mem t.pending line) then
              t.pending_order <- line :: t.pending_order;
            Hashtbl.replace t.pending line (Bytes.copy ls.data);
            ls.dirty <- false;
            if kind = Op.Clflushopt then Hashtbl.replace t.invalidate_on_fence line ())

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

let flush_range t ~kind ~addr ~size =
  List.iter
    (fun line -> flush_one t kind ~addr:(Addr.line_base line))
    (Addr.lines_spanned ~addr ~size)

let drain t kind =
  emit t
    (Op.Fence
       {
         kind;
         pending_flushes = Hashtbl.length t.pending;
         pending_nt = List.length t.pending_nt;
       });
  let st = t.stats in
  (match kind with
  | Op.Sfence -> st.sfence <- st.sfence + 1
  | Op.Mfence -> st.mfence <- st.mfence + 1
  | Op.Rmw -> st.rmw <- st.rmw + 1);
  (* Apply captured flushes oldest-first, then non-temporal stores
     oldest-first: NT data was written after the lines it may overlap were
     last captured only if the NT store came later, and since NT stores
     carry their own payload the final image is order-insensitive here. *)
  List.iter
    (fun line ->
      match Hashtbl.find_opt t.pending line with
      | Some content -> persist_line_content t line content
      | None -> ())
    (List.rev t.pending_order);
  Hashtbl.reset t.pending;
  t.pending_order <- [];
  List.iter (fun (addr, b) -> Image.blit_to t.image ~dst_addr:addr ~src:b ~src_off:0 ~len:(Bytes.length b))
    (List.rev t.pending_nt);
  t.pending_nt <- [];
  Hashtbl.iter
    (fun line () ->
      match Hashtbl.find_opt t.lines line with
      | Some ls when not ls.dirty -> Hashtbl.remove t.lines line
      | Some _ | None -> ())
    t.invalidate_on_fence;
  Hashtbl.reset t.invalidate_on_fence

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
    emit t (Op.Store { addr; size = 8; nt = false });
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 desired;
    write_cached t ~addr b;
    mark_dirty t ~addr ~size:8;
    record_store t ~addr ~size:8 ~nt:false);
  drain t Op.Rmw;
  success

let fetch_add t ~addr delta =
  check_bounds t addr 8;
  let current = load_i64 t ~addr in
  emit t (Op.Store { addr; size = 8; nt = false });
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.add current delta);
  write_cached t ~addr b;
  mark_dirty t ~addr ~size:8;
  record_store t ~addr ~size:8 ~nt:false;
  drain t Op.Rmw;
  current

let persisted_image t = Image.snapshot t.image
let volatile_view_into t img =
  Hashtbl.iter
    (fun line ls ->
      let base = Addr.line_base line in
      let avail = min Addr.line_size (Image.size img - base) in
      if avail > 0 then Image.blit_to img ~dst_addr:base ~src:ls.data ~src_off:0 ~len:avail)
    t.lines

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
      List.iter
        (fun line ->
          match Hashtbl.find_opt t.pending line with
          | Some content ->
              let base = Addr.line_base line in
              let avail = min Addr.line_size (Image.size img - base) in
              if avail > 0 then
                Image.blit_to img ~dst_addr:base ~src:content ~src_off:0 ~len:avail
          | None -> ())
        (List.rev t.pending_order)
  | Program_prefix ->
      (* Graceful crash: everything the program issued persists. The overlay
         holds the newest content of every touched line, and NT stores were
         merged into it, so overlaying the image with the cache suffices. *)
      List.iter
        (fun (addr, b) ->
          Image.blit_to img ~dst_addr:addr ~src:b ~src_off:0 ~len:(Bytes.length b))
        (List.rev t.pending_nt);
      volatile_view_into t img);
  img

let crash t ~policy = Image.snapshot (crash_view t ~policy)

let persisted_equal t img = Image.equal t.image img

let line_versions t =
  let tbl = Hashtbl.create 32 in
  Hashtbl.iter
    (fun line content -> Hashtbl.replace tbl line [ Bytes.copy content ])
    t.pending;
  Hashtbl.iter
    (fun line ls ->
      if ls.dirty then
        let prior = Option.value ~default:[] (Hashtbl.find_opt tbl line) in
        Hashtbl.replace tbl line (prior @ [ Bytes.copy ls.data ]))
    t.lines;
  Hashtbl.fold (fun line versions acc -> (line, versions) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let unpersisted_line_count t = List.length (line_versions t)
let pending_flush_count t = Hashtbl.length t.pending
let pending_nt_count t = List.length t.pending_nt
