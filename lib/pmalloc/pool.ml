(** A persistent object pool: the libpmemobj analogue.

    A pool owns a whole {!Pmem.Device}; all offsets are device addresses.
    The pool exposes raw typed accessors plus the persist primitives
    applications use. Crash consistency of pool metadata is delegated to
    {!Redo} (allocator) and {!Tx} (user transactions); {!Recovery} composes
    their recovery steps at open time. *)

type t = {
  dev : Pmem.Device.t;
  layout : Layout.t;
  version : Version.t;
}

exception Corrupted of string

let device t = t.dev
let layout t = t.layout
let version t = t.version
let size t = t.layout.Layout.pool_size

(** {1 Raw access} *)

let read_i64 t ~off = Pmem.Device.load_i64 t.dev ~addr:off
let write_i64 t ~off v = Pmem.Device.store_i64 t.dev ~addr:off v
let read_bytes t ~off ~len = Pmem.Device.load t.dev ~addr:off ~size:len
let read_into t ~off ~len dst = Pmem.Device.load_into t.dev ~addr:off ~size:len dst
let write_bytes t ~off b = Pmem.Device.store t.dev ~addr:off b
let read_u8 t ~off = Char.code (Bytes.get (read_bytes t ~off ~len:1) 0)
let write_u8 t ~off v = write_bytes t ~off (Bytes.make 1 (Char.chr (v land 0xff)))

(** {1 Persistency primitives} *)

let flush t ~off ~size = Pmem.Device.flush_range t.dev ~kind:Pmem.Op.Clwb ~addr:off ~size
let drain t = Pmem.Device.sfence t.dev

(** [persist t ~off ~size] = flush + drain: the everyday "make this range
    durable" helper, like libpmemobj's [pmemobj_persist]. *)
let persist t ~off ~size =
  flush t ~off ~size;
  (* Seeded performance bug: flush the same lines a second time. *)
  if Bugs.persist_double_flush_enabled () then flush t ~off ~size;
  drain t

let persist_i64 t ~off v =
  write_i64 t ~off v;
  persist t ~off ~size:8

(** An address guaranteed to lie outside the pool: flushing it reproduces the
    "flush acts on a volatile address" performance bug. *)
let volatile_scratch_addr t = size t + 4096

(** {1 Header} *)

exception Not_initialised
(** The device holds no committed pool: either it is blank or a crash hit
    pool creation before the commit marker (the header checksum) was
    written. The caller re-creates the pool. *)

let header_checksum t =
  Checksum.of_i64s
    [
      read_i64 t ~off:Layout.magic_off;
      read_i64 t ~off:Layout.version_off;
      read_i64 t ~off:Layout.size_off;
      read_i64 t ~off:Layout.root_off_off;
      read_i64 t ~off:Layout.root_size_off;
      read_i64 t ~off:Layout.generation_off;
    ]

(* Pool creation writes everything first and commits with a single atomic
   store of the header checksum: a crash anywhere before that store leaves
   checksum = 0 and the pool reads as never created. *)
let create ?(version = Version.V1_12) dev =
  let layout = Layout.compute ~pool_size:(Pmem.Device.size dev) in
  let t = { dev; layout; version } in
  write_i64 t ~off:Layout.magic_off Layout.magic;
  write_i64 t ~off:Layout.version_off (Version.to_int64 version);
  write_i64 t ~off:Layout.size_off (Int64.of_int layout.Layout.pool_size);
  write_i64 t ~off:Layout.root_off_off 0L;
  write_i64 t ~off:Layout.root_size_off 0L;
  write_i64 t ~off:Layout.generation_off 1L;
  persist t ~off:0 ~size:Layout.header_size;
  (* Logs start empty. *)
  write_i64 t ~off:(layout.Layout.redo_off + Layout.redo_count_off) 0L;
  write_i64 t ~off:(layout.Layout.redo_off + Layout.redo_committed_off) 0L;
  persist t ~off:layout.Layout.redo_off ~size:Layout.redo_header_size;
  write_i64 t ~off:(layout.Layout.ulog_off + Layout.ulog_state_off) 0L;
  write_i64 t ~off:(layout.Layout.ulog_off + Layout.ulog_count_off) 0L;
  write_i64 t ~off:(layout.Layout.ulog_off + Layout.ulog_overflow_off) 0L;
  persist t ~off:layout.Layout.ulog_off ~size:Layout.ulog_header_size;
  (* Bitmap: all chunks free. *)
  write_bytes t ~off:layout.Layout.bitmap_off (Bytes.make layout.Layout.chunk_count '\000');
  persist t ~off:layout.Layout.bitmap_off ~size:layout.Layout.chunk_count;
  (* commit point *)
  persist_i64 t ~off:Layout.header_checksum_off (header_checksum t);
  t

(** Validate the header. Raises {!Not_initialised} when the pool was never
    committed and {!Corrupted} when the header fails its checksum. Called
    by recovery {e after} redo-log repair, since an interrupted header
    update is completed by the redo log. *)
let validate_header t =
  let stored = read_i64 t ~off:Layout.header_checksum_off in
  if Int64.equal stored 0L then raise Not_initialised;
  if not (Int64.equal stored (header_checksum t)) then
    raise (Corrupted "header checksum mismatch");
  if not (Int64.equal (read_i64 t ~off:Layout.magic_off) Layout.magic) then
    raise (Corrupted "bad magic: not a pool or header lost")

(** Attach without validation (recovery repairs first, then validates). *)
let attach_unchecked dev =
  let layout = Layout.compute ~pool_size:(Pmem.Device.size dev) in
  let probe = { dev; layout; version = Version.V1_12 } in
  let version =
    match Version.of_int64 (read_i64 probe ~off:Layout.version_off) with
    | Some v -> v
    | None -> Version.V1_12
  in
  { probe with version }

(** Attach to an existing pool without running recovery (recovery is
    {!Recovery.open_pool}'s job). Validates the header. *)
let attach dev =
  let t = attach_unchecked dev in
  validate_header t;
  if Version.of_int64 (read_i64 t ~off:Layout.version_off) = None then
    raise (Corrupted "unknown pool version");
  t

(** {1 Root object} *)

(* Header updates after creation go through the redo log so they are
   failure-atomic together with their checksum refresh. *)
let set_root t ~off ~size:root_size =
  let b = Lowlog.builder () in
  Lowlog.stage b ~addr:Layout.root_off_off ~value:(Int64.of_int off);
  Lowlog.stage b ~addr:Layout.root_size_off ~value:(Int64.of_int root_size);
  let checksum =
    Checksum.of_i64s
      [
        read_i64 t ~off:Layout.magic_off;
        read_i64 t ~off:Layout.version_off;
        read_i64 t ~off:Layout.size_off;
        Int64.of_int off;
        Int64.of_int root_size;
        read_i64 t ~off:Layout.generation_off;
      ]
  in
  Lowlog.stage b ~addr:Layout.header_checksum_off ~value:checksum;
  Lowlog.commit t.dev t.layout b

let root t =
  let off = Int64.to_int (read_i64 t ~off:Layout.root_off_off) in
  let root_size = Int64.to_int (read_i64 t ~off:Layout.root_size_off) in
  if off = 0 then None else Some (off, root_size)
