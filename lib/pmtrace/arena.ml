(** Compact trace storage: packed event records in a flat [Bigarray] plus
    int-indexed call-path interning and a payload slab. See the interface
    for the layout rationale. *)

(* One event = [slots] consecutive integers:
   [seq; op tag; a; b; c; stack (0 = none, else path id + 1); op_index]
   with the op fields packed as
     Store  {addr; size; nt}                    -> tag 0, a=addr, b=size, c=nt
     Flush  {kind; line; dirty; volatile}       -> tag 1, a=kind, b=line,
                                                   c = dirty lor (volatile lsl 1)
     Fence  {kind; pending_flushes; pending_nt} -> tag 2, a=kind, b=pf, c=pnt
     Load   {addr; size}                        -> tag 3, a=addr, b=size *)
let slots = 7

type packed = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable data : packed;
  mutable len : int; (* events stored *)
  ids : (string list, int) Hashtbl.t; (* call path -> interning index *)
  mutable paths : string list array; (* interning index -> call path *)
  mutable npaths : int;
  mutable last_path : string list; (* the path interned last ... *)
  mutable last_id : int; (* ... and its id, -1 before the first *)
}

let alloc cap = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (cap * slots)

let create ?(capacity = 256) () =
  {
    data = alloc (max 16 capacity);
    len = 0;
    ids = Hashtbl.create 64;
    paths = Array.make 16 [];
    npaths = 0;
    last_path = [];
    last_id = -1;
  }

let length t = t.len

let flush_kind_code = function
  | Pmem.Op.Clflush -> 0
  | Pmem.Op.Clflushopt -> 1
  | Pmem.Op.Clwb -> 2

let flush_kind_of_code = function
  | 0 -> Pmem.Op.Clflush
  | 1 -> Pmem.Op.Clflushopt
  | _ -> Pmem.Op.Clwb

let fence_kind_code = function Pmem.Op.Sfence -> 0 | Pmem.Op.Mfence -> 1 | Pmem.Op.Rmw -> 2
let fence_kind_of_code = function 0 -> Pmem.Op.Sfence | 1 -> Pmem.Op.Mfence | _ -> Pmem.Op.Rmw

let lookup t path =
  match Hashtbl.find_opt t.ids path with
  | Some id -> id
  | None ->
      let id = t.npaths in
      if id = Array.length t.paths then begin
        let bigger = Array.make (2 * id) [] in
        Array.blit t.paths 0 bigger 0 id;
        t.paths <- bigger
      end;
      t.paths.(id) <- path;
      t.npaths <- id + 1;
      Hashtbl.replace t.ids path id;
      id

(* Consecutive events of one frame activation carry the same physical path
   ({!Callstack.capture}), so they skip the hash of the whole list. *)
let intern t path =
  if t.last_id >= 0 && path == t.last_path then t.last_id
  else begin
    let id = lookup t path in
    t.last_path <- path;
    t.last_id <- id;
    id
  end

let ensure_capacity t =
  let cap = Bigarray.Array1.dim t.data / slots in
  if t.len = cap then begin
    let bigger = alloc (2 * cap) in
    Bigarray.Array1.blit t.data (Bigarray.Array1.sub bigger 0 (cap * slots));
    t.data <- bigger
  end

(* Append one event from its op and interned stack (0 = none, else path
   id + 1), field by field. *)
let put t ~seq op ~stack ~op_index =
  ensure_capacity t;
  let base = t.len * slots in
  let d = t.data in
  d.{base} <- seq;
  (match op with
  | Pmem.Op.Store { addr; size; nt } ->
      d.{base + 1} <- 0;
      d.{base + 2} <- addr;
      d.{base + 3} <- size;
      d.{base + 4} <- (if nt then 1 else 0)
  | Pmem.Op.Flush { kind; line; dirty; volatile } ->
      d.{base + 1} <- 1;
      d.{base + 2} <- flush_kind_code kind;
      d.{base + 3} <- line;
      d.{base + 4} <- (if dirty then 1 else 0) lor if volatile then 2 else 0
  | Pmem.Op.Fence { kind; pending_flushes; pending_nt } ->
      d.{base + 1} <- 2;
      d.{base + 2} <- fence_kind_code kind;
      d.{base + 3} <- pending_flushes;
      d.{base + 4} <- pending_nt
  | Pmem.Op.Load { addr; size } ->
      d.{base + 1} <- 3;
      d.{base + 2} <- addr;
      d.{base + 3} <- size;
      d.{base + 4} <- 0);
  d.{base + 5} <- stack;
  d.{base + 6} <- op_index;
  t.len <- t.len + 1

let add t (e : Event.t) =
  match e.Event.stack with
  | None -> put t ~seq:e.Event.seq e.Event.op ~stack:0 ~op_index:0
  | Some cap ->
      put t ~seq:e.Event.seq e.Event.op
        ~stack:(intern t cap.Callstack.path + 1)
        ~op_index:cap.Callstack.op_index

let add_op t ~seq op ~path ~op_index = put t ~seq op ~stack:(intern t path + 1) ~op_index

(* The stack of the event at [base], from its stack and op_index slots. *)
let stack_at t base =
  match t.data.{base + 5} with
  | 0 -> None
  | id -> Some { Callstack.path = t.paths.(id - 1); op_index = t.data.{base + 6} }

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Arena.get";
  let d = t.data in
  let base = i * slots in
  let op =
    match d.{base + 1} with
    | 0 -> Pmem.Op.Store { addr = d.{base + 2}; size = d.{base + 3}; nt = d.{base + 4} = 1 }
    | 1 ->
        Pmem.Op.Flush
          {
            kind = flush_kind_of_code d.{base + 2};
            line = d.{base + 3};
            dirty = d.{base + 4} land 1 = 1;
            volatile = d.{base + 4} land 2 = 2;
          }
    | 2 ->
        Pmem.Op.Fence
          {
            kind = fence_kind_of_code d.{base + 2};
            pending_flushes = d.{base + 3};
            pending_nt = d.{base + 4};
          }
    | _ -> Pmem.Op.Load { addr = d.{base + 2}; size = d.{base + 3} }
  in
  { Event.seq = d.{base}; op; stack = stack_at t base }

let iter t f =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let fold t init f =
  let acc = ref init in
  iter t (fun e -> acc := f !acc e);
  !acc

let to_list t = List.rev (fold t [] (fun acc e -> e :: acc))

(* One event's line of the digest text, from its packed fields, written
   into [text] at [pos]; returns the position past its ['\n']. *)
let write_line text pos tag a b c =
  let pos =
    match tag with
    | 0 -> Pmem.Op.write_store text pos ~addr:a ~size:b ~nt:(c = 1)
    | 1 ->
        Pmem.Op.write_flush text pos (flush_kind_of_code a) ~line:b ~dirty:(c land 1 = 1)
          ~volatile:(c land 2 = 2)
    | 2 -> Pmem.Op.write_fence text pos (fence_kind_of_code a) ~pending_flushes:b ~pending_nt:c
    | _ -> Pmem.Op.write_load text pos ~addr:a ~size:b
  in
  Bytes.set text pos '\n';
  pos + 1

(* A line's length without rendering it: the line of its shape (tag,
   kind and flags) with every integer field 0, rendered once here, plus
   each integer field's digits past the first. Shapes are numbered store
   by [nt] (0-1), flush by kind and flags (2-13), fence by kind (14-16),
   load (17). *)
let shape_lengths =
  let scratch = Bytes.create (Pmem.Op.max_length + 1) in
  let len tag a c = write_line scratch 0 tag a 0 c in
  Array.init 18 (fun k ->
      if k < 2 then len 0 0 k
      else if k < 14 then len 1 ((k - 2) / 4) ((k - 2) mod 4)
      else if k < 17 then len 2 (k - 14) 0
      else len 3 0 0)

let line_length tag a b c =
  let more n = Pmem.Op.int_length n - 1 in
  match tag with
  | 0 -> shape_lengths.(c) + more a + more b
  | 1 -> shape_lengths.(2 + (4 * a) + c) + more b
  | 2 -> shape_lengths.(14 + a) + more b + more c
  | _ -> shape_lengths.(17) + more a + more b

(* The text is sized first, then each line is written straight into the
   one [bytes] that is hashed. *)
let digest t =
  let d = t.data in
  let size = ref 0 in
  for i = 0 to t.len - 1 do
    let base = i * slots in
    size := !size + line_length d.{base + 1} d.{base + 2} d.{base + 3} d.{base + 4}
  done;
  let text = Bytes.create !size in
  let pos = ref 0 in
  for i = 0 to t.len - 1 do
    let base = i * slots in
    pos := write_line text !pos d.{base + 1} d.{base + 2} d.{base + 3} d.{base + 4}
  done;
  assert (!pos = !size);
  Digest.to_hex (Digest.bytes text)

(* Single fields of the [i]-th packed slot, read without decoding the
   event. *)
type kind = Store | Flush | Fence | Load

let slot t i =
  if i < 0 || i >= t.len then invalid_arg "Arena: event index out of bounds";
  i * slots

let seq t i = t.data.{slot t i}

let kind_of_op = function
  | Pmem.Op.Store _ -> Store
  | Pmem.Op.Flush _ -> Flush
  | Pmem.Op.Fence _ -> Fence
  | Pmem.Op.Load _ -> Load

let kind t i =
  match t.data.{slot t i + 1} with 0 -> Store | 1 -> Flush | 2 -> Fence | _ -> Load

let addr t i = t.data.{slot t i + 2}
let size t i = t.data.{slot t i + 3}
let nt t i = t.data.{slot t i + 4} = 1
let flush_kind t i = flush_kind_of_code t.data.{slot t i + 2}
let line t i = t.data.{slot t i + 3}
let dirty t i = t.data.{slot t i + 4} land 1 = 1
let volatile t i = t.data.{slot t i + 4} land 2 = 2
let pending_flushes t i = t.data.{slot t i + 3}
let pending_nt t i = t.data.{slot t i + 4}

(* The stack slot (0, or path id + 1) above bit 32 and the op_index below:
   an activation would need 2^32 instructions to carry into the path id. *)
let code t i =
  let base = slot t i in
  (t.data.{base + 5} lsl 32) lor t.data.{base + 6}

let capture t i = stack_at t (slot t i)

let clear t = t.len <- 0
let path_count t = t.npaths
let path_id t path = Hashtbl.find_opt t.ids path

module Slab = struct
  type slab = {
    mutable buf : Bytes.t;
    mutable used : int;
    mutable offsets : int array;
        (* event position -> offset of its payload in [buf]; -1 for none *)
  }

  let create ?(capacity = 4096) () =
    { buf = Bytes.create (max 64 capacity); used = 0; offsets = [||] }

  let offset t pos = if pos >= 0 && pos < Array.length t.offsets then t.offsets.(pos) else -1

  (* Room for [n] more bytes, bound to position [pos]: the offset they
     start at. *)
  let claim t ~pos n =
    if t.used + n > Bytes.length t.buf then begin
      let bigger = Bytes.create (max (2 * Bytes.length t.buf) (t.used + n)) in
      Bytes.blit t.buf 0 bigger 0 t.used;
      t.buf <- bigger
    end;
    let cap = Array.length t.offsets in
    if pos >= cap then begin
      let bigger = Array.make (max 64 (max (2 * cap) (pos + 1))) (-1) in
      Array.blit t.offsets 0 bigger 0 cap;
      t.offsets <- bigger
    end;
    let off = t.used in
    t.offsets.(pos) <- off;
    t.used <- off + n;
    off

  (* [claim] may replace the buffer: it runs before the buffer is read. *)
  let snoop t ~pos device ~addr ~size =
    let off = claim t ~pos size in
    Pmem.Device.peek_into device ~addr ~size t.buf ~off

  let copy t ~pos ~size ~into ~at =
    let off = offset t pos in
    if off >= 0 then begin
      let dst = claim into ~pos:at size in
      Bytes.blit t.buf off into.buf dst size
    end

  let mem t pos = offset t pos >= 0

  let read t ~pos ~size =
    let off = offset t pos in
    if off < 0 then Bytes.make size '\000' else Bytes.sub t.buf off size

  let blit_to_image t ~pos ~size img ~addr =
    let off = offset t pos in
    if off < 0 then Pmem.Image.write img ~addr (Bytes.make size '\000')
    else Pmem.Image.blit_to img ~dst_addr:addr ~src:t.buf ~src_off:off ~len:size

  let bytes_used t = t.used
end
