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
  mutable path_words : int; (* resident size of the interned paths *)
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
    path_words = 0;
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
      (* 3 words per list cell + header/content words per string *)
      t.path_words <-
        t.path_words
        + List.fold_left (fun acc s -> acc + 3 + 2 + ((String.length s + 7) / 8)) 0 path;
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

let add t (e : Event.t) =
  ensure_capacity t;
  let base = t.len * slots in
  let tag, a, b, c =
    match e.Event.op with
    | Pmem.Op.Store { addr; size; nt } -> (0, addr, size, if nt then 1 else 0)
    | Pmem.Op.Flush { kind; line; dirty; volatile } ->
        ( 1,
          flush_kind_code kind,
          line,
          (if dirty then 1 else 0) lor if volatile then 2 else 0 )
    | Pmem.Op.Fence { kind; pending_flushes; pending_nt } ->
        (2, fence_kind_code kind, pending_flushes, pending_nt)
    | Pmem.Op.Load { addr; size } -> (3, addr, size, 0)
  in
  let stack, op_index =
    match e.Event.stack with
    | None -> (0, 0)
    | Some cap -> (intern t cap.Callstack.path + 1, cap.Callstack.op_index)
  in
  let d = t.data in
  d.{base} <- e.Event.seq;
  d.{base + 1} <- tag;
  d.{base + 2} <- a;
  d.{base + 3} <- b;
  d.{base + 4} <- c;
  d.{base + 5} <- stack;
  d.{base + 6} <- op_index;
  t.len <- t.len + 1

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
  let stack =
    match d.{base + 5} with
    | 0 -> None
    | id -> Some { Callstack.path = t.paths.(id - 1); op_index = d.{base + 6} }
  in
  { Event.seq = d.{base}; op; stack }

let iter t f =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let fold t init f =
  let acc = ref init in
  iter t (fun e -> acc := f !acc e);
  !acc

let to_list t = List.rev (fold t [] (fun acc e -> e :: acc))

(* One event's line of the digest text, from its packed fields, into
   [buf]. *)
let render buf tag a b c =
  Buffer.clear buf;
  (match tag with
  | 0 -> Pmem.Op.add_store buf ~addr:a ~size:b ~nt:(c = 1)
  | 1 ->
      Pmem.Op.add_flush buf (flush_kind_of_code a) ~line:b ~dirty:(c land 1 = 1)
        ~volatile:(c land 2 = 2)
  | 2 -> Pmem.Op.add_fence buf (fence_kind_of_code a) ~pending_flushes:b ~pending_nt:c
  | _ -> Pmem.Op.add_load buf ~addr:a ~size:b);
  Buffer.add_char buf '\n'

(* A line's length without rendering it: the line of its shape (tag,
   kind and flags) with every integer field 0, rendered once here, plus
   each integer field's digits past the first. Shapes are numbered store
   by [nt] (0-1), flush by kind and flags (2-13), fence by kind (14-16),
   load (17). *)
let shape_lengths =
  let buf = Buffer.create 64 in
  let len tag a c =
    render buf tag a 0 c;
    Buffer.length buf
  in
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

(* The text is sized first, then rendered line by line into one small
   buffer and blitted into the one [bytes] that is hashed. *)
let digest t =
  let d = t.data in
  let size = ref 0 in
  for i = 0 to t.len - 1 do
    let base = i * slots in
    size := !size + line_length d.{base + 1} d.{base + 2} d.{base + 3} d.{base + 4}
  done;
  let text = Bytes.create !size and buf = Buffer.create 64 in
  let pos = ref 0 in
  for i = 0 to t.len - 1 do
    let base = i * slots in
    render buf d.{base + 1} d.{base + 2} d.{base + 3} d.{base + 4};
    Buffer.blit buf 0 text !pos (Buffer.length buf);
    pos := !pos + Buffer.length buf
  done;
  assert (!pos = !size);
  Digest.to_hex (Digest.bytes text)

let clear t = t.len <- 0
let path_count t = t.npaths
let path_id t path = Hashtbl.find_opt t.ids path
let words t = (t.len * slots) + t.path_words

module Slab = struct
  type slab = {
    mutable buf : Bytes.t;
    mutable used : int;
    index : (int, int * int) Hashtbl.t; (* key -> (offset, length) *)
  }

  let create ?(capacity = 4096) () =
    { buf = Bytes.create (max 64 capacity); used = 0; index = Hashtbl.create 64 }

  let set t ~key b =
    let n = Bytes.length b in
    if t.used + n > Bytes.length t.buf then begin
      let bigger = Bytes.create (max (2 * Bytes.length t.buf) (t.used + n)) in
      Bytes.blit t.buf 0 bigger 0 t.used;
      t.buf <- bigger
    end;
    Bytes.blit b 0 t.buf t.used n;
    Hashtbl.replace t.index key (t.used, n);
    t.used <- t.used + n

  let find t key =
    Option.map (fun (off, len) -> Bytes.sub t.buf off len) (Hashtbl.find_opt t.index key)

  let iter t f = Hashtbl.iter (fun key (off, len) -> f key (Bytes.sub t.buf off len)) t.index
  let length t = Hashtbl.length t.index
  let bytes_used t = t.used
end
