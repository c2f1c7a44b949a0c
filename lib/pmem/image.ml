(* Two representations: [Flat] is a plain byte buffer (every device's
   backing store); [Cow] is a copy-on-write view over another image's
   bytes, materializing 4 KiB pages into a private overlay only when
   written. The batched crash-image materializer hands the recovery
   oracle a [Cow] view per failure point, so the oracle pays for the
   pages recovery touches instead of two full-pool copies per point. *)

let page_bits = 12
let page_size = 1 lsl page_bits

type repr =
  | Flat of bytes
  | Cow of { base : bytes; pages : (int, bytes) Hashtbl.t }

type t = { size : int; mutable repr : repr }

let create ~size =
  assert (size > 0);
  { size; repr = Flat (Bytes.make size '\000') }

let size t = t.size

(* Flatten a COW view into a fresh buffer: base bytes plus overlay pages. *)
let flatten_bytes t =
  match t.repr with
  | Flat buf -> Bytes.copy buf
  | Cow { base; pages } ->
      let buf = Bytes.copy base in
      Hashtbl.iter
        (fun page content ->
          let off = page lsl page_bits in
          Bytes.blit content 0 buf off (min page_size (t.size - off)))
        pages;
      buf

let snapshot t = { size = t.size; repr = Flat (flatten_bytes t) }

let unsafe_bytes t =
  match t.repr with
  | Flat buf -> buf
  | Cow _ ->
      let buf = flatten_bytes t in
      t.repr <- Flat buf;
      buf

(* A view of a view reads through a private flat copy, so [t] itself is
   never flattened: a device that adopted [t] keeps its pages. *)
let cow t =
  let base = match t.repr with Flat buf -> buf | Cow _ -> flatten_bytes t in
  { size = t.size; repr = Cow { base; pages = Hashtbl.create 64 } }

let cow_pages t =
  match t.repr with
  | Flat _ -> invalid_arg "Pmem.Image.cow_pages: not a copy-on-write view"
  | Cow { base; pages } ->
      let written =
        Hashtbl.fold (fun page content acc -> (page lsl page_bits, content) :: acc) pages []
      in
      (base, List.sort (fun (a, _) (b, _) -> compare a b) written)

let check t addr size =
  if addr < 0 || size < 0 || addr + size > t.size then
    invalid_arg
      (Printf.sprintf "Pmem.Image: access [%d, %d) out of bounds (size %d)" addr (addr + size)
         t.size)

(* Walk [addr, addr+len) in page-aligned chunks: [k page ~off ~boff ~n]
   covers [n] bytes of overlay page [page] starting at page offset [off],
   which is caller offset [boff]. *)
let iter_pages addr len k =
  let pos = ref addr in
  while !pos < addr + len do
    let page = !pos lsr page_bits in
    let off = !pos land (page_size - 1) in
    let n = min (page_size - off) (addr + len - !pos) in
    k page ~off ~boff:(!pos - addr) ~n;
    pos := !pos + n
  done

(* The overlay page for [page], copied up from [base] on first write. The
   last page of the pool may be partial: the tail of its buffer stays
   zero and is never read (bounds checks clip every access to [size]). *)
let cow_page ~base ~size pages page =
  match Hashtbl.find_opt pages page with
  | Some content -> content
  | None ->
      let content = Bytes.make page_size '\000' in
      let off = page lsl page_bits in
      Bytes.blit base off content 0 (min page_size (size - off));
      Hashtbl.replace pages page content;
      content

let blit_from t ~src_addr ~dst ~dst_off ~len =
  check t src_addr len;
  match t.repr with
  | Flat buf -> Bytes.blit buf src_addr dst dst_off len
  | Cow { base; pages } ->
      iter_pages src_addr len (fun page ~off ~boff ~n ->
          match Hashtbl.find_opt pages page with
          | Some content -> Bytes.blit content off dst (dst_off + boff) n
          | None -> Bytes.blit base ((page lsl page_bits) + off) dst (dst_off + boff) n)

let blit_to t ~dst_addr ~src ~src_off ~len =
  check t dst_addr len;
  match t.repr with
  | Flat buf -> Bytes.blit src src_off buf dst_addr len
  | Cow { base; pages } ->
      iter_pages dst_addr len (fun page ~off ~boff ~n ->
          Bytes.blit src (src_off + boff) (cow_page ~base ~size:t.size pages page) off n)

let read t ~addr ~size =
  let out = Bytes.create size in
  blit_from t ~src_addr:addr ~dst:out ~dst_off:0 ~len:size;
  out

let write t ~addr b = blit_to t ~dst_addr:addr ~src:b ~src_off:0 ~len:(Bytes.length b)

let read_i64 t ~addr =
  match t.repr with
  | Flat buf ->
      check t addr 8;
      Bytes.get_int64_le buf addr
  | Cow _ -> Bytes.get_int64_le (read t ~addr ~size:8) 0

let write_i64 t ~addr v =
  match t.repr with
  | Flat buf ->
      check t addr 8;
      Bytes.set_int64_le buf addr v
  | Cow _ ->
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 v;
      write t ~addr b

let equal a b =
  match (a.repr, b.repr) with
  | Flat x, Flat y -> Bytes.equal x y
  | _ -> a.size = b.size && Bytes.equal (unsafe_bytes a) (unsafe_bytes b)
