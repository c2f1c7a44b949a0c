(* Two representations: [Flat] is a plain byte buffer (every device's
   backing store); [Cow] is a copy-on-write view over another image's
   bytes, materializing 4 KiB pages into a private overlay only when
   written. The batched crash-image materializer hands the recovery
   oracle a [Cow] view per failure point, so the oracle pays for the
   pages recovery touches instead of two full-pool copies per point. *)

let page_bits = 12
let page_size = 1 lsl page_bits

(* Private pages by page index. Every lookup is [find] with [Not_found]
   for a miss, so a hit boxes no option. *)
module Pages = Hashtbl.Make (Int)

type repr =
  | Flat of bytes
  | Cow of { base : bytes; pages : bytes Pages.t }

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
      Pages.iter
        (fun page content ->
          let off = page lsl page_bits in
          Bytes.blit content 0 buf off (Int.min page_size (t.size - off)))
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
  { size = t.size; repr = Cow { base; pages = Pages.create 16 } }

let cow_pages t =
  match t.repr with
  | Flat _ -> invalid_arg "Pmem.Image.cow_pages: not a copy-on-write view"
  | Cow { base; pages } ->
      let written =
        Pages.fold (fun page content acc -> (page lsl page_bits, content) :: acc) pages []
      in
      (base, List.sort (fun (a, _) (b, _) -> compare a b) written)

let check t addr size =
  if addr < 0 || size < 0 || addr + size > t.size then
    invalid_arg
      (Printf.sprintf "Pmem.Image: access [%d, %d) out of bounds (size %d)" addr (addr + size)
         t.size)

(* [n] bytes of [a] from [i] equal [n] bytes of [b] from [j]. *)
let rec sub_equal a i b j n =
  if n >= 8 then
    Bytes.get_int64_ne a i = Bytes.get_int64_ne b j && sub_equal a (i + 8) b (j + 8) (n - 8)
  else n = 0 || (Bytes.get a i = Bytes.get b j && sub_equal a (i + 1) b (j + 1) (n - 1))

(* The copy-on-write paths walk [pos, stop) in page-aligned chunks: the
   chunk at [pos] covers [n] bytes of page [pos lsr page_bits] from page
   offset [off], and is caller offset [at] of the other buffer. *)
let rec cow_blit_from ~base pages ~pos ~stop dst ~at =
  if pos < stop then begin
    let off = pos land (page_size - 1) in
    let n = Int.min (page_size - off) (stop - pos) in
    (match Pages.find pages (pos lsr page_bits) with
    | content -> Bytes.blit content off dst at n
    | exception Not_found -> Bytes.blit base pos dst at n);
    cow_blit_from ~base pages ~pos:(pos + n) ~stop dst ~at:(at + n)
  end

(* A page is copied up from [base] on the first write that changes it: a
   write of the bytes already there leaves the page shared. The last page
   of the pool may be partial: the tail of its buffer stays zero and is
   never read (bounds checks clip every access to [size]). *)
let rec cow_blit_to ~base ~size pages ~pos ~stop src ~at =
  if pos < stop then begin
    let page = pos lsr page_bits and off = pos land (page_size - 1) in
    let n = Int.min (page_size - off) (stop - pos) in
    (match Pages.find pages page with
    | content -> Bytes.blit src at content off n
    | exception Not_found ->
        if not (sub_equal src at base pos n) then begin
          let content = Bytes.make page_size '\000' in
          let start = page lsl page_bits in
          Bytes.blit base start content 0 (Int.min page_size (size - start));
          Bytes.blit src at content off n;
          Pages.add pages page content
        end);
    cow_blit_to ~base ~size pages ~pos:(pos + n) ~stop src ~at:(at + n)
  end

let blit_from t ~src_addr ~dst ~dst_off ~len =
  check t src_addr len;
  match t.repr with
  | Flat buf -> Bytes.blit buf src_addr dst dst_off len
  | Cow { base; pages } ->
      cow_blit_from ~base pages ~pos:src_addr ~stop:(src_addr + len) dst ~at:dst_off

let blit_to t ~dst_addr ~src ~src_off ~len =
  check t dst_addr len;
  match t.repr with
  | Flat buf -> Bytes.blit src src_off buf dst_addr len
  | Cow { base; pages } ->
      (* the source range is compared before it is copied: reject it as
         [Bytes.blit] would *)
      if src_off < 0 || src_off > Bytes.length src - len then
        invalid_arg "Bytes.blit";
      cow_blit_to ~base ~size:t.size pages ~pos:dst_addr ~stop:(dst_addr + len) src ~at:src_off

let read t ~addr ~size =
  let out = Bytes.create size in
  blit_from t ~src_addr:addr ~dst:out ~dst_off:0 ~len:size;
  out

let write t ~addr b = blit_to t ~dst_addr:addr ~src:b ~src_off:0 ~len:(Bytes.length b)

(* A word inside one page is read in place; one that straddles two pages
   takes the general path. *)
let read_i64 t ~addr =
  check t addr 8;
  match t.repr with
  | Flat buf -> Bytes.get_int64_le buf addr
  | Cow { base; pages } ->
      let off = addr land (page_size - 1) in
      if off <= page_size - 8 then
        match Pages.find pages (addr lsr page_bits) with
        | content -> Bytes.get_int64_le content off
        | exception Not_found -> Bytes.get_int64_le base addr
      else Bytes.get_int64_le (read t ~addr ~size:8) 0

let write_i64 t ~addr v =
  match t.repr with
  | Flat buf ->
      check t addr 8;
      Bytes.set_int64_le buf addr v
  | Cow _ ->
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 v;
      write t ~addr b

(* The buffer holding [page]'s bytes, and where the page starts in it. *)
let locate t page =
  match t.repr with
  | Cow { pages; _ } when Pages.mem pages page -> (Pages.find pages page, 0)
  | Cow { base = buf; _ } | Flat buf -> (buf, page lsl page_bits)

(* Compared page by page in place: a view stays a view. *)
let equal a b =
  a.size = b.size
  &&
  match (a.repr, b.repr) with
  | Flat x, Flat y -> Bytes.equal x y
  | _ ->
      let rec from page =
        let start = page lsl page_bits in
        start >= a.size
        ||
        let x, xo = locate a page and y, yo = locate b page in
        sub_equal x xo y yo (Int.min page_size (a.size - start)) && from (page + 1)
      in
      from 0
