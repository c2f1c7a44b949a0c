(* An image is a table of 4 KiB pages. Every page nothing has written yet
   is [zero_page], one page shared by every image and never written, so
   a fresh pool costs its table alone, the way a mapped file's untouched
   pages cost nothing. A write copies a page up only when it changes the
   page's bytes, and a snapshot copies only the written pages.

   A copy-on-write view reads through its base's table (shared, not
   copied) and keeps the pages written through it in a private overlay.
   The batched crash-image materializer hands the recovery oracle a view
   per failure point, so the oracle pays for the pages recovery touches
   instead of two full-pool copies per point. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let zero_page = Bytes.make page_size '\000'

(* A view's private pages by page index. A probe answers a miss with the
   base's page or [zero_page], so it neither boxes an option nor raises;
   [cow_pages] sorts what it lists, so the table's order reaches no
   output. *)
module Pages = Int_table

type t = {
  size : int;
  pages : bytes array;
      (* a plain image's pages, [zero_page] where untouched; a view's base
         pages, which it reads through and never writes *)
  own : bytes Pages.t option; (* a view's private pages *)
}

let create ~size =
  assert (size > 0);
  { size; pages = Array.make ((size + page_size - 1) lsr page_bits) zero_page; own = None }

let size t = t.size

(* The page [t] reads at index [i]. *)
let page t i =
  match t.own with None -> t.pages.(i) | Some own -> Pages.find_or own i t.pages.(i)

(* The page at index [i] that [t] may write in place, or [zero_page]
   when that page is shared. *)
let private_page t i =
  match t.own with None -> t.pages.(i) | Some own -> Pages.find_or own i zero_page

let snapshot t =
  let copy i =
    let p = page t i in
    if p == zero_page then p else Bytes.copy p
  in
  { size = t.size; pages = Array.init (Array.length t.pages) copy; own = None }

(* A view of a view reads through a snapshot of it, so the view [t] may
   go on being written. *)
let rec cow t =
  match t.own with
  | None -> { t with own = Some (Pages.create 16) }
  | Some _ -> cow (snapshot t)

let cow_pages t =
  match t.own with
  | None -> invalid_arg "Pmem.Image.cow_pages: not a copy-on-write view"
  | Some own ->
      Pages.fold (fun i p acc -> (i lsl page_bits, t.pages.(i), p) :: acc) own []
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

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

(* The page walks cover [pos, stop) in page-aligned chunks: the chunk at
   [pos] covers [n] bytes of page [pos lsr page_bits] from page offset
   [off], and is caller offset [at] of the other buffer. *)
let rec blit_pages_from t ~pos ~stop dst ~at =
  if pos < stop then begin
    let off = pos land (page_size - 1) in
    let n = Int.min (page_size - off) (stop - pos) in
    Bytes.blit (page t (pos lsr page_bits)) off dst at n;
    blit_pages_from t ~pos:(pos + n) ~stop dst ~at:(at + n)
  end

(* A shared page is copied up on the first write that changes it: a write
   of the bytes already there, zeros into an untouched page included,
   leaves it shared. The last page of the pool may be partial: the tail of
   its buffer stays zero and is never read (bounds checks clip every
   access to [size]). *)
let rec blit_pages_to t ~pos ~stop src ~at =
  if pos < stop then begin
    let i = pos lsr page_bits and off = pos land (page_size - 1) in
    let n = Int.min (page_size - off) (stop - pos) in
    let p = private_page t i in
    if p != zero_page then Bytes.blit src at p off n
    else begin
      let shared = t.pages.(i) in
      if not (sub_equal src at shared off n) then begin
        let p = Bytes.copy shared in
        Bytes.blit src at p off n;
        match t.own with None -> t.pages.(i) <- p | Some own -> Pages.add own i p
      end
    end;
    blit_pages_to t ~pos:(pos + n) ~stop src ~at:(at + n)
  end

let blit_from t ~src_addr ~dst ~dst_off ~len =
  check t src_addr len;
  if dst_off < 0 || dst_off > Bytes.length dst - len then invalid_arg "Bytes.blit";
  blit_pages_from t ~pos:src_addr ~stop:(src_addr + len) dst ~at:dst_off

let blit_to t ~dst_addr ~src ~src_off ~len =
  check t dst_addr len;
  (* the source range is compared before it is copied: reject it as
     [Bytes.blit] would *)
  if src_off < 0 || src_off > Bytes.length src - len then invalid_arg "Bytes.blit";
  blit_pages_to t ~pos:dst_addr ~stop:(dst_addr + len) src ~at:src_off

let read t ~addr ~size =
  let out = Bytes.create size in
  blit_from t ~src_addr:addr ~dst:out ~dst_off:0 ~len:size;
  out

let write t ~addr b = blit_to t ~dst_addr:addr ~src:b ~src_off:0 ~len:(Bytes.length b)

(* A word inside one page is read in place; one that straddles two pages
   takes the general path. *)
let read_i64 t ~addr =
  check t addr 8;
  let off = addr land (page_size - 1) in
  if off <= page_size - 8 then Bytes.get_int64_le (page t (addr lsr page_bits)) off
  else Bytes.get_int64_le (read t ~addr ~size:8) 0

let write_i64 t ~addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write t ~addr b

(* Compared page by page in place, skipping the pages both images share:
   a view stays a view. *)
let equal a b =
  a.size = b.size
  &&
  let rec from i =
    let start = i lsl page_bits in
    start >= a.size
    ||
    let x = page a i and y = page b i in
    (x == y || sub_equal x 0 y 0 (Int.min page_size (a.size - start))) && from (i + 1)
  in
  from 0
