(* A chained hash table keyed by an int and hashed inline. [Hashtbl.Make
   (Int)] hashes through [caml_hash], a C call that costs more than the
   lookup it serves, and its [find] answers a miss by raising, which costs
   more than the probe itself. Here a miss returns the caller's sentinel.

   The hash folds the upper half of the key onto the lower, so dense small
   keys (line and page indices) fill consecutive buckets, and keys that
   pack a call-path id above bit 32 and an index below it spread over the
   buckets too. The layout is [Hashtbl]'s: a power-of-two bucket array of
   at least 16, new bindings at the head of their chain, and a doubling,
   order-keeping resize once the table holds twice as many bindings as
   buckets. Walks run from the first bucket to the last, and each chain
   from its head. *)

type 'a bucket = Empty | Cons of { key : int; data : 'a; mutable next : 'a bucket }
type 'a t = { mutable size : int; mutable buckets : 'a bucket array }

let rec power_2_above x n =
  if x >= n || x * 2 > Sys.max_array_length then x else power_2_above (x * 2) n

let create n = { size = 0; buckets = Array.make (power_2_above 16 n) Empty }

let index t key = (key lxor (key lsr 32)) land (Array.length t.buckets - 1)
let length t = t.size

let rec find_in key default = function
  | Empty -> default
  | Cons c -> if c.key = key then c.data else find_in key default c.next

let find_or t key default = find_in key default t.buckets.(index t key)

let rec mem_in key = function Empty -> false | Cons c -> c.key = key || mem_in key c.next
let mem t key = mem_in key t.buckets.(index t key)

(* Doubling splits each chain over two new buckets. [move] puts a
   chain's tail in before its head, so each new chain keeps the old
   order. *)
let resize t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) Empty;
  let rec move = function
    | Empty -> ()
    | Cons c as cell ->
        move c.next;
        let j = index t c.key in
        c.next <- t.buckets.(j);
        t.buckets.(j) <- cell
  in
  Array.iter move old

let add t key data =
  let i = index t key in
  t.buckets.(i) <- Cons { key; data; next = t.buckets.(i) };
  t.size <- t.size + 1;
  if t.size > 2 * Array.length t.buckets then resize t

let rec remove_from t i key prev = function
  | Empty -> ()
  | Cons { key = k; next; _ } as cell ->
      if k = key then begin
        t.size <- t.size - 1;
        match prev with Empty -> t.buckets.(i) <- next | Cons p -> p.next <- next
      end
      else remove_from t i key cell next

let remove t key =
  let i = index t key in
  remove_from t i key Empty t.buckets.(i)

let rec iter_chain f = function
  | Empty -> ()
  | Cons c ->
      f c.key c.data;
      iter_chain f c.next

let iter f t =
  let b = t.buckets in
  for i = 0 to Array.length b - 1 do
    iter_chain f b.(i)
  done

let rec fold_chain f chain acc =
  match chain with Empty -> acc | Cons c -> fold_chain f c.next (f c.key c.data acc)

let fold f t init =
  let b = t.buckets and acc = ref init in
  for i = 0 to Array.length b - 1 do
    acc := fold_chain f b.(i) !acc
  done;
  !acc
