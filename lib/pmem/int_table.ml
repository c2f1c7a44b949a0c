(* A hash table keyed by an int and hashed inline. [Hashtbl.Make (Int)]
   hashes through [caml_hash], a C call that costs more than the lookup
   it serves on the device's line table or an image view's page overlay.
   The hash folds the upper half of the key onto the lower, so dense
   small keys (line and page indices) fill consecutive buckets, and keys
   that pack a call-path id above bit 32 and an index below it spread
   over the buckets too. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k lxor (k lsr 32)) land max_int
end)
