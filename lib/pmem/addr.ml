let line_size = 64
let atomic_size = 8
let line_of addr = addr / line_size
let line_base line = line * line_size
let slot_of addr = addr / atomic_size

let spanned ~unit_size ~addr ~size =
  assert (size > 0);
  let first = addr / unit_size and last = (addr + size - 1) / unit_size in
  let rec collect i acc = if i < first then acc else collect (i - 1) (i :: acc) in
  collect last []

let lines_spanned ~addr ~size = spanned ~unit_size:line_size ~addr ~size
let slots_spanned ~addr ~size = spanned ~unit_size:atomic_size ~addr ~size
let align_up n a = (n + a - 1) / a * a
let is_aligned n a = n mod a = 0
