(* Per-line records are mutable and stamped with the epoch (fence count) of
   their last cached store, capture and non-temporal write, so closing an
   epoch resets nothing. A line also holds its 8-byte slots' store →
   capture → persist states; the slots not yet persisted live in
   [residue], whose iteration order is the order trace analysis reports
   them in — fixed by the table's initial size and its insert/remove
   history, so both are part of the output. A fold made without the
   residue keeps no slots at all. The line table's order reaches no
   output, so it hashes inline ({!Pmem.Int_table}). *)

module Tbl = Hashtbl.Make (Int)

type state = Persisted | Dirty | Captured
type slot = { slot : int; mutable state : state; mutable seq : int }

type line = {
  line : int;
  mutable stores : int;  (* cached stores since the last dirty flush *)
  mutable last_store : int;
  mutable store_epoch : int;
  mutable capture : int;  (* clflushopt/clwb capture, live in [capture_epoch] *)
  mutable capture_epoch : int;
  mutable nt_epoch : int;
  mutable touch_epoch : int;
  mutable flushes : int;
  mutable last_flush : int;
  slots : slot array;
}

type step = Load | Store | Volatile_flush | Clean_flush | Clean_nt_flush | Dirty_flush | Fence

type t = {
  lines : line Pmem.Int_table.t;
  tracks_residue : bool;
  residue : slot Tbl.t;
  mutable touched : line array;  (* lines stored to or captured in [touched_epoch] *)
  mutable n_touched : int;
  mutable touched_epoch : int;
  mutable epoch : int;
  mutable pseq : int;
  mutable captured_stores : int;
  mutable overwritten : int;
}

let slots_per_line = Pmem.Addr.line_size / Pmem.Addr.atomic_size
let no_slot = { slot = -1; state = Persisted; seq = 0 }

(* A line-table miss, and the filler of [touched]'s unused slots: never
   written, so a miss reads as never flushed. *)
let no_line =
  { line = -1; stores = 0; last_store = 0; store_epoch = -1; capture = 0; capture_epoch = -1;
    nt_epoch = -1; touch_epoch = -1; flushes = 0; last_flush = 0; slots = [||] }

let create ?(residue = false) () =
  { lines = Pmem.Int_table.create 1024; tracks_residue = residue;
    residue = Tbl.create (if residue then 4096 else 1); touched = [||]; n_touched = 0;
    touched_epoch = 0; epoch = 0; pseq = 0; captured_stores = 0; overwritten = 0 }

let line_of t line =
  let l = Pmem.Int_table.find_or t.lines line no_line in
  if l != no_line then l
  else begin
    let slots = if t.tracks_residue then Array.make slots_per_line no_slot else [||] in
    let l = { no_line with line; slots } in
    Pmem.Int_table.add t.lines line l;
    l
  end

(* The touched list of a closed epoch stays readable ({!stranded}) until
   the next epoch touches its first line. *)
let touch t l =
  if l.touch_epoch <> t.epoch then begin
    l.touch_epoch <- t.epoch;
    if t.touched_epoch <> t.epoch then begin
      t.touched_epoch <- t.epoch;
      t.n_touched <- 0
    end;
    if t.n_touched = Array.length t.touched then
      t.touched <- Array.append t.touched (Array.make (Int.max 16 t.n_touched) no_line);
    t.touched.(t.n_touched) <- l;
    t.n_touched <- t.n_touched + 1
  end

let store_slots t ~seq ~addr ~size ~nt =
  let first_slot = Pmem.Addr.slot_of addr and last_slot = Pmem.Addr.slot_of (addr + size - 1) in
  for line = Pmem.Addr.line_of addr to Pmem.Addr.line_of (addr + size - 1) do
    let l = line_of t line in
    touch t l;
    if nt then l.nt_epoch <- t.epoch
    else begin
      l.stores <- l.stores + 1;
      l.last_store <- t.pseq;
      l.store_epoch <- t.epoch
    end;
    if t.tracks_residue then begin
      let base = line * slots_per_line in
      for s = Int.max first_slot base to Int.min last_slot (base + slots_per_line - 1) do
        if l.slots.(s - base) == no_slot then l.slots.(s - base) <- { no_slot with slot = s };
        let r = l.slots.(s - base) in
        if r.state = Persisted then Tbl.add t.residue s r;
        r.state <- (if nt then Captured else Dirty);
        r.seq <- seq
      done
    end
  done

let flush_line t kind l ~dirty =
  l.flushes <- l.flushes + 1;
  l.last_flush <- t.pseq;
  if not dirty then if l.nt_epoch = t.epoch then Clean_nt_flush else Clean_flush
  else begin
    t.captured_stores <- l.stores;
    t.overwritten <- (if l.capture_epoch = t.epoch then l.capture else 0);
    l.stores <- 0;
    (match kind with
    | Pmem.Op.Clflush -> l.capture_epoch <- -1 (* persists at once: no capture to kill *)
    | Pmem.Op.Clflushopt | Pmem.Op.Clwb ->
        l.capture <- t.pseq;
        l.capture_epoch <- t.epoch);
    Array.iter (fun r -> if r.state = Dirty then r.state <- Captured) l.slots;
    touch t l;
    Dirty_flush
  end

(* Every captured slot was captured this epoch, in a touched line. *)
let drain t =
  if t.touched_epoch = t.epoch then
    for i = 0 to t.n_touched - 1 do
      let slots = t.touched.(i).slots in
      for j = 0 to Array.length slots - 1 do
        let r = slots.(j) in
        if r.state = Captured then begin
          r.state <- Persisted;
          Tbl.remove t.residue r.slot
        end
      done
    done;
  t.epoch <- t.epoch + 1;
  Fence

(* The step, one function per kind of event, from the event's fields. *)
let store t ~seq ~addr ~size ~nt =
  t.pseq <- t.pseq + 1;
  store_slots t ~seq ~addr ~size ~nt;
  Store

let flush t kind ~line ~dirty ~volatile =
  t.pseq <- t.pseq + 1;
  if volatile then Volatile_flush else flush_line t kind (line_of t line) ~dirty

let fence t =
  t.pseq <- t.pseq + 1;
  drain t

let feed t (e : Pmtrace.Event.t) =
  match e.Pmtrace.Event.op with
  | Pmem.Op.Load _ -> Load
  | Pmem.Op.Store { addr; size; nt } -> store t ~seq:e.Pmtrace.Event.seq ~addr ~size ~nt
  | Pmem.Op.Flush { kind; line; dirty; volatile } -> flush t kind ~line ~dirty ~volatile
  | Pmem.Op.Fence _ -> fence t

let flush_redundancy step ~line =
  match step with
  | Volatile_flush -> Some (Printf.sprintf "flush of volatile address (line %d)" line)
  | Clean_flush | Clean_nt_flush ->
      Some (Printf.sprintf "line %d flushed with nothing written since its last flush" line)
  | Load | Store | Dirty_flush | Fence -> None

let fence_redundancy ~pending_flushes ~pending_nt =
  if pending_flushes = 0 && pending_nt = 0 then Some "fence with no pending flushes or NT stores"
  else None

let redundancy step (op : Pmem.Op.t) =
  match (step, op) with
  | _, Pmem.Op.Flush { line; _ } -> flush_redundancy step ~line
  | Fence, Pmem.Op.Fence { pending_flushes; pending_nt; _ } ->
      fence_redundancy ~pending_flushes ~pending_nt
  | _ -> None

let pseq t = t.pseq
let captured_stores t = t.captured_stores
let overwritten t = t.overwritten

let stranded t f =
  if t.touched_epoch = t.epoch - 1 then
    for i = 0 to t.n_touched - 1 do
      let l = t.touched.(i) in
      if l.store_epoch = t.touched_epoch && l.stores > 0 then f l.line l.last_store
    done

let last_flush t line = (Pmem.Int_table.find_or t.lines line no_line).last_flush

let iter_residue t f =
  if not t.tracks_residue then invalid_arg "Persist_fold.iter_residue: made without ~residue";
  Tbl.iter
    (fun slot r ->
      let line = slot * Pmem.Addr.atomic_size / Pmem.Addr.line_size in
      f ~slot ~seq:r.seq ~captured:(r.state = Captured)
        ~line_flushed:((Pmem.Int_table.find_or t.lines line no_line).flushes > 0))
    t.residue
