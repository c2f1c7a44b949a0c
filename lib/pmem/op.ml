(** Descriptors for the PM-relevant instructions the device executes.

    These are what the instrumentation layer (the Pin analogue) observes.
    The taxonomy follows paper section 2: stores (regular and non-temporal),
    the three flush variants, the two fences, and read-modify-write
    instructions which carry fence semantics. *)

type flush_kind = Clflush | Clflushopt | Clwb

type fence_kind = Sfence | Mfence | Rmw

type t =
  | Store of { addr : int; size : int; nt : bool }
      (** A store to PM. [nt] marks non-temporal (cache-bypassing) stores. *)
  | Flush of { kind : flush_kind; line : int; dirty : bool; volatile : bool }
      (** A flush of cache line [line]. [dirty] records whether the line had
          unpersisted stores at flush time; [volatile] records whether the
          flushed address lies outside the PM pool. *)
  | Fence of { kind : fence_kind; pending_flushes : int; pending_nt : int }
      (** A fence draining [pending_flushes] buffered flushes and
          [pending_nt] buffered non-temporal stores. *)
  | Load of { addr : int; size : int }
      (** A load from PM. Only emitted when load tracing is enabled. *)

let flush_kind_to_string = function
  | Clflush -> "clflush"
  | Clflushopt -> "clflushopt"
  | Clwb -> "clwb"

let fence_kind_to_string = function
  | Sfence -> "sfence"
  | Mfence -> "mfence"
  | Rmw -> "rmw"

(* The length of the decimal rendering of [n]. Digits are counted, and
   written below, from the non-positive side so [min_int] needs no special
   case. *)
let int_length n =
  let rec digits m k = if m <= -10 then digits (m / 10) (k + 1) else k in
  (if n < 0 then 1 else 0) + digits (if n < 0 then n else -n) 1

(* The digits of [m <= 0], last digit at [i], right to left; top-level so
   that writing an integer allocates no closure. *)
let rec write_digits b m i =
  Bytes.set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then write_digits b (m / 10) (i - 1)

(* Every writer puts its text into [b] at [pos] and returns the position
   just past it. *)
let write_int b pos n =
  let stop = pos + int_length n in
  if n < 0 then Bytes.set b pos '-';
  write_digits b (if n < 0 then n else -n) (stop - 1);
  stop

let write_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let write_bool b pos v = write_string b pos (if v then "true" else "false")

(* The op rendering, one writer per constructor taking the fields unboxed:
   {!to_string} and the trace digest (written straight from a packed trace
   arena into the bytes it hashes) both go through these, so the format
   lives here only. *)
let write_store b pos ~addr ~size ~nt =
  let pos = write_string b pos (if nt then "store.nt addr=" else "store addr=") in
  let pos = write_int b pos addr in
  let pos = write_string b pos " size=" in
  write_int b pos size

let write_flush b pos kind ~line ~dirty ~volatile =
  let pos = write_string b pos (flush_kind_to_string kind) in
  let pos = write_string b pos " line=" in
  let pos = write_int b pos line in
  let pos = write_string b pos " dirty=" in
  let pos = write_bool b pos dirty in
  let pos = write_string b pos " volatile=" in
  write_bool b pos volatile

let write_fence b pos kind ~pending_flushes ~pending_nt =
  let pos = write_string b pos (fence_kind_to_string kind) in
  let pos = write_string b pos " pending_flushes=" in
  let pos = write_int b pos pending_flushes in
  let pos = write_string b pos " pending_nt=" in
  write_int b pos pending_nt

let write_load b pos ~addr ~size =
  let pos = write_string b pos "load addr=" in
  let pos = write_int b pos addr in
  let pos = write_string b pos " size=" in
  write_int b pos size

(* An upper bound on a rendering's length: the longest, a fence's, is 35
   bytes of text around two integers of at most 20 characters each. *)
let max_length = 96

let to_string op =
  let b = Bytes.create max_length in
  let n =
    match op with
    | Store { addr; size; nt } -> write_store b 0 ~addr ~size ~nt
    | Flush { kind; line; dirty; volatile } -> write_flush b 0 kind ~line ~dirty ~volatile
    | Fence { kind; pending_flushes; pending_nt } ->
        write_fence b 0 kind ~pending_flushes ~pending_nt
    | Load { addr; size } -> write_load b 0 ~addr ~size
  in
  Bytes.sub_string b 0 n

let is_persistency_instruction = function
  | Flush _ | Fence _ -> true
  | Store _ | Load _ -> false
