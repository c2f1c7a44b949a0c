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

(* Decimal digits of [n] with no intermediate string and no closure;
   digits are taken from the non-positive side so [min_int] needs no
   special case. *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

let add_int buf n =
  if n < 0 then Buffer.add_char buf '-';
  add_digits buf (if n < 0 then n else -n)

(* The length of what [add_int] writes for [n]. *)
let int_length n =
  let rec digits m k = if m <= -10 then digits (m / 10) (k + 1) else k in
  (if n < 0 then 1 else 0) + digits (if n < 0 then n else -n) 1

let add_bool buf b = Buffer.add_string buf (if b then "true" else "false")

(* The op rendering, one writer per constructor taking the fields unboxed:
   {!to_string} and the trace digest (written straight from a packed trace
   arena) both go through these, so the format lives here only. *)
let add_store buf ~addr ~size ~nt =
  Buffer.add_string buf (if nt then "store.nt addr=" else "store addr=");
  add_int buf addr;
  Buffer.add_string buf " size=";
  add_int buf size

let add_flush buf kind ~line ~dirty ~volatile =
  Buffer.add_string buf (flush_kind_to_string kind);
  Buffer.add_string buf " line=";
  add_int buf line;
  Buffer.add_string buf " dirty=";
  add_bool buf dirty;
  Buffer.add_string buf " volatile=";
  add_bool buf volatile

let add_fence buf kind ~pending_flushes ~pending_nt =
  Buffer.add_string buf (fence_kind_to_string kind);
  Buffer.add_string buf " pending_flushes=";
  add_int buf pending_flushes;
  Buffer.add_string buf " pending_nt=";
  add_int buf pending_nt

let add_load buf ~addr ~size =
  Buffer.add_string buf "load addr=";
  add_int buf addr;
  Buffer.add_string buf " size=";
  add_int buf size

let to_string op =
  let buf = Buffer.create 48 in
  (match op with
  | Store { addr; size; nt } -> add_store buf ~addr ~size ~nt
  | Flush { kind; line; dirty; volatile } -> add_flush buf kind ~line ~dirty ~volatile
  | Fence { kind; pending_flushes; pending_nt } ->
      add_fence buf kind ~pending_flushes ~pending_nt
  | Load { addr; size } -> add_load buf ~addr ~size);
  Buffer.contents buf

let is_persistency_instruction = function
  | Flush _ | Fence _ -> true
  | Store _ | Load _ -> false
