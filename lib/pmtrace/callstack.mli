(** Explicit call stacks, the analogue of Pin's filtered backtraces.

    Applications under test wrap each function body in {!with_frame}; within
    one frame activation the PM instructions are numbered, and the pair
    (frame path, instruction index inside the innermost frame) is this
    reproduction's notion of an "instruction address": stable across
    repeated deterministic executions, like a code address with ASLR
    disabled (paper section 5). Every stack bottoms out in a permanent
    [_start] frame (Figure 2), so instructions outside application frames
    still get distinct identities. *)

type t

val root_label : string
(** ["_start"]. *)

val create : unit -> t

val depth : t -> int
(** Application frames currently on the stack (the root frame excluded). *)

val push : t -> string -> unit
val pop : t -> unit

val with_frame : t -> string -> (unit -> 'a) -> 'a
(** Push a frame for the duration of the callback (popped on exceptions
    too). *)

val tick : t -> load:bool -> unit
(** Advance the innermost frame's instruction counters; called by the
    tracer on every PM instruction, [load] telling whether it is a PM
    load. A frame counts every instruction and, separately, its non-load
    instructions. *)

(** A captured stack: outermost label first, with the innermost frame's
    instruction index as the "address" of the leaf instruction. *)
type capture = { path : string list; op_index : int }

val capture : t -> capture
(** The stack at the instruction ticked last. A load's [op_index] is its
    ordinal among all instructions of the activation; any other
    instruction's is its ordinal among the activation's non-load
    instructions, so stores, flushes and fences keep the address a
    load-free execution gives them when loads are traced too. The path is
    built once per activation, on its first capture, and shared by every
    later capture in it. *)

val path : t -> string list
(** {!capture}'s path, without building the capture. *)

val op_index : t -> int
(** {!capture}'s [op_index], without building the capture. *)

val capture_to_string : capture -> string
val capture_equal : capture -> capture -> bool
val capture_compare : capture -> capture -> int
val capture_hash : capture -> int
