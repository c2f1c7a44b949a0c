(** The failure-point tree (paper section 4.1 and Figure 2).

    Each root-to-leaf path is a unique call stack leading to a failure
    point; a leaf additionally carries the per-frame instruction index that
    distinguishes, say, line 2 from line 3 of the same function. One fault
    is injected per leaf. Injection only reads a built tree, so its worker
    domains share one. *)

type point = {
  capture : Pmtrace.Callstack.capture;
  ordinal : int;  (** discovery order, stable across runs *)
}

type t

val create : unit -> t
val size : t -> int

val insert : t -> Pmtrace.Callstack.capture -> [ `Added of point | `Existing of point ]
(** Add a failure point if its path is new. *)

val find : t -> Pmtrace.Callstack.capture -> point option
(** Membership lookup — the hot operation of the injection phase. *)

val points : t -> point list
(** All points in discovery order. *)
