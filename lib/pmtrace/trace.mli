(** An in-memory trace of PM accesses, collected during one execution of the
    workload and consumed in a single pass by the analyses. Storage is an
    {!Arena}: packed integer records with interned call paths, decoded back
    into {!Event.t} values on access. *)

type t

val create : unit -> t

val add : t -> Event.t -> unit
(** Append one event (O(1); the trace keeps insertion order). *)

val length : t -> int

val iter : t -> (Event.t -> unit) -> unit
(** [iter t f] applies [f] to every event in execution order. *)

val fold : t -> 'a -> ('a -> Event.t -> 'a) -> 'a
(** [fold t init f] folds over events in execution order. *)

val to_list : t -> Event.t list
(** Events in execution order. *)

val serialize : t -> string
(** [serialize t] renders the trace, one event per line, in execution
    order — the analogue of the trace file the original Mumak writes
    between the tracing and analysis processes. Stacks (when collected)
    round-trip. *)

val deserialize : string -> t
(** [deserialize s] rebuilds a trace serialized by {!serialize}. Raises
    [Failure] on malformed input. *)

val event_to_line : Event.t -> string
(** The per-event line codec behind {!serialize}/{!deserialize}, exposed so
    the property tests can check the arena-backed round-trip against a
    plain list-backed one. *)

val event_of_line : string -> Event.t
