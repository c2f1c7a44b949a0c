(** The phase table: every step of an analysis runs through {!run}, which
    names it, shows it on the progress line, traces it as a ["phase"] span,
    measures it and counts the target executions it made. The table is the
    single source of an analysis's timing, allocation and execution
    figures; totals are its sums. *)

type entry = {
  phase : Report.phase;
  metrics : Metrics.t;
      (** wall and CPU time and exact allocation, the worker domains'
          allocation included *)
  executions : int;  (** target executions made while the phase ran *)
}

type t
(** The table one analysis fills, in the order its phases run. *)

val create : unit -> t

val counted : t -> Target.t -> Target.t
(** The target whose every [run], on any domain, counts as an execution
    of the phase running at the time. *)

val run : t -> ?workers:('a -> Metrics.t list) -> Report.phase -> (unit -> 'a) -> 'a
(** [run t phase f] runs [f] as [phase] and appends its entry to [t].
    [workers] reads the per-domain measurements of the worker domains [f]
    ran: GC counters are domain-local, so their allocation is added to
    the calling domain's. The [Fault_injection] phase is the one whose
    span times the progress line's injection rate. *)

val entries : t -> entry list

val total : entry list -> Metrics.t
val executions : entry list -> int

val to_json : entry list -> Telemetry.Json.t
(** The encoding the run ledger and the bench envelopes share: ["total"]
    first, then each phase under {!Report.phase_to_string}, each a
    {!Metrics.to_json} object extended with ["executions"]. *)
