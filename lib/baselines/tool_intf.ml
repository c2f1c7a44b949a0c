(** Common interface of the comparison tools (paper section 6.1).

    Every baseline re-implements its published approach against the same
    simulated substrate, doing the actual work its algorithm prescribes, so
    the relative analysis costs (Figure 4) and resource footprints (Table 2)
    reproduce the paper's shape. A wall-clock budget plays the role of the
    12-hour timeout; a tool that exhausts it returns partial results with
    [timed_out = true] (rendered as the ∞ bars).

    [tracking_words] approximates the peak size of the tool's own analysis
    structures (shadow memory, invariant tables, SE states) for the RAM
    column of Table 2. *)

type result = {
  tool : string;
  report : Mumak.Report.t;
  metrics : Mumak.Metrics.t;
  timed_out : bool;
  work_done : int;  (** units of work completed (tool-specific) *)
  work_total : int;  (** units the full analysis would need *)
  tracking_words : int;
  pm_overhead : float;  (** PM usage relative to the application's own, ×  *)
}

module type TOOL = sig
  val name : string

  val analyze : ?budget_s:float -> Mumak.Target.t -> result
  (** Analyse the target within the wall-clock budget (default 60 s). *)
end

(** Deadline helper shared by the tools. *)
type clock = { start : float; budget : float }

let clock ?(budget_s = 60.) () = { start = Unix.gettimeofday (); budget = budget_s }
let expired c = Unix.gettimeofday () -. c.start > c.budget

let run_instrumented ?(trace_loads = false) (target : Mumak.Target.t) ~listener =
  let device = Pmem.Device.create ~size:target.Mumak.Target.pool_size () in
  Pmem.Device.trace_loads device trace_loads;
  let tracer = Pmtrace.Tracer.create device in
  Pmtrace.Tracer.add_listener tracer listener;
  target.Mumak.Target.run ~device
    ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer));
  Pmtrace.Tracer.detach tracer;
  device
