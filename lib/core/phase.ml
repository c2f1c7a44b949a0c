(** The phase table: every step of an analysis runs through {!run}, which
    names it, shows it on the progress line, traces it as a ["phase"] span,
    measures it and counts the target executions it made. *)

type entry = { phase : Report.phase; metrics : Metrics.t; executions : int }

(* [runs] is atomic: injection workers execute the target on their own
   domains, inside the phase that spawned them. *)
type t = { runs : int Atomic.t; mutable entries : entry list (* newest first *) }

let create () = { runs = Atomic.make 0; entries = [] }

let counted t (target : Target.t) =
  {
    target with
    Target.run =
      (fun ~device ~framer ->
        Atomic.incr t.runs;
        target.Target.run ~device ~framer);
  }

let run t ?(workers = fun _ -> []) phase f =
  let name = Report.phase_to_string phase in
  let runs0 = Atomic.get t.runs in
  let v, m =
    Telemetry.Progress.phase ~injecting:(phase = Report.Fault_injection) name (fun () ->
        Metrics.measure (fun () -> Telemetry.Collector.span ~cat:"phase" name f))
  in
  t.entries <-
    {
      phase;
      metrics = Metrics.absorb_workers m (workers v);
      executions = Atomic.get t.runs - runs0;
    }
    :: t.entries;
  v

let entries t = List.rev t.entries
let total entries = Metrics.sum (List.map (fun e -> e.metrics) entries)
let executions entries = List.fold_left (fun n e -> n + e.executions) 0 entries

let to_json entries =
  let row m executions =
    Telemetry.Json.Assoc (Metrics.fields m @ [ ("executions", Telemetry.Json.Int executions) ])
  in
  Telemetry.Json.Assoc
    (("total", row (total entries) (executions entries))
    :: List.map (fun e -> (Report.phase_to_string e.phase, row e.metrics e.executions)) entries)
