(** Glue between a {!Pmem.Device} and the listeners that watch an
    instrumented run: the Pin-tool analogue. A tracer owns the call stack
    the application pushes frames onto, assigns instruction counters, and
    hands every event to its listeners (the fault injector attaches one to
    watch for failure points). A recording's trace is written by
    {!Replay.record}, not by a tracer. *)

type t = {
  device : Pmem.Device.t;
  stack : Callstack.t;
  mutable seq : int;
  mutable listeners : (Event.t -> Callstack.t -> unit) list;
}

let create device =
  let t = { device; stack = Callstack.create (); seq = 0; listeners = [] } in
  Pmem.Device.set_hook device
    (Some
       (fun op ->
         t.seq <- t.seq + 1;
         Callstack.tick t.stack ~load:(match op with Pmem.Op.Load _ -> true | _ -> false);
         let event = { Event.seq = t.seq; op; stack = None } in
         List.iter (fun l -> l event t.stack) t.listeners));
  t

let device t = t.device
let stack t = t.stack
let seq t = t.seq

let detach t =
  (* raw instrumented events this tracer saw, summed over all executions of
     a run (the engine's "ta.events" counts trace-analysis input only) *)
  Telemetry.Collector.count "trace.events" t.seq;
  Pmem.Device.set_hook t.device None

let add_listener t l = t.listeners <- t.listeners @ [ l ]

(** Re-attach call stacks to a stack-less trace by re-running the same
    deterministic execution with minimal instrumentation: [run] must repeat
    the exact original execution against [t.device]. Events whose [seq]
    appears in [wanted] get their stacks captured; the resolved captures are
    returned indexed by [seq]. This mirrors the instruction-counter
    optimisation of paper section 5. *)
let resolve_stacks t ~wanted ~run =
  let want = Hashtbl.create (List.length wanted) in
  List.iter (fun s -> Hashtbl.replace want s ()) wanted;
  let resolved = Hashtbl.create (List.length wanted) in
  let saved_seq = t.seq in
  t.seq <- 0;
  let listener event stack =
    if Hashtbl.mem want event.Event.seq then
      Hashtbl.replace resolved event.Event.seq (Callstack.capture stack)
  in
  t.listeners <- t.listeners @ [ listener ];
  Fun.protect
    ~finally:(fun () ->
      (* the re-run's events count as seen, as [detach] counts the rest *)
      Telemetry.Collector.count "trace.events" t.seq;
      t.listeners <- List.filter (fun l -> l != listener) t.listeners;
      t.seq <- saved_seq)
    run;
  resolved
