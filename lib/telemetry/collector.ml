(** The global telemetry collector: nestable spans, counters and
    histograms, recorded into per-domain buffers and merged
    deterministically at {!drain} time.

    Off by default and provably inert: every recording entry point reads
    one atomic flag and returns immediately when disabled — [span name f]
    is exactly [f ()] — so an instrumented build with no sink configured
    behaves byte-identically to an uninstrumented one (the differential
    test in [test/test_telemetry.ml] asserts this on the seeded-bug
    matrix).

    Concurrency model: mirrors the parallel fault-injection engine. Each
    domain owns a private buffer (reached through [Domain.DLS], registered
    once under a mutex), so recording is contention-free; [drain] merges
    all buffers sorted by [(track, start, id)] — a deterministic order for
    any schedule, the same rule [Fault_injection] uses for its records. *)

type buffer = {
  track : int;  (** the owning domain's id *)
  mutable next_local : int;  (** local span-id allocator *)
  mutable open_spans : open_span list;  (** innermost first *)
  mutable spans : Span.t list;  (** completed, newest first *)
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

and open_span = {
  o_id : int;
  o_parent : int option;
  o_name : string;
  o_cat : string;
  o_args : (string * Json.t) list;
  o_start : int;
}

let enabled_flag = Atomic.make false
let main_track = Atomic.make 0
let registry_mu = Mutex.create ()
let registry : buffer list ref = ref []

let fresh_buffer () =
  let b =
    {
      track = (Domain.self () :> int);
      next_local = 0;
      open_spans = [];
      spans = [];
      counters = Hashtbl.create 16;
      histograms = Hashtbl.create 16;
    }
  in
  Mutex.lock registry_mu;
  registry := b :: !registry;
  Mutex.unlock registry_mu;
  b

let dls_key = Domain.DLS.new_key fresh_buffer

let enabled () = Atomic.get enabled_flag

(** Turn collection on. The calling domain becomes the main track (the
    lane Chrome-trace labels "main"). *)
let enable () =
  Atomic.set main_track (Domain.self () :> int);
  Atomic.set enabled_flag true

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

type handle = No_span | Open of buffer * int

let span_id track local = (track lsl 30) lor (local land ((1 lsl 30) - 1))

let begin_span ?(cat = "") ?(args = []) name =
  if not (Atomic.get enabled_flag) then No_span
  else begin
    let buf = Domain.DLS.get dls_key in
    let id = span_id buf.track buf.next_local in
    buf.next_local <- buf.next_local + 1;
    let parent = match buf.open_spans with [] -> None | o :: _ -> Some o.o_id in
    buf.open_spans <-
      { o_id = id; o_parent = parent; o_name = name; o_cat = cat; o_args = args;
        o_start = Clock.now_ns () }
      :: buf.open_spans;
    Open (buf, id)
  end

let observe_into buf name v =
  let h =
    match Hashtbl.find_opt buf.histograms name with
    | Some h -> h
    | None ->
        let h = Histogram.create () in
        Hashtbl.replace buf.histograms name h;
        h
  in
  Histogram.observe h v

let close_open buf ~end_ns ~extra_args (o : open_span) =
  {
    Span.id = o.o_id;
    parent = o.o_parent;
    track = buf.track;
    name = o.o_name;
    cat = o.o_cat;
    start_ns = o.o_start;
    dur_ns = max 0 (end_ns - o.o_start);
    args = o.o_args @ extra_args;
  }

(** [end_span ?args ?hist h] completes the span opened by [h], appending
    [args] to the ones given at [begin_span] time; with [hist] the span's
    duration is also recorded into that histogram. A handle from a
    disabled period, or one already swept up by {!drain}, is a no-op. *)
let end_span ?(args = []) ?hist = function
  | No_span -> ()
  | Open (buf, id) -> (
      match List.partition (fun o -> o.o_id = id) buf.open_spans with
      | [ o ], rest ->
          buf.open_spans <- rest;
          let s = close_open buf ~end_ns:(Clock.now_ns ()) ~extra_args:args o in
          buf.spans <- s :: buf.spans;
          (match hist with
          | Some name -> observe_into buf name s.Span.dur_ns
          | None -> ())
      | _ -> () (* already drained *))

(** [span ?cat ?args ?hist name f] runs [f] inside a span; the span closes
    even when [f] raises (fault injection unwinds with [Crash_now]
    constantly). When collection is off this is exactly [f ()]. *)
let span ?cat ?args ?hist name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let h = begin_span ?cat ?args name in
    Fun.protect ~finally:(fun () -> end_span ?hist h) f
  end

(** [count name n] adds [n] to counter [name] on this domain's buffer;
    buffers merge by summation at drain time. *)
let count name n =
  if Atomic.get enabled_flag then begin
    let buf = Domain.DLS.get dls_key in
    match Hashtbl.find_opt buf.counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace buf.counters name (ref n)
  end

(** [observe name ns] records one nanosecond sample into histogram
    [name]. *)
let observe name ns =
  if Atomic.get enabled_flag then observe_into (Domain.DLS.get dls_key) name ns

(* ------------------------------------------------------------------ *)
(* Draining                                                            *)
(* ------------------------------------------------------------------ *)

type dump = {
  spans : Span.t list;  (** sorted by (track, start, id) *)
  counters : (string * int) list;  (** summed across domains, sorted by name *)
  histograms : (string * Histogram.t) list;  (** merged across domains, sorted *)
  base_ns : int;  (** earliest span start; exporters rebase timestamps on it *)
  dump_main_track : int;  (** the track to label "main" *)
}

(** Collect and clear every domain's buffer. Spans still open (a drain in
    the middle of a phase) are closed at the drain timestamp so every
    recorded end has a begin and vice versa. Counters merge by sum,
    histograms by component-wise sum, spans sort by [(track, start, id)] —
    all order-insensitive, so the dump is deterministic regardless of how
    work was scheduled over domains. *)
let drain () =
  Mutex.lock registry_mu;
  let bufs = !registry in
  Mutex.unlock registry_mu;
  let now = Clock.now_ns () in
  let spans = ref [] in
  let counters : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let histograms : (string, Histogram.t) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun buf ->
      let closed =
        List.map (close_open buf ~end_ns:now ~extra_args:[]) buf.open_spans
      in
      spans := closed @ buf.spans @ !spans;
      buf.open_spans <- [];
      buf.spans <- [];
      Hashtbl.iter
        (fun name r ->
          Hashtbl.replace counters name
            (!r + Option.value ~default:0 (Hashtbl.find_opt counters name)))
        buf.counters;
      Hashtbl.reset buf.counters;
      Hashtbl.iter
        (fun name h ->
          match Hashtbl.find_opt histograms name with
          | Some acc -> Hashtbl.replace histograms name (Histogram.merge acc h)
          | None -> Hashtbl.replace histograms name (Histogram.copy h))
        buf.histograms;
      Hashtbl.reset buf.histograms)
    bufs;
  let spans =
    List.sort
      (fun (a : Span.t) (b : Span.t) ->
        compare
          (a.Span.track, a.Span.start_ns, a.Span.id)
          (b.Span.track, b.Span.start_ns, b.Span.id))
      !spans
  in
  let base_ns =
    List.fold_left (fun acc (s : Span.t) -> min acc s.Span.start_ns) max_int spans
  in
  {
    spans;
    counters =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    histograms =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) histograms []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    base_ns = (if base_ns = max_int then 0 else base_ns);
    dump_main_track = Atomic.get main_track;
  }

(** Turn collection off and discard anything buffered. *)
let disable () =
  Atomic.set enabled_flag false;
  ignore (drain ())
