(** Live progress reporter for the injection loop: a single stderr line
    redrawn in place with injections/sec, ETA, and a first-bug marker.

    TTY-aware: with [--progress] on a terminal the line is redrawn with
    [\r]; when stderr is redirected the reporter stays completely silent
    (no partial lines polluting logs). Inert unless {!activate}d — the
    tick path is one atomic read when off.

    Ticks arrive from whichever domain performed the injection (the
    parallel engine's workers call {!tick} directly), so all state is
    atomic and rendering is rate-limited and mutex-protected. *)

let active = Atomic.make false
let total = Atomic.make 0
let done_count = Atomic.make 0
let bug_count = Atomic.make 0
let first_bug = Atomic.make 0 (* tick ordinal of the first bug; 0 = none yet *)

(* The injecting phase's start and end, which time the rate and the ETA;
   each reads 0 until that boundary is reached. *)
let start_ns = Atomic.make 0
let stop_ns = Atomic.make 0
let last_render_ns = Atomic.make 0
let rendered = Atomic.make false
let render_mu = Mutex.create ()
let phase_name = ref "" (* written under render_mu *)

let min_render_interval_ns = 50_000_000 (* 20 Hz cap *)

let is_tty = lazy (Unix.isatty Unix.stderr)

let activate () =
  Atomic.set total 0;
  Atomic.set done_count 0;
  Atomic.set bug_count 0;
  Atomic.set first_bug 0;
  Atomic.set start_ns 0;
  Atomic.set stop_ns 0;
  Atomic.set last_render_ns 0;
  Atomic.set rendered false;
  Atomic.set active true

let render_line () =
  let d = Atomic.get done_count and t = Atomic.get total in
  let elapsed =
    match (Atomic.get start_ns, Atomic.get stop_ns) with
    | 0, _ -> 0.
    | start, 0 -> Clock.elapsed_s start (Clock.now_ns ())
    | start, stop -> Clock.elapsed_s start stop
  in
  let rate = if elapsed > 0. then float_of_int d /. elapsed else 0. in
  let eta =
    if t > 0 && rate > 0. && d < t then
      Printf.sprintf " eta %.1fs" (float_of_int (t - d) /. rate)
    else ""
  in
  let frac = if t > 0 then Printf.sprintf "/%d (%.0f%%)" t (100. *. float_of_int d /. float_of_int t) else "" in
  let bug =
    match Atomic.get first_bug with
    | 0 -> ""
    | n -> Printf.sprintf " first-bug@#%d (%d bug%s)" n (Atomic.get bug_count)
             (if Atomic.get bug_count = 1 then "" else "s")
  in
  Mutex.lock render_mu;
  let phase = if !phase_name = "" then "" else Printf.sprintf "[%s] " !phase_name in
  Printf.eprintf "\r\027[2K[mumak] %sinjections %d%s %.1f/s%s%s" phase d frac rate eta bug;
  flush stderr;
  Atomic.set rendered true;
  Mutex.unlock render_mu

let maybe_render () =
  if Lazy.force is_tty then begin
    let now = Clock.now_ns () in
    let last = Atomic.get last_render_ns in
    if now - last >= min_render_interval_ns
       && Atomic.compare_and_set last_render_ns last now
    then render_line ()
  end

(** Run [f] as the named pipeline phase, shown as the progress line's
    prefix; the [injecting] phase's start and end time the rate and the
    ETA. *)
let phase ?(injecting = false) name f =
  if not (Atomic.get active) then f ()
  else begin
    Mutex.lock render_mu;
    phase_name := name;
    Mutex.unlock render_mu;
    if injecting then begin
      Atomic.set stop_ns 0;
      Atomic.set start_ns (Clock.now_ns ())
    end;
    maybe_render ();
    Fun.protect f ~finally:(fun () -> if injecting then Atomic.set stop_ns (Clock.now_ns ()))
  end

(** Total injections expected (the failure-point count, set by the
    injection schedule of either strategy), for percentage and ETA; while
    unset the line shows a plain counter. *)
let set_total n = if Atomic.get active then Atomic.set total n

(** One injection completed; [bug] marks oracle-flagged faults so the
    first one's position is pinned on the line. *)
let tick ?(bug = false) () =
  if Atomic.get active then begin
    let n = 1 + Atomic.fetch_and_add done_count 1 in
    if bug then begin
      ignore (Atomic.fetch_and_add bug_count 1);
      ignore (Atomic.compare_and_set first_bug 0 n)
    end;
    maybe_render ()
  end

(** Close out the live line (forces a final render and a newline when
    anything was drawn) and deactivate. *)
let finish () =
  if Atomic.get active then begin
    if Lazy.force is_tty then render_line ();
    if Atomic.get rendered then begin
      Printf.eprintf "\n";
      flush stderr
    end;
    Atomic.set active false
  end
