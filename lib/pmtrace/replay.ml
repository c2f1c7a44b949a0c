(** Deterministic trace replay: re-apply a recorded execution (optionally
    rewritten) against a fresh device, reproducing the device statistics,
    crash images and failure points of the original run without re-running
    the target program.

    A recorded {!Event.t} stream is not self-contained: events carry
    addresses and sizes but no store payloads, and allocator poison
    ({!Pmem.Device.poison}) is deliberately invisible to instrumentation.
    {!record} therefore captures two side-channels alongside the trace:

    - {e payloads}: the recorder copies every store's bytes from the device
      straight into its payload slab ({!Arena.Slab.snoop}) at the next
      instrumentation hook — the hook runs before its own instruction takes
      effect, so by then the previous store (and nothing later) has been
      applied;
    - {e poison}: the device logs each poison call with the number of
      events emitted before it, letting the recorder weave poison back
      between the right events.

    The recorder is the arena's only writer: its one device hook ticks the
    call stack and appends the event's packed fields to the {!Arena}, and
    the pending store is three integers. Payloads live in an {!Arena.Slab}
    (one growing byte buffer, indexed by event position) instead of one
    heap [bytes] per store. A recording is immutable once built, so
    concurrent replays from several domains may share it.

    One known approximation: a poison overlapping a store that is still
    pending payload resolution snoops the poisoned bytes. For cached
    stores the replayed poison re-applies the same bytes immediately
    after, so images agree anyway; only a non-temporal store whose buffered
    payload is poisoned before the next event could diverge — a pattern
    the allocator (which only poisons freshly carved, not-yet-stored-to
    chunks) never produces. *)

type t = {
  trace : Arena.t;  (** recorded events, packed, execution order *)
  poison : (int * int * int) list;
      (** (events emitted before the poison, addr, size), oldest first *)
  payloads : Arena.Slab.slab;  (** store event position -> bytes written *)
  pool_size : int;
  eadr : bool;
  loads : bool;  (** the recording traced PM loads *)
  stats : Pmem.Stats.t;  (** device counters at the end of the recorded run *)
}

type item = Ev of Event.t | Poison of { addr : int; size : int }

let events t = Arena.to_list t.trace
let length t = Arena.length t.trace
let event t i = Arena.get t.trace i
let arena t = t.trace
let digest t = Arena.digest t.trace
let stats t = t.stats
let pool_size t = t.pool_size
let poison_log t = t.poison

let payload t i =
  match Arena.kind t.trace i with
  | Arena.Store when Arena.Slab.mem t.payloads i ->
      Some (Arena.Slab.read t.payloads ~pos:i ~size:(Arena.size t.trace i))
  | _ -> None

(* Stream the recording in execution order with the poison entries woven
   back between events: a poison logged after [c] events precedes the
   event with seq [c + 1]. *)
let iter_items t f =
  let poisons = ref t.poison in
  let rec before seq =
    match !poisons with
    | (c, addr, size) :: rest when c < seq ->
        poisons := rest;
        f (Poison { addr; size });
        before seq
    | _ -> ()
  in
  Arena.iter t.trace (fun e ->
      before e.Event.seq;
      f (Ev e));
  List.iter (fun (_, addr, size) -> f (Poison { addr; size })) !poisons

let items t =
  let out = ref [] in
  iter_items t (fun it -> out := it :: !out);
  List.rev !out

let of_events ?(loads = false) ?(eadr = false) ~pool_size evs =
  let trace = Arena.create ~capacity:(List.length evs) () in
  List.iter (Arena.add trace) evs;
  {
    trace;
    poison = [];
    payloads = Arena.Slab.create ~capacity:64 ();
    pool_size;
    eadr;
    loads;
    stats = Pmem.Stats.create ();
  }

let record ?(loads = false) ?(eadr = false) ~pool_size run =
  Telemetry.Collector.span ~cat:"replay" "record" @@ fun () ->
  let device = Pmem.Device.create ~eadr ~size:pool_size () in
  Pmem.Device.trace_loads device loads;
  let stack = Callstack.create () in
  let trace = Arena.create () and payloads = Arena.Slab.create () in
  (* the store whose bytes are not in the slab yet: its position (-1 for
     none), address and size *)
  let pending = ref (-1) and pending_addr = ref 0 and pending_size = ref 0 in
  let resolve () =
    if !pending >= 0 then begin
      Arena.Slab.snoop payloads ~pos:!pending device ~addr:!pending_addr ~size:!pending_size;
      pending := -1
    end
  in
  Pmem.Device.set_hook device
    (Some
       (fun op ->
         (* the hook runs before [op] takes effect: the previous store has
            been applied, the current one has not *)
         resolve ();
         Callstack.tick stack ~load:(match op with Pmem.Op.Load _ -> true | _ -> false);
         let pos = Arena.length trace in
         Arena.add_op trace ~seq:(pos + 1) op ~path:(Callstack.path stack)
           ~op_index:(Callstack.op_index stack);
         match op with
         | Pmem.Op.Store { addr; size; _ } ->
             pending := pos;
             pending_addr := addr;
             pending_size := size
         | _ -> ()));
  run ~device ~framer:(Framer.of_callstack stack);
  resolve ();
  Pmem.Device.set_hook device None;
  Telemetry.Collector.count "trace.events" (Arena.length trace);
  {
    trace;
    poison = Pmem.Device.poison_log device;
    payloads;
    pool_size;
    eadr;
    loads;
    stats = Pmem.Stats.copy (Pmem.Device.stats device);
  }

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

exception Stop

let apply t device ~pos (e : Event.t) =
  match e.Event.op with
  | Pmem.Op.Store { addr; size; nt } ->
      (* no payload recorded: zero fill *)
      let b = Arena.Slab.read t.payloads ~pos ~size in
      if nt then Pmem.Device.store_nt device ~addr b
      else Pmem.Device.store device ~addr b
  | Pmem.Op.Flush { kind; line; volatile; _ } ->
      (* dirty is recomputed by the device; line/volatile are properties of
         the flushed address, which no rewrite changes *)
      Pmem.Device.flush_line device ~kind ~line ~volatile
  | Pmem.Op.Fence { kind; _ } -> (
      match kind with
      | Pmem.Op.Sfence -> Pmem.Device.sfence device
      | Pmem.Op.Mfence -> Pmem.Device.mfence device
      | Pmem.Op.Rmw -> Pmem.Device.rmw_fence device)
  | Pmem.Op.Load { addr; size } -> ignore (Pmem.Device.load device ~addr ~size)

(* The single interpreter loop behind [replay] and [pass]. [on_event]
   fires {e before} the event is applied — the hook discipline of the live
   device, so a crash image captured there is the state a fault at that
   instruction leaves behind. [pseq] is the persistency index (1-based
   count of non-load events, the coordinate system of the offline
   analyses). [fingerprint] makes the device keep its fingerprint. *)
let run ?hook ?on_event ?after_event ?fingerprint t =
  let device = Pmem.Device.create ~eadr:t.eadr ?fingerprint ~size:t.pool_size () in
  Pmem.Device.trace_loads device t.loads;
  (match hook with Some h -> Pmem.Device.set_hook device (Some h) | None -> ());
  let pseq = ref 0 and pos = ref 0 in
  (try
     iter_items t (fun item ->
         match item with
         | Poison { addr; size } -> Pmem.Device.poison device ~addr ~size
         | Ev e ->
             (match e.Event.op with Pmem.Op.Load _ -> () | _ -> incr pseq);
             (match on_event with Some f -> f device ~pseq:!pseq e | None -> ());
             apply t device ~pos:!pos e;
             incr pos;
             (match after_event with Some f -> f e | None -> ()))
   with Stop -> ());
  device

let replay ?on_event t =
  Telemetry.Collector.span ~cat:"replay" ~hist:"replay_ns" "replay" @@ fun () ->
  run ?on_event t

(* Batched, prefix-incremental crash-image materializer: one forward pass
   rolls a single prefix image through the recording, so the image prefix
   two consecutive failure points share is applied once instead of being
   rebuilt from scratch per point; each wanted image is handed to [f] the
   moment its pseq is reached and never retained here.

   The pass interprets stores only. Mumak's crash images are
   [Program_prefix] — every store issued before the failure point
   persists — so the image at any point is exactly the recorded store
   payloads (and allocator poison) applied in order, and flushes, fences
   and loads cannot move bytes the view doesn't already show. The pass
   reads the packed slots (kind, seq, address, size) and decodes no
   event; a store's payload is blitted from the slab into the prefix.
   Per point, a zero-copy {!Pmem.Image.cow} view of the rolling prefix:
   the oracle's recovery run pays for the pages it touches instead of two
   full-pool copies. Each view reads through the shared prefix, so it is
   valid only until [f] returns.

   The points are visited in pseq order, through a sorted array and a
   cursor. A point is checked at every event, loads included, once the
   event's pseq is counted: one whose pseq the pass has gone past is never
   reached. *)
let materialize t ~points ~f =
  Telemetry.Collector.span ~cat:"replay" ~hist:"replay_ns" "materialize" @@ fun () ->
  let wanted = Array.of_list points in
  Array.stable_sort (fun (_, p) (_, q) -> Int.compare p q) wanted;
  let n = Array.length wanted and next = ref 0 and unreached = ref [] in
  if n > 0 then begin
    let trace = t.trace in
    let prefix = Pmem.Image.create ~size:t.pool_size in
    (* a poison logged after [c] events precedes the event with seq [c + 1] *)
    let poisons = ref t.poison in
    let rec poison_before seq =
      match !poisons with
      | (c, addr, size) :: rest when c < seq ->
          poisons := rest;
          Pmem.Image.write prefix ~addr (Bytes.make size '\xdd');
          poison_before seq
      | _ -> ()
    in
    let len = Arena.length trace and pseq = ref 0 and i = ref 0 in
    while !next < n && !i < len do
      let pos = !i in
      poison_before (Arena.seq trace pos);
      let kind = Arena.kind trace pos in
      (match kind with Arena.Load -> () | Arena.Store | Arena.Flush | Arena.Fence -> incr pseq);
      while !next < n && snd wanted.(!next) < !pseq do
        unreached := fst wanted.(!next) :: !unreached;
        incr next
      done;
      while !next < n && snd wanted.(!next) = !pseq do
        let key = fst wanted.(!next) in
        incr next;
        let image =
          Telemetry.Collector.span ~cat:"replay" ~hist:"crash_image_ns"
            ~args:[ ("key", Telemetry.Json.Int key) ]
            "crash_image" (fun () -> Pmem.Image.cow prefix)
        in
        f ~key image
      done;
      (match kind with
      | Arena.Store ->
          Arena.Slab.blit_to_image t.payloads ~pos ~size:(Arena.size trace pos) prefix
            ~addr:(Arena.addr trace pos)
      | Arena.Flush | Arena.Fence | Arena.Load -> ());
      incr i
    done
  end;
  for j = !next to n - 1 do
    unreached := fst wanted.(j) :: !unreached
  done;
  List.rev !unreached

(* Field-wise statistics comparison. [loads] only when the recording traced
   loads: an untraced recording still counts the program's loads (including
   the internal reads of [cas]/[fetch_add]) in the original run, but leaves
   no events for replay to re-apply. *)
let stats_match t (s : Pmem.Stats.t) =
  let r = t.stats in
  r.Pmem.Stats.stores = s.Pmem.Stats.stores
  && r.Pmem.Stats.nt_stores = s.Pmem.Stats.nt_stores
  && ((not t.loads) || r.Pmem.Stats.loads = s.Pmem.Stats.loads)
  && r.Pmem.Stats.clflush = s.Pmem.Stats.clflush
  && r.Pmem.Stats.clflushopt = s.Pmem.Stats.clflushopt
  && r.Pmem.Stats.clwb = s.Pmem.Stats.clwb
  && r.Pmem.Stats.sfence = s.Pmem.Stats.sfence
  && r.Pmem.Stats.mfence = s.Pmem.Stats.mfence
  && r.Pmem.Stats.rmw = s.Pmem.Stats.rmw
  && r.Pmem.Stats.bytes_written = s.Pmem.Stats.bytes_written
  && r.Pmem.Stats.high_water_mark = s.Pmem.Stats.high_water_mark

(* ------------------------------------------------------------------ *)
(* Rewriting                                                           *)
(* ------------------------------------------------------------------ *)

type edit =
  | Insert_flush_after of { pseq : int; line : int }
  | Insert_fence_after of { pseq : int }
  | Delete_flush_at of { pseq : int }
  | Delete_fence_at of { pseq : int }
  | Move_flush_to of { pseq : int; to_pseq : int }
  | Set_store_nt of { pseq : int }
  | Set_flush_kind of { pseq : int; kind : Pmem.Op.flush_kind }

let edit_to_string = function
  | Insert_flush_after { pseq; line } ->
      Printf.sprintf "insert flush of line %d after #%d" line pseq
  | Insert_fence_after { pseq } -> Printf.sprintf "insert fence after #%d" pseq
  | Delete_flush_at { pseq } -> Printf.sprintf "delete flush at #%d" pseq
  | Delete_fence_at { pseq } -> Printf.sprintf "delete fence at #%d" pseq
  | Move_flush_to { pseq; to_pseq } ->
      Printf.sprintf "move flush at #%d to after #%d" pseq to_pseq
  | Set_store_nt { pseq } -> Printf.sprintf "make store at #%d non-temporal" pseq
  | Set_flush_kind { pseq; kind } ->
      Printf.sprintf "convert flush at #%d to %s" pseq (Pmem.Op.flush_kind_to_string kind)

let edit_anchor = function
  | Insert_flush_after { pseq; _ }
  | Insert_fence_after { pseq }
  | Delete_flush_at { pseq }
  | Delete_fence_at { pseq }
  | Move_flush_to { pseq; _ }
  | Set_store_nt { pseq }
  | Set_flush_kind { pseq; _ } -> pseq

(* Synthesized events get placeholder negative seqs (renumbered away by
   the rewrite) and no stack: the offline failure-point detector skips
   stackless events, so an inserted instruction never mints new failure
   points — it only changes which states the surrounding ones can
   observe. A {e moved} event, by contrast, is the recorded instruction
   itself repositioned: it keeps its stack (and so its failure-point
   identity) and is re-judged at its new position by whoever replays the
   rewritten trace. *)
let rewrite_items items edits =
  let synth = ref 0 in
  let fresh_seq () = decr synth; !synth in
  let applied = Hashtbl.create (List.length edits) in
  let mark ed = Hashtbl.replace applied (edit_to_string ed) () in
  List.iter
    (function
      | Move_flush_to { pseq; to_pseq } when to_pseq < pseq ->
          Fmt.failwith "Replay.rewrite: cannot move #%d backwards to #%d" pseq to_pseq
      | _ -> ())
    edits;
  let at p =
    List.filter (fun ed -> edit_anchor ed = p) edits
    (* flush-before-fence: an Insert_flush fix expands to flush + fence and
       the flush must precede the fence that drains it *)
    |> List.stable_sort (fun a b ->
           let rank = function
             | Set_store_nt _ | Set_flush_kind _ -> 0
             | Delete_flush_at _ | Delete_fence_at _ | Move_flush_to _ -> 1
             | Insert_flush_after _ -> 2
             | Insert_fence_after _ -> 3
           in
           compare (rank a) (rank b))
  in
  let synth_of = function
    | Insert_flush_after { line; _ } ->
        Some
          (Ev
             {
               Event.seq = fresh_seq ();
               op = Pmem.Op.Flush { kind = Pmem.Op.Clwb; line; dirty = true; volatile = false };
               stack = None;
             })
    | Insert_fence_after _ ->
        Some
          (Ev
             {
               Event.seq = fresh_seq ();
               op = Pmem.Op.Fence { kind = Pmem.Op.Sfence; pending_flushes = 0; pending_nt = 0 };
               stack = None;
             })
    | Delete_flush_at _ | Delete_fence_at _ | Move_flush_to _ | Set_store_nt _
    | Set_flush_kind _ -> None
  in
  (* in-flight moves: destination anchor -> captured events, kept in source
     order so simultaneous landings are deterministic *)
  let landings : (int, (int * edit * item) list) Hashtbl.t = Hashtbl.create 8 in
  let pseq = ref 0 in
  let out = ref [] in
  let push x = out := x :: !out in
  List.iter
    (fun item ->
      match item with
      | Poison _ -> push item
      | Ev (({ Event.op = Pmem.Op.Load _; _ } as _e)) -> push item
      | Ev e ->
          incr pseq;
          (* edits anchor on the persistency index, which loads don't
             advance: consulting [at] on a load would re-apply the previous
             anchor's insertions once per trailing load *)
          let here = at !pseq in
          (* in-place conversions first, so a converted event is what a
             delete or move at the same anchor would consume *)
          let e =
            List.fold_left
              (fun (e : Event.t) ed ->
                match (ed, e.Event.op) with
                | Set_store_nt _, Pmem.Op.Store { addr; size; nt = false } ->
                    mark ed;
                    { e with Event.op = Pmem.Op.Store { addr; size; nt = true } }
                | Set_store_nt _, Pmem.Op.Store { nt = true; _ } ->
                    mark ed;
                    e (* already non-temporal: idempotent *)
                | Set_flush_kind { kind; _ }, Pmem.Op.Flush { line; dirty; volatile; _ } ->
                    mark ed;
                    { e with Event.op = Pmem.Op.Flush { kind; line; dirty; volatile } }
                | _ -> e)
              e here
          in
          let deleted =
            List.exists
              (fun ed ->
                match (ed, e.Event.op) with
                | Delete_flush_at _, Pmem.Op.Flush _ | Delete_fence_at _, Pmem.Op.Fence _ ->
                    mark ed;
                    true
                | _ -> false)
              here
          in
          let moved =
            (not deleted)
            && List.exists
                 (fun ed ->
                   match (ed, e.Event.op) with
                   | Move_flush_to { to_pseq; _ }, Pmem.Op.Flush _ ->
                       let prior =
                         Option.value ~default:[] (Hashtbl.find_opt landings to_pseq)
                       in
                       Hashtbl.replace landings to_pseq (prior @ [ (!pseq, ed, Ev e) ]);
                       true
                   | _ -> false)
                 here
          in
          if (not deleted) && not moved then push (Ev e);
          (* moved-in events land before synthesized insertions, so a flush
             moved here is drained by a fence inserted at the same anchor *)
          (match Hashtbl.find_opt landings !pseq with
          | Some l ->
              Hashtbl.remove landings !pseq;
              List.iter
                (fun (_, ed, it) ->
                  mark ed;
                  push it)
                (List.sort (fun (a, _, _) (b, _, _) -> compare a b) l)
          | None -> ());
          List.iter
            (fun ed ->
              match synth_of ed with
              | Some s ->
                  mark ed;
                  push s
              | None -> ())
            here)
    items;
  List.iter
    (fun ed ->
      if not (Hashtbl.mem applied (edit_to_string ed)) then
        Fmt.failwith "Replay.rewrite: edit did not apply: %s" (edit_to_string ed))
    edits;
  List.rev !out

(* Reassign consecutive 1-based seqs after a rewrite, packing the edited
   stream into a fresh arena/slab/poison log, so the rewritten trace
   satisfies the same invariant a recorded one does (seq = emission index;
   for load-free traces, seq = persistency index). The offline analyses
   index stacks by seq, so leaving original seqs in place would mis-anchor
   every event past an insertion. Store payload keys are remapped along
   (stores are never synthesized or deleted), and poison op-counts are
   recomputed from the item positions. *)
let repack t edited =
  let trace = Arena.create ~capacity:(Arena.length t.trace) () in
  let payloads = Arena.Slab.create ~capacity:(Arena.Slab.bytes_used t.payloads) () in
  let poison = ref [] in
  let n = ref 0 in
  List.iter
    (fun item ->
      match item with
      | Poison { addr; size } -> poison := (!n, addr, size) :: !poison
      | Ev e ->
          incr n;
          (* a recorded event's position is its seq - 1 *)
          (match e.Event.op with
          | Pmem.Op.Store { size; _ } ->
              Arena.Slab.copy t.payloads ~pos:(e.Event.seq - 1) ~size ~into:payloads
                ~at:(!n - 1)
          | _ -> ());
          Arena.add trace { e with Event.seq = !n })
    edited;
  { t with trace; payloads; poison = List.rev !poison }

let rewrite t edits =
  (* [stats] is kept from the original recording: a rewritten trace has
     different true counters, recomputed by whoever replays it *)
  repack t (rewrite_items (items t) edits)

let rewrite_events evs edits =
  let n = ref 0 in
  rewrite_items (List.map (fun e -> Ev e) evs) edits
  |> List.filter_map (function
       | Poison _ -> None
       | Ev e ->
           incr n;
           Some { e with Event.seq = !n })

(* A load-traced recording holds a load-free one: a non-load event's stack
   ordinal does not count loads ({!Callstack.capture}) and loads change no
   device state, so dropping them leaves the events, payloads, poison and
   statistics a load-free recording of the same execution holds, once
   [repack] renumbers seqs and remaps payload keys and poison positions. *)
let load_free t =
  if not t.loads then t
  else
    repack { t with loads = false }
      (List.filter
         (function Ev { Event.op = Pmem.Op.Load _; _ } -> false | Ev _ | Poison _ -> true)
         (items t))

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

(* After a rewrite the recorded per-event metadata is stale: a fence's
   [pending_flushes] still counts a deleted flush, a flush's [dirty] bit
   predates an inserted one. Replaying the stream and capturing what the
   device re-emits yields the same events with metadata recomputed —
   every driven event emits exactly one op, so the streams zip. On an
   unmodified recording this is the identity (the replay-lossless
   property the tests assert). [on_event] rides the same interpretation,
   so a verifier gets crash images and normalized events from one
   replay, and the device keeps its fingerprint, so the verifier can
   tell the images it has already judged. *)
let pass ?on_event t =
  let out = ref [] in
  let current = ref None in
  let hook op = current := Some op in
  let after_event (e : Event.t) =
    match !current with
    | Some op ->
        current := None;
        out := { e with Event.op } :: !out
    | None -> Fmt.failwith "Replay.normalize: event #%d re-emitted nothing" e.Event.seq
  in
  let device = run ~hook ?on_event ~after_event ~fingerprint:true t in
  Pmem.Device.set_hook device None;
  (List.rev !out, device)

let normalize t = fst (pass t)

let normalize_events ?(loads = false) ?(eadr = false) ~pool_size evs =
  normalize (of_events ~loads ~eadr ~pool_size evs)
