(* Trace analysis (paper section 4.2), the five patterns of the interface,
   as a view over the streaming persistency fold ({!Analysis.Persist_fold}):
   events are consumed as the instrumented run ([feed]) or the replay walk
   ([step]) produces them, so the trace need not be stored. *)

module Fold = Analysis.Persist_fold

type raw = { kind : Report.kind; seq : int; detail : string }

type t = {
  config : Config.t;
  fold : Fold.t;
  trace : Pmtrace.Arena.t option;
  dedupe : bool;  (* each finding's code path is known: report it once *)
  seen : unit Pmem.Int_table.t;  (* (code, kind) of every finding reported *)
  mutable findings : raw list; (* newest first *)
  mutable events : int;
}

(* A finding's code path is its event's stack, which the report keys it
   on, so only a run that attaches stacks can drop the later instances. *)
let create ?trace config =
  { config; fold = Fold.create ~residue:true (); trace;
    dedupe = Option.is_some trace && config.Config.resolve_stacks;
    seen = Pmem.Int_table.create 64; findings = []; events = 0 }

let kind_tag = function
  | Report.Redundant_flush -> 0
  | Report.Redundant_fence -> 1
  | Report.Multi_store_flush_warning -> 2
  | Report.Unordered_flushes_warning -> 3
  | Report.Durability_bug -> 4
  | Report.Transient_data_warning -> 5
  | k -> invalid_arg ("Trace_analysis: reports no " ^ Report.kind_to_string k)

(* Is this the first finding of [kind] at code path [code]? Always, when
   the code is unknown (0). *)
let first t kind code =
  code = 0
  ||
  let key = (code lsl 3) lor kind_tag kind in
  (not (Pmem.Int_table.mem t.seen key)) && (Pmem.Int_table.add t.seen key (); true)

let report t kind seq detail = t.findings <- { kind; seq; detail } :: t.findings

(* The patterns, one function per kind of event, from its fields; [code]
   is the event's stack code, 0 when unknown. *)
let load t = t.events <- t.events + 1

let store t ~seq ~addr ~size ~nt =
  t.events <- t.events + 1;
  ignore (Fold.store t.fold ~seq ~addr ~size ~nt)

let flush t ~seq ~code kind ~line ~dirty ~volatile =
  t.events <- t.events + 1;
  match Fold.flush t.fold kind ~line ~dirty ~volatile with
  | Fold.Dirty_flush ->
      (* a dirty flush, the only kind that is not redundant *)
      let stores = Fold.captured_stores t.fold in
      if stores > 1 && first t Report.Multi_store_flush_warning code then
        report t Report.Multi_store_flush_warning seq
          (Printf.sprintf "one flush of line %d covers %d stores" line stores)
  | step ->
      if first t Report.Redundant_flush code then
        Option.iter (report t Report.Redundant_flush seq) (Fold.flush_redundancy step ~line)

let fence t ~seq ~code ~pending_flushes ~pending_nt =
  t.events <- t.events + 1;
  ignore (Fold.fence t.fold);
  match Fold.fence_redundancy ~pending_flushes ~pending_nt with
  | Some detail ->
      if first t Report.Redundant_fence code then report t Report.Redundant_fence seq detail
  | None ->
      if pending_flushes + pending_nt > 1 && first t Report.Unordered_flushes_warning code then
        report t Report.Unordered_flushes_warning seq
          (Printf.sprintf
             "fence orders %d flushes and %d NT stores; their persist order is unconstrained"
             pending_flushes pending_nt)

let feed t (e : Pmtrace.Event.t) =
  let seq = e.Pmtrace.Event.seq in
  match e.Pmtrace.Event.op with
  | Pmem.Op.Load _ -> load t
  | Pmem.Op.Store { addr; size; nt } -> store t ~seq ~addr ~size ~nt
  | Pmem.Op.Flush { kind; line; dirty; volatile } ->
      flush t ~seq ~code:0 kind ~line ~dirty ~volatile
  | Pmem.Op.Fence { pending_flushes; pending_nt; _ } ->
      fence t ~seq ~code:0 ~pending_flushes ~pending_nt

(* The code path of the event with [seq], which the report reads off the
   recording at position [seq - 1]; 0 when it is not known. *)
let code_of t seq =
  match t.trace with Some trace when t.dedupe -> Pmtrace.Arena.code trace (seq - 1) | _ -> 0

let step t i =
  let trace =
    match t.trace with Some trace -> trace | None -> invalid_arg "Trace_analysis.step: no trace"
  in
  let module A = Pmtrace.Arena in
  let seq = A.seq trace i in
  match A.kind trace i with
  | A.Load -> load t
  | A.Store -> store t ~seq ~addr:(A.addr trace i) ~size:(A.size trace i) ~nt:(A.nt trace i)
  | A.Flush ->
      flush t ~seq ~code:(code_of t seq) (A.flush_kind trace i) ~line:(A.line trace i)
        ~dirty:(A.dirty trace i) ~volatile:(A.volatile trace i)
  | A.Fence ->
      fence t ~seq ~code:(code_of t seq) ~pending_flushes:(A.pending_flushes trace i)
        ~pending_nt:(A.pending_nt trace i)

(** End-of-trace pass: classify the stores that never became durable.
    Under eADR (section 4.3) globally visible stores are durable without
    flushes, so neither arm of pattern 1 applies. Slots of one store share
    its seq: the first in residue order speaks for the rest, so each
    finding stays unique per (kind, seq) — and per (kind, code path) when
    the code paths are known, a recording's seq being its position + 1. *)
let finish t =
  let seen = Hashtbl.create 64 in
  if not t.config.Config.eadr then
    Fold.iter_residue t.fold (fun ~slot ~seq ~captured ~line_flushed ->
        let line = slot * Pmem.Addr.atomic_size / Pmem.Addr.line_size in
        let kind =
          if captured || line_flushed then Report.Durability_bug else Report.Transient_data_warning
        in
        if not (Hashtbl.mem seen (kind, seq)) then begin
          Hashtbl.replace seen (kind, seq) ();
          if first t kind (code_of t seq) then
            report t kind seq
              (if captured then Printf.sprintf "flush of slot %d was never fenced" slot
               else if line_flushed then
                 Printf.sprintf "store to slot %d never persisted (line %d is flushed elsewhere)"
                   slot line
               else
                 Printf.sprintf
                   "slot %d written but its line is never flushed: PM used for transient data?"
                   slot)
        end);
  List.rev t.findings

let event_count t = t.events
