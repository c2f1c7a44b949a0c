(* Trace analysis (paper section 4.2), the five patterns of the interface,
   as a view over the streaming persistency fold ({!Analysis.Persist_fold}):
   [feed] consumes events as the instrumented run (or the replay walk)
   produces them, so the trace need not be stored. *)

module Fold = Analysis.Persist_fold

type raw = { kind : Report.kind; seq : int; detail : string }

type t = {
  config : Config.t;
  fold : Fold.t;
  mutable findings : raw list; (* newest first *)
  mutable events : int;
}

let create config = { config; fold = Fold.create (); findings = []; events = 0 }
let report t kind seq detail = t.findings <- { kind; seq; detail } :: t.findings

let feed t (event : Pmtrace.Event.t) =
  t.events <- t.events + 1;
  let seq = event.Pmtrace.Event.seq and op = event.Pmtrace.Event.op in
  match (Fold.redundancy (Fold.feed t.fold event) op, op) with
  | Some detail, Pmem.Op.Flush _ -> report t Report.Redundant_flush seq detail
  | Some detail, _ -> report t Report.Redundant_fence seq detail
  | None, Pmem.Op.Flush { line; _ } when Fold.captured_stores t.fold > 1 ->
      (* a dirty flush, the only kind that is not redundant *)
      report t Report.Multi_store_flush_warning seq
        (Printf.sprintf "one flush of line %d covers %d stores" line (Fold.captured_stores t.fold))
  | None, Pmem.Op.Fence { pending_flushes; pending_nt; _ } ->
      if pending_flushes + pending_nt > 1 then
        report t Report.Unordered_flushes_warning seq
          (Printf.sprintf
             "fence orders %d flushes and %d NT stores; their persist order is \
              unconstrained"
             pending_flushes pending_nt)
  | None, _ -> ()

(** End-of-trace pass: classify the stores that never became durable.
    Under eADR (section 4.3) globally visible stores are durable without
    flushes, so neither arm of pattern 1 applies. Slots of one store share
    its seq: the first in residue order speaks for the rest, so each
    finding stays unique per (kind, seq). *)
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
