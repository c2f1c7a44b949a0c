(** Epoch-based persistency anti-pattern detectors (the Bentō catalogue, see
    PAPERS.md): a single pass over one recorded trace (loads skipped) flags
    persistency instructions that do no useful work — and fences that arrive
    with work left undone — each with a frame + ordinal location, a concrete
    {!Fix.t}, and the estimated cost of leaving it in place.

    Lint is a view over the persistency fold ({!Persist_fold}) that trace
    analysis and the static analyzer's redundancy findings also read, so
    the three classify every flush and fence alike; the report-level
    deduplication (same kind, same code path) merges their twins.

    The trace should carry device-accurate metadata (flush [dirty] bits,
    fence pending counts): recorded traces do by construction, rewritten
    traces must be re-normalized ({!Replay.normalize}) first. *)

type kind =
  | Duplicate_flush
      (** the line is flushed again, dirty, in the same persist epoch: the
          first capture is overwritten before any fence drains it *)
  | Unnecessary_flush  (** the line holds nothing unpersisted *)
  | Nt_flush_misuse
      (** clean flush of a line whose stores this epoch were non-temporal:
          NT stores bypass the cache, the flush writes back nothing *)
  | Redundant_fence  (** nothing pending to drain, nothing stored to order *)
  | Missing_flush
      (** a fence is reached with a line dirtied this epoch that is never
          flushed afterwards, though the program flushes that line elsewhere:
          the persist was probably intended here *)

let kind_to_string = function
  | Duplicate_flush -> "duplicate flush"
  | Unnecessary_flush -> "unnecessary flush"
  | Nt_flush_misuse -> "nt-store flush misuse"
  | Redundant_fence -> "redundant fence"
  | Missing_flush -> "missing flush"

(* Per-instruction costs (cycles) for the savings estimate: the cost
   model's static clwb/sfence weights, so lint cycle counts and optimizer
   projections read on one scale. *)
let flush_cycles = Cost.static_weights.Cost.w_clwb
let fence_cycles = Cost.static_weights.Cost.w_sfence

type finding = {
  l_kind : kind;
  l_pseq : int;  (** persistency-index anchor of the first dynamic instance *)
  l_stack : Pmtrace.Callstack.capture option;
  l_line : int;  (** cache line of the first instance; 0 for fence findings *)
  l_detail : string;
  l_fix : Fix.t option;
  l_cycles : int;  (** estimated cycles saved, summed over dynamic instances *)
  l_events : int;  (** trace events removed by the fix, summed over instances *)
}

type t = {
  findings : finding list;
      (** one per code site (kind + code path), sorted by
          (pseq, kind, line) of the first dynamic instance *)
  events : int;
  epochs : int;  (** fences in the trace *)
  flushes : int;
  fences : int;
  redundant_flushes : int;  (** dynamic instances, not sites *)
  redundant_fences : int;
  missing_flush_spots : int;
  cycles_saved : int;  (** summed over deletable dynamic instances *)
  events_saved : int;
}

let kind_rank = function
  | Duplicate_flush -> 0
  | Unnecessary_flush -> 1
  | Nt_flush_misuse -> 2
  | Redundant_fence -> 3
  | Missing_flush -> 4

let analyze ?(eadr = false) (events : Pmtrace.Event.t list) =
  Telemetry.Collector.span ~cat:"lint" "analyze" @@ fun () ->
  (* Findings aggregate per code site — the same static instruction
     misbehaving in every epoch is one finding whose savings sum over its
     dynamic instances, matching the granularity of the source-level fix it
     suggests. *)
  let sites : (string, finding) Hashtbl.t = Hashtbl.create 64 in
  (* Deleting an instruction deletes every execution of it, so a delete fix
     is only sound when every dynamic instance of the site was flagged:
     count executions per (shape, code path) and flagged instances per
     delete target, and strip the fix when they disagree. *)
  let site_key shape stack pseq =
    shape ^ "|"
    ^
    match stack with
    | Some c -> Pmtrace.Callstack.capture_to_string c
    | None -> Printf.sprintf "#%d" pseq
  in
  let instance_totals = Hashtbl.create 256 and marked = Hashtbl.create 64 in
  let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)) in
  let redundant_flushes = ref 0
  and redundant_fences = ref 0
  and missing = ref 0
  and flushes = ref 0
  and fences = ref 0 in
  let fix action seq stack rationale = Some { Fix.action; seq; stack; rationale } in
  let add ?fix ~line ~cycles ~events:ev_saved kind pseq stack detail =
    (match fix with
    | Some { Fix.action = Fix.Delete_flush _; seq; stack = fstack; _ } ->
        bump marked (site_key "F" fstack seq)
    | Some { Fix.action = Fix.Delete_fence; seq; stack = fstack; _ } ->
        bump marked (site_key "N" fstack seq)
    | Some _ | None -> ());
    (match kind with
    | Duplicate_flush | Unnecessary_flush | Nt_flush_misuse -> incr redundant_flushes
    | Redundant_fence -> incr redundant_fences
    | Missing_flush -> incr missing);
    let key = site_key (string_of_int (kind_rank kind)) stack pseq in
    match Hashtbl.find_opt sites key with
    | Some f ->
        Hashtbl.replace sites key
          { f with l_cycles = f.l_cycles + cycles; l_events = f.l_events + ev_saved }
    | None ->
        Hashtbl.replace sites key
          { l_kind = kind; l_pseq = pseq; l_stack = stack; l_line = line; l_detail = detail;
            l_fix = fix; l_cycles = cycles; l_events = ev_saved }
  in
  let delete_flush ~line kind p stack why detail =
    add ?fix:(fix (Fix.Delete_flush { line }) p stack why) ~line ~cycles:flush_cycles ~events:1
      kind p stack detail
  in
  let fold = Persist_fold.create () in
  (* the stack at each persistency index, for anchors named after the fact *)
  let n_events = List.length events in
  let stacks = Array.make n_events None in
  (* fences whose verdict needs the whole trace, newest first: (pseq, stack,
     nothing to drain, missing-flush candidates sorted by line) *)
  let fences_rev = ref [] in
  List.iter
    (fun (e : Pmtrace.Event.t) ->
      let step = Persist_fold.feed fold e in
      let p = Persist_fold.pseq fold and stack = e.Pmtrace.Event.stack in
      if step <> Persist_fold.Load then stacks.(p - 1) <- stack;
      match (step, e.Pmtrace.Event.op) with
      | _, Pmem.Op.Fence { kind; _ } ->
          incr fences;
          bump instance_totals (site_key "N" stack p);
          (* missing-flush candidates: lines stored to this epoch and still
             dirty here *)
          let candidates = ref [] in
          Persist_fold.stranded fold (fun line sp -> candidates := (line, sp) :: !candidates);
          (* an RMW's fence orders its own store: never redundant here *)
          let empty =
            if kind = Pmem.Op.Rmw then None else Persist_fold.redundancy step e.Pmtrace.Event.op
          in
          if empty <> None || !candidates <> [] then
            fences_rev := (p, stack, empty, List.sort compare !candidates) :: !fences_rev
      | _, Pmem.Op.Flush { line; _ } -> (
          incr flushes;
          bump instance_totals (site_key "F" stack p);
          match (step, Persist_fold.redundancy step e.Pmtrace.Event.op) with
          | Persist_fold.Clean_nt_flush, _ ->
              delete_flush ~line Nt_flush_misuse p stack
                "non-temporal stores bypass the cache; the fence alone persists them"
                (Printf.sprintf "flush of line %d written only non-temporally this epoch" line)
          | Persist_fold.Volatile_flush, Some detail ->
              delete_flush ~line Unnecessary_flush p stack
                "the flushed address is not in the PM pool" detail
          | _, Some detail ->
              delete_flush ~line Unnecessary_flush p stack "the line holds no unpersisted stores"
                detail
          | _, None ->
              (* dirty flush: did it overwrite a capture from this same epoch? *)
              let first_p = Persist_fold.overwritten fold in
              if first_p > 0 then begin
                let first_stack = stacks.(first_p - 1) in
                (* no fix when both flushes are dynamic instances of the same
                   instruction (a flush in a loop): deleting that source line
                   would delete the live second capture too — the repair is a
                   restructuring this tool cannot express as a trace edit *)
                add
                  ?fix:
                    (if site_key "F" first_stack first_p = site_key "F" stack p then None
                     else
                       fix (Fix.Delete_flush { line }) first_p first_stack
                         "a later flush of the same line re-captures it before any fence \
                          drains this one")
                  ~line ~cycles:flush_cycles ~events:1 Duplicate_flush first_p first_stack
                  (Printf.sprintf
                     "line %d flushed at #%d and again at #%d with no fence between: the first \
                      capture is dead"
                     line first_p p)
              end)
      | _ -> ())
    events;
  (* Fence verdicts, in fence order, once every flush position is known: a
     candidate is a missing-flush hot spot when its line is never flushed
     after the fence though the program flushes it elsewhere — never under
     eADR, where visible stores are durable without flushes. The spot is
     anchored at the store that dirtied the line, not at the fence: the
     store is where the flush belongs, its identity survives trace
     rewrites, and a fence synthesized by a fix re-observing the same
     stranded store maps onto the same finding instead of minting a new
     one. *)
  List.iter
    (fun (p, stack, empty, candidates) ->
      let spots =
        List.filter
          (fun (line, _) ->
            let last = Persist_fold.last_flush fold line in
            (not eadr) && last > 0 && last < p)
          candidates
      in
      List.iter
        (fun (line, sp) ->
          add
            ?fix:
              (fix (Fix.Insert_flush { line }) sp stacks.(sp - 1)
                 "flush the line so the next fence persists the stores")
            ~line ~cycles:0 ~events:0 Missing_flush sp stacks.(sp - 1)
            (Printf.sprintf
               "store to line %d at #%d is still dirty at the fence at #%d and the line is \
                never flushed afterwards, though the program flushes it elsewhere"
               line sp p))
        spots;
      match empty with
      | Some detail when spots = [] ->
          add
            ?fix:(fix Fix.Delete_fence p stack "no flush or NT store to drain")
            ~line:0 ~cycles:fence_cycles ~events:1 Redundant_fence p stack detail
      | Some _ | None -> ())
    (List.rev !fences_rev);
  let deletable (fx : Fix.t) =
    let key shape = site_key shape fx.Fix.stack fx.Fix.seq in
    let sound shape =
      Hashtbl.find_opt marked (key shape) = Hashtbl.find_opt instance_totals (key shape)
    in
    match fx.Fix.action with
    | Fix.Delete_flush _ -> sound "F"
    | Fix.Delete_fence -> sound "N"
    | Fix.Insert_flush _ | Fix.Insert_fence -> true
    (* the transformation actions are synthesized by the optimizer, which
       applies its own per-site soundness rules; lint never emits them *)
    | Fix.Move_flush _ | Fix.Coalesce_flushes _ | Fix.Batch_fences _ | Fix.Convert_to_nt _
    | Fix.Convert_to_clwb _ -> true
  in
  let findings =
    Hashtbl.fold (fun _ f acc -> f :: acc) sites []
    |> List.map (fun f ->
           match f.l_fix with
           | Some fx when not (deletable fx) ->
               (* the instruction does real work in other executions:
                  advisory only *)
               { f with l_fix = None }
           | Some _ | None -> f)
    |> List.sort (fun a b ->
           compare
             (a.l_pseq, kind_rank a.l_kind, a.l_line)
             (b.l_pseq, kind_rank b.l_kind, b.l_line))
  in
  let cycles_saved = List.fold_left (fun acc f -> acc + f.l_cycles) 0 findings in
  let events_saved = List.fold_left (fun acc f -> acc + f.l_events) 0 findings in
  {
    findings;
    events = n_events;
    epochs = !fences;
    flushes = !flushes;
    fences = !fences;
    redundant_flushes = !redundant_flushes;
    redundant_fences = !redundant_fences;
    missing_flush_spots = !missing;
    cycles_saved;
    events_saved;
  }

(** Ledger encoding of one anti-pattern site. *)
let finding_to_json (f : finding) =
  let open Telemetry.Json in
  Assoc
    [
      ("kind", String (kind_to_string f.l_kind));
      ("pseq", Int f.l_pseq);
      ( "stack",
        match f.l_stack with
        | None -> Null
        | Some c -> String (Pmtrace.Callstack.capture_to_string c) );
      ("line", Int f.l_line);
      ("detail", String f.l_detail);
      ("fix", match f.l_fix with None -> Null | Some fx -> String (Fix.to_string fx));
      ("cycles_saved", Int f.l_cycles);
      ("events_saved", Int f.l_events);
    ]

(** Ledger encoding of the phase: epoch/flush/fence tallies plus every
    finding site. *)
let to_json t =
  let open Telemetry.Json in
  Assoc
    [
      ("events", Int t.events);
      ("epochs", Int t.epochs);
      ("flushes", Int t.flushes);
      ("fences", Int t.fences);
      ("redundant_flushes", Int t.redundant_flushes);
      ("redundant_fences", Int t.redundant_fences);
      ("missing_flush_spots", Int t.missing_flush_spots);
      ("cycles_saved", Int t.cycles_saved);
      ("events_saved", Int t.events_saved);
      ("findings", List (List.map finding_to_json t.findings));
    ]
