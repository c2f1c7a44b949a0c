(** From lint to optimizer: synthesize persist-transformation plans over the
    recorded trace, price them with the {!Cost} model, and verify every
    candidate by replay before anything is suggested to the user.

    Synthesis walks the persistency-indexed trace (epochs delimited by
    fences, exactly as the lint detectors see it) and proposes instances of
    the transformation vocabulary {!Fix.action} grew in this phase:
    batching adjacent fences, coalescing a line's redundant captures onto
    one survivor, hoisting a looped flush past the line's last store,
    converting a flush-the-whole-buffer store to non-temporal, and
    downgrading clflush to clwb. The abstract interpreter's verdicts gate
    synthesis both ways: sites it flagged are never optimized (repair
    before tuning), and its safety proofs are carried on each plan as a
    ranking signal.

    Every plan is then judged like a fix deletion ({!Verify_fix}), but
    stricter: the rewritten trace is re-checked at {e all} of its failure
    points under the graceful ([Program_prefix]) crash view {e and} under
    the conservative [Adr] view — the view in which a deleted or deferred
    persist instruction is actually observable, since only fenced data
    survives — plus the structural detectors, the stranded-window lint and
    final-image equality. Only plans that survive all of it and actually
    shrink the trace's modelled cost are Proven; those form the ranked
    patch bundle. Verification costs replays, never target
    re-executions. *)

type plan = {
  p_rule : string;
      (** which synthesis rule proposed it: batch_fences, coalesce_flushes,
          move_flush, convert_to_nt, convert_to_clwb *)
  p_fix : Fix.t;  (** the site-anchored transformation, for reports and dedup *)
  p_instances : int;  (** dynamic instances the plan rewrites *)
  p_edits : Pmtrace.Replay.edit list;
      (** the concrete trace edits, in baseline persistency coordinates —
          synthesis decides exactly which instances participate, so
          verification applies these as-is instead of re-expanding the
          fix's anchor site *)
  p_projected_cycles : int;  (** cost-model projection of cycles saved *)
  p_projected_events : int;  (** trace events the rewrite removes *)
  p_absint_safe : bool;
      (** the anchor site carries an abstract-interpretation safety proof *)
}

type bundle = {
  b_plan : plan;
  b_verdict : Verify_fix.verdict;
  b_detail : string;
  b_measured_cycles : int;  (** replay-measured: baseline minus rewritten modelled cost *)
  b_measured_events : int;  (** replay-measured persistency events removed *)
}

type t = {
  weights : Cost.weights;
  baseline_events : int;  (** persistency events in the recording *)
  baseline_cycles : int;  (** modelled cost of the unmodified trace *)
  synthesized : int;  (** plans proposed by the synthesis rules *)
  verified : int;  (** plans replay-verified (the top [max_plans] by projection) *)
  bundles : bundle list;
      (** every verified plan, proven first, best measured savings first *)
  proven : int;
  ineffective : int;
  harmful : int;  (** judged harmful — reported for provenance, never suggested *)
  replays : int;
}

let shipped t =
  List.filter (fun b -> b.b_verdict = Verify_fix.Proven) t.bundles

(* ------------------------------------------------------------------ *)
(* Trace indexing                                                      *)
(* ------------------------------------------------------------------ *)

(* A persistency instruction with its index and epoch: the coordinate
   system of the synthesis rules. A fence carries the epoch it
   terminates. *)
type inst = {
  i_pseq : int;
  i_op : Pmem.Op.t;
  i_stack : Pmtrace.Callstack.capture option;
  i_epoch : int;
}

let index events =
  let pseq = ref 0 and epoch = ref 0 in
  List.rev
    (List.fold_left
       (fun acc (e : Pmtrace.Event.t) ->
         match e.Pmtrace.Event.op with
         | Pmem.Op.Load _ -> acc
         | op ->
             incr pseq;
             let i =
               { i_pseq = !pseq; i_op = op; i_stack = e.Pmtrace.Event.stack; i_epoch = !epoch }
             in
             (match op with Pmem.Op.Fence _ -> incr epoch | _ -> ());
             i :: acc)
       [] events)

let site i = Option.map Pmtrace.Callstack.capture_to_string i.i_stack

(* Ordered grouping: one bucket per key, keys in first-appearance order,
   items in input order — synthesis must not depend on hashtable
   iteration. *)
let group_by key items =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun it ->
      let k = key it in
      match Hashtbl.find_opt tbl k with
      | None ->
          Hashtbl.replace tbl k [ it ];
          order := k :: !order
      | Some l -> Hashtbl.replace tbl k (it :: l))
    items;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order |> List.rev

let deferred = function Pmem.Op.Clwb | Pmem.Op.Clflushopt -> true | Pmem.Op.Clflush -> false

(* ------------------------------------------------------------------ *)
(* Synthesis rules                                                     *)
(* ------------------------------------------------------------------ *)

(* Rule: batch adjacent fences. Two consecutive fences whose sites share a
   frame path are one batching opportunity: delete the first, its drains
   defer to the second. Precise per instance — only a fence instance whose
   immediate successor fence shares its path is deleted, so the site's
   other activations (including a trace-final fence) are untouched. *)
let rule_batch_fences ~flagged ~safe ~weights insts =
  let fences =
    List.filter (fun i -> match i.i_op with Pmem.Op.Fence _ -> true | _ -> false) insts
  in
  let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> [] in
  let qualifying =
    List.filter
      (fun (f1, f2) ->
        match (f1.i_stack, f2.i_stack) with
        | Some c1, Some c2 ->
            c1.Pmtrace.Callstack.path = c2.Pmtrace.Callstack.path
            && (not (Pmtrace.Callstack.capture_equal c1 c2))
            && not (flagged c1)
        | _ -> false)
      (pairs fences)
  in
  group_by (fun (f1, _) -> Option.get (site f1)) qualifying
  |> List.map (fun (_, group) ->
         let f1, f2 = List.hd group in
         let deleted = List.map fst group in
         let n = List.length deleted in
         {
           p_rule = "batch_fences";
           p_fix =
             {
               Fix.action = Fix.Batch_fences { with_pseq = f2.i_pseq };
               seq = f1.i_pseq;
               stack = f1.i_stack;
               rationale =
                 Printf.sprintf
                   "%d fence(s) at this site are each immediately followed by another fence in \
                    the same frame; defer their drains to the following fence"
                   n;
             };
           p_instances = n;
           p_edits =
             List.map (fun f -> Pmtrace.Replay.Delete_fence_at { pseq = f.i_pseq }) deleted;
           p_projected_cycles =
             List.fold_left (fun a f -> a + Cost.op_cycles weights f.i_op) 0 deleted;
           p_projected_events = n;
           p_absint_safe = (match f1.i_stack with Some c -> safe c | None -> false);
         })

(* Dirty, deferred, in-pool flushes with a recorded site, grouped by
   (epoch, line): the raw material of the coalesce and move rules. A
   deferred flush only reaches the medium at the epoch's fence, so within
   an epoch the line's last capture is the one that drains — deleting the
   earlier captures is invisible even under the ADR crash view. *)
let coalescable_groups insts =
  List.filter_map
    (fun i ->
      match i.i_op with
      | Pmem.Op.Flush { kind; line; dirty = true; volatile = false }
        when deferred kind && i.i_stack <> None ->
          Some (i, line)
      | _ -> None)
    insts
  |> group_by (fun (i, line) -> Printf.sprintf "%d.%d" i.i_epoch line)

(* Rule: coalesce a line's captures across sites. When several sites flush
   the same (re-dirtied) line within one epoch, only the last capture
   survives the drain: delete the cross-site earlier ones, naming the
   survivor. Same-site repetitions are the move rule's business. *)
let rule_coalesce ~flagged ~safe ~weights groups =
  let redundant =
    List.concat_map
      (fun (_, g) ->
        if List.length g < 2 then []
        else
          let surv = fst (List.nth g (List.length g - 1)) in
          let ssite = site surv in
          List.filter_map
            (fun ((i, _line) as it) ->
              if i.i_pseq = surv.i_pseq || site i = ssite then None
              else
                match i.i_stack with
                | Some c when not (flagged c) -> Some (it, surv)
                | _ -> None)
            g)
      groups
  in
  group_by (fun ((i, _), _) -> Option.get (site i)) redundant
  |> List.map (fun (_, group) ->
         let (i0, line0), surv0 = List.hd group in
         let n = List.length group in
         {
           p_rule = "coalesce_flushes";
           p_fix =
             {
               Fix.action = Fix.Coalesce_flushes { line = line0; survivor_pseq = surv0.i_pseq };
               seq = i0.i_pseq;
               stack = i0.i_stack;
               rationale =
                 Printf.sprintf
                   "%d capture(s) at this site are overwritten before the epoch fence by a later \
                    flush of the same line; keep only the surviving capture"
                   n;
             };
           p_instances = n;
           p_edits =
             List.map
               (fun ((i, _), _) -> Pmtrace.Replay.Delete_flush_at { pseq = i.i_pseq })
               group;
           p_projected_cycles =
             List.fold_left (fun a ((i, _), _) -> a + Cost.op_cycles weights i.i_op) 0 group;
           p_projected_events = n;
           p_absint_safe = (match i0.i_stack with Some c -> safe c | None -> false);
         })

(* Rule: hoist a looped flush. One site flushing the same line repeatedly
   within an epoch (flush-per-iteration) needs exactly one capture — the
   final one. Delete the earlier instances; when stores to the line follow
   the surviving instance, move it past the last of them so the single
   capture is the complete one. *)
let rule_move ~flagged ~safe ~weights groups insts =
  let stores =
    List.filter (fun i -> match i.i_op with Pmem.Op.Store _ -> true | _ -> false) insts
  in
  let per_site =
    List.concat_map
      (fun (_, g) ->
        group_by (fun (i, _) -> Option.get (site i)) g
        |> List.filter_map (fun (_, sub) ->
               if List.length sub < 2 then None
               else
                 let i0, line = List.hd sub in
                 match i0.i_stack with
                 | Some c when not (flagged c) ->
                     let last = fst (List.nth sub (List.length sub - 1)) in
                     let earlier =
                       List.filter (fun (i, _) -> i.i_pseq <> last.i_pseq) sub |> List.map fst
                     in
                     let last_store_after =
                       List.fold_left
                         (fun acc s ->
                           match s.i_op with
                           | Pmem.Op.Store { addr; size; _ }
                             when s.i_epoch = last.i_epoch && s.i_pseq > last.i_pseq
                                  && List.mem line (Pmem.Addr.lines_spanned ~addr ~size) ->
                               max acc s.i_pseq
                           | _ -> acc)
                         0 stores
                     in
                     Some (i0, line, last, earlier, last_store_after)
                 | _ -> None))
      groups
  in
  group_by (fun (i0, _, _, _, _) -> Option.get (site i0)) per_site
  |> List.map (fun (_, group) ->
         let i0, line0, last0, _, dest0 = List.hd group in
         let deleted = List.concat_map (fun (_, _, _, earlier, _) -> earlier) group in
         let n = List.length deleted in
         let edits =
           List.concat_map
             (fun (_, _, last, earlier, dest) ->
               List.map (fun i -> Pmtrace.Replay.Delete_flush_at { pseq = i.i_pseq }) earlier
               @
               if dest > last.i_pseq then
                 [ Pmtrace.Replay.Move_flush_to { pseq = last.i_pseq; to_pseq = dest } ]
               else [])
             group
         in
         {
           p_rule = "move_flush";
           p_fix =
             {
               Fix.action =
                 Fix.Move_flush
                   { line = line0; to_pseq = (if dest0 > last0.i_pseq then dest0 else last0.i_pseq) };
               seq = i0.i_pseq;
               stack = i0.i_stack;
               rationale =
                 Printf.sprintf
                   "this site re-flushes the same line %d time(s) per epoch; one capture after \
                    the line's last store suffices"
                   (n + List.length group);
             };
           p_instances = n;
           p_edits = edits;
           p_projected_cycles =
             List.fold_left (fun a i -> a + Cost.op_cycles weights i.i_op) 0 deleted;
           p_projected_events = n;
           p_absint_safe = (match i0.i_stack with Some c -> safe c | None -> false);
         })

(* Rule: convert a flush-everything store to non-temporal. A store that is
   the sole writer of every line it spans within its epoch, with each of
   those lines captured afterwards by deferred flushes and the epoch closed
   by a fence, is the flush-the-whole-buffer idiom: a non-temporal store
   reaches the same persistence point at the same fence with no flush
   traffic at all. All dynamic instances of the site must qualify — the
   conversion models a source-level change. *)
let rule_convert_nt ~flagged ~safe ~weights insts =
  let epochs_with_fence = Hashtbl.create 16 in
  List.iter
    (fun i ->
      match i.i_op with
      | Pmem.Op.Fence _ -> Hashtbl.replace epochs_with_fence i.i_epoch ()
      | _ -> ())
    insts;
  let stores =
    List.filter (fun i -> match i.i_op with Pmem.Op.Store _ -> true | _ -> false) insts
  in
  let flushes =
    List.filter (fun i -> match i.i_op with Pmem.Op.Flush _ -> true | _ -> false) insts
  in
  let stores_by_epoch = group_by (fun i -> i.i_epoch) stores in
  let flushes_by_epoch = group_by (fun i -> i.i_epoch) flushes in
  let in_epoch tbl e = match List.assoc_opt e tbl with Some l -> l | None -> [] in
  (* Some (instance, deletable flushes) when the instance qualifies. *)
  let qualify s =
    match s.i_op with
    | Pmem.Op.Store { addr; size; nt = false }
      when s.i_stack <> None
           && (match s.i_stack with Some c -> not (flagged c) | None -> false)
           && Hashtbl.mem epochs_with_fence s.i_epoch ->
        let ls = Pmem.Addr.lines_spanned ~addr ~size in
        let ls_set = Hashtbl.create (List.length ls) in
        List.iter (fun l -> Hashtbl.replace ls_set l ()) ls;
        let sole =
          List.for_all
            (fun s' ->
              s'.i_pseq = s.i_pseq
              ||
              match s'.i_op with
              | Pmem.Op.Store { addr = a'; size = z'; _ } ->
                  not
                    (List.exists (Hashtbl.mem ls_set) (Pmem.Addr.lines_spanned ~addr:a' ~size:z'))
              | _ -> true)
            (in_epoch stores_by_epoch s.i_epoch)
        in
        if not sole then None
        else
          let after =
            List.filter
              (fun f ->
                f.i_pseq > s.i_pseq
                &&
                match f.i_op with
                | Pmem.Op.Flush { line; volatile = false; _ } -> Hashtbl.mem ls_set line
                | _ -> false)
              (in_epoch flushes_by_epoch s.i_epoch)
          in
          let all_deferred =
            List.for_all
              (fun f ->
                match f.i_op with Pmem.Op.Flush { kind; _ } -> deferred kind | _ -> true)
              after
          in
          let covered = Hashtbl.create (List.length ls) in
          List.iter
            (fun f ->
              match f.i_op with
              | Pmem.Op.Flush { line; _ } -> Hashtbl.replace covered line ()
              | _ -> ())
            after;
          if all_deferred && List.for_all (Hashtbl.mem covered) ls then Some (s, after)
          else None
    | _ -> None
  in
  let with_site =
    List.filter (fun s ->
        match s.i_op with Pmem.Op.Store { nt = false; _ } -> s.i_stack <> None | _ -> false)
      stores
  in
  group_by (fun s -> Option.get (site s)) with_site
  |> List.filter_map (fun (_, instances) ->
         let qualified = List.map qualify instances in
         if List.exists Option.is_none qualified then None
         else
           let qualified = List.filter_map Fun.id qualified in
           let s0, fl0 = List.hd qualified in
           match fl0 with
           | [] -> None
           | first_flush :: _ ->
               let n = List.length qualified in
               let deleted = List.concat_map snd qualified in
               let cycles =
                 List.fold_left (fun a f -> a + Cost.op_cycles weights f.i_op) 0 deleted
                 - (n * (weights.Cost.w_nt_store - weights.Cost.w_store))
               in
               if cycles <= 0 then None
               else
                 let line0 =
                   match s0.i_op with
                   | Pmem.Op.Store { addr; _ } -> Pmem.Addr.line_of addr
                   | _ -> 0
                 in
                 Some
                   {
                     p_rule = "convert_to_nt";
                     p_fix =
                       {
                         Fix.action =
                           Fix.Convert_to_nt { line = line0; flush_pseq = first_flush.i_pseq };
                         seq = s0.i_pseq;
                         stack = s0.i_stack;
                         rationale =
                           Printf.sprintf
                             "sole writer of every line it spans, all %d line capture(s) flushed \
                              afterwards and drained by the epoch fence: a non-temporal store \
                              persists at the same fence with no flush traffic"
                             (List.length deleted);
                       };
                     p_instances = n;
                     p_edits =
                       List.concat_map
                         (fun (s, fl) ->
                           Pmtrace.Replay.Set_store_nt { pseq = s.i_pseq }
                           :: List.map
                                (fun f -> Pmtrace.Replay.Delete_flush_at { pseq = f.i_pseq })
                                fl)
                         qualified;
                     p_projected_cycles = cycles;
                     p_projected_events = List.length deleted;
                     p_absint_safe = (match s0.i_stack with Some c -> safe c | None -> false);
                   })

(* Rule: downgrade clflush to clwb. An invalidating flush whose epoch is
   closed by a fence reaches the same persistence point as the cheaper,
   cache-preserving clwb; the instruction swap removes no event, only
   cycles. Every instance of the site must sit in a fenced epoch. *)
let rule_convert_clwb ~flagged ~safe ~weights insts =
  let epochs_with_fence = Hashtbl.create 16 in
  List.iter
    (fun i ->
      match i.i_op with
      | Pmem.Op.Fence _ -> Hashtbl.replace epochs_with_fence i.i_epoch ()
      | _ -> ())
    insts;
  let clflushes =
    List.filter
      (fun i ->
        match i.i_op with
        | Pmem.Op.Flush { kind = Pmem.Op.Clflush; volatile = false; _ } -> i.i_stack <> None
        | _ -> false)
      insts
  in
  group_by (fun i -> Option.get (site i)) clflushes
  |> List.filter_map (fun (_, instances) ->
         let i0 = List.hd instances in
         let ok =
           (match i0.i_stack with Some c -> not (flagged c) | None -> false)
           && List.for_all (fun i -> Hashtbl.mem epochs_with_fence i.i_epoch) instances
         in
         if not ok then None
         else
           let n = List.length instances in
           let line0 =
             match i0.i_op with Pmem.Op.Flush { line; _ } -> line | _ -> 0
           in
           let cycles = n * (weights.Cost.w_clflush - weights.Cost.w_clwb) in
           if cycles <= 0 then None
           else
             Some
               {
                 p_rule = "convert_to_clwb";
                 p_fix =
                   {
                     Fix.action = Fix.Convert_to_clwb { line = line0 };
                     seq = i0.i_pseq;
                     stack = i0.i_stack;
                     rationale =
                       Printf.sprintf
                         "%d invalidating flush(es) in fenced epochs: clwb reaches the same \
                          persistence point at the fence while keeping the line cached"
                         n;
                   };
                 p_instances = n;
                 p_edits =
                   List.map
                     (fun i ->
                       Pmtrace.Replay.Set_flush_kind { pseq = i.i_pseq; kind = Pmem.Op.Clwb })
                     instances;
                 p_projected_cycles = cycles;
                 p_projected_events = 0;
                 p_absint_safe = (match i0.i_stack with Some c -> safe c | None -> false);
               })

let synthesize ?absint ~weights events =
  let insts = index events in
  let flagged =
    match absint with
    | None -> fun _ -> false
    | Some a ->
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (f : Absint.finding) ->
            match f.Absint.f_site with
            | Some c -> Hashtbl.replace tbl (Pmtrace.Callstack.capture_to_string c) ()
            | None -> ())
          a.Absint.findings;
        fun c -> Hashtbl.mem tbl (Pmtrace.Callstack.capture_to_string c)
  in
  let safe =
    match absint with None -> fun _ -> false | Some a -> Absint.proven_safe_at a
  in
  let groups = coalescable_groups insts in
  let plans =
    rule_batch_fences ~flagged ~safe ~weights insts
    @ rule_coalesce ~flagged ~safe ~weights groups
    @ rule_move ~flagged ~safe ~weights groups insts
    @ rule_convert_nt ~flagged ~safe ~weights insts
    @ rule_convert_clwb ~flagged ~safe ~weights insts
  in
  let plans =
    List.filter (fun p -> p.p_projected_cycles > 0 || p.p_projected_events > 0) plans
  in
  (* one plan per distinct edit ({!Fix.key}), best projection first; the
     absint proof breaks projection ties so machine-checked sites verify
     (and therefore ship) ahead of unproven ones *)
  let plans =
    List.fold_left
      (fun (seen, acc) p ->
        let k = Fix.key p.p_fix in
        if List.mem k seen then (seen, acc) else (k :: seen, p :: acc))
      ([], [])
      (List.stable_sort
         (fun a b ->
           match compare b.p_projected_cycles a.p_projected_cycles with
           | 0 -> (
               match compare b.p_absint_safe a.p_absint_safe with
               | 0 -> Fix.compare a.p_fix b.p_fix
               | c -> c)
           | c -> c)
         plans)
    |> snd |> List.rev
  in
  plans

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

let persist_count events =
  List.fold_left
    (fun a (e : Pmtrace.Event.t) ->
      match e.Pmtrace.Event.op with Pmem.Op.Load _ -> a | _ -> a + 1)
    0 events

(* Plans verified per run, best projection first. *)
let max_plans = 12

let optimize ?invariants ?absint ~weights ~support ~confidence ~eadr
    ~(oracle : Pmem.Image.t -> (string * string) option)
    ~(points : Pmtrace.Event.t list -> (int * int * Pmtrace.Callstack.capture) list)
    (noload : Pmtrace.Replay.t) =
  Telemetry.Collector.span ~cat:"optimize" "optimize" @@ fun () ->
  let module VF = Verify_fix in
  (* The baseline, computed once under both crash views, over the same
     recording every recheck rewrites (the engine hands the optimizer its
     load-free view), so the diff is meaningful. *)
  let base =
    VF.baseline ?invariants ~support ~confidence ~eadr ~adr:true ~oracle ~points noload
  in
  let base_events = base.VF.events in
  let baseline_cycles = Cost.trace_cycles weights base_events in
  let baseline_events = persist_count base_events in
  let all_plans = synthesize ?absint ~weights base_events in
  let synthesized = List.length all_plans in
  let plans = List.filteri (fun i _ -> i < max_plans) all_plans in
  let judge plan =
    match base.VF.recheck ~preserve:true plan.p_edits with
    | Error msg ->
        {
          b_plan = plan;
          b_verdict = VF.Ineffective;
          b_detail = msg;
          b_measured_cycles = 0;
          b_measured_events = 0;
        }
    | Ok r ->
        let measured_cycles = baseline_cycles - Cost.trace_cycles weights r.VF.r_events in
        let measured_events = baseline_events - persist_count r.VF.r_events in
        let verdict, detail =
          match r.VF.r_harm with
          | Some harm -> (VF.Harmful, VF.harm_to_string harm)
          | None ->
              if measured_cycles > 0 || measured_events > 0 then
                ( VF.Proven,
                  Printf.sprintf
                    "replay-verified at every failure point under both crash views; saves %d \
                     event(s), %d modelled cycle(s)"
                    measured_events measured_cycles )
              else (VF.Ineffective, "rewrite saves nothing under the cost model")
        in
        {
          b_plan = plan;
          b_verdict = verdict;
          b_detail = detail;
          b_measured_cycles = measured_cycles;
          b_measured_events = measured_events;
        }
  in
  let bundles = List.map judge plans in
  let rank b =
    match b.b_verdict with VF.Proven -> 0 | VF.Ineffective -> 1 | VF.Harmful -> 2
  in
  let bundles =
    List.stable_sort
      (fun a b ->
        match compare (rank a) (rank b) with
        | 0 -> (
            match compare b.b_measured_cycles a.b_measured_cycles with
            | 0 -> Fix.compare a.b_plan.p_fix b.b_plan.p_fix
            | c -> c)
        | c -> c)
      bundles
  in
  let tally v = List.length (List.filter (fun b -> b.b_verdict = v) bundles) in
  let proven = tally VF.Proven
  and ineffective = tally VF.Ineffective
  and harmful = tally VF.Harmful in
  Telemetry.Collector.count "opt.plans" synthesized;
  Telemetry.Collector.count "opt.proven" proven;
  Telemetry.Collector.count "opt.harmful" harmful;
  {
    weights;
    baseline_events;
    baseline_cycles;
    synthesized;
    verified = List.length plans;
    bundles;
    proven;
    ineffective;
    harmful;
    replays = base.VF.passes ();
  }

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let pp_bundle ppf b =
  Fmt.pf ppf "[%s] %s %s: -%d event(s), -%d cycle(s) (projected -%d) — %s"
    (Verify_fix.verdict_to_string b.b_verdict)
    b.b_plan.p_rule
    (Fix.anchor_to_string b.b_plan.p_fix)
    b.b_measured_events b.b_measured_cycles b.b_plan.p_projected_cycles b.b_detail

let plan_to_json p =
  let open Telemetry.Json in
  Assoc
    [
      ("rule", String p.p_rule);
      ("fix", String (Fix.to_string p.p_fix));
      ("key", String (Fix.key p.p_fix));
      ( "stack",
        match p.p_fix.Fix.stack with
        | None -> Null
        | Some c -> String (Pmtrace.Callstack.capture_to_string c) );
      ("seq", Int p.p_fix.Fix.seq);
      ("instances", Int p.p_instances);
      ("edits", List (List.map (fun e -> String (Pmtrace.Replay.edit_to_string e)) p.p_edits));
      ("projected_cycles", Int p.p_projected_cycles);
      ("projected_events", Int p.p_projected_events);
      ("absint_safe", Bool p.p_absint_safe);
    ]

let bundle_to_json b =
  let open Telemetry.Json in
  Assoc
    [
      ("plan", plan_to_json b.b_plan);
      ("verdict", String (Verify_fix.verdict_to_string b.b_verdict));
      ("detail", String b.b_detail);
      ("measured_cycles", Int b.b_measured_cycles);
      ("measured_events", Int b.b_measured_events);
    ]

(** Ledger encoding: cost model, baseline, tallies and every verified
    bundle in rank order. *)
let to_json t =
  let open Telemetry.Json in
  Assoc
    [
      ("weights", Cost.to_json t.weights);
      ("baseline_events", Int t.baseline_events);
      ("baseline_cycles", Int t.baseline_cycles);
      ("synthesized", Int t.synthesized);
      ("verified", Int t.verified);
      ("proven", Int t.proven);
      ("ineffective", Int t.ineffective);
      ("harmful", Int t.harmful);
      ("replays", Int t.replays);
      ("bundles", List (List.map bundle_to_json t.bundles));
    ]
