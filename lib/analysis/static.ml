(** The offline static analyzer: whole-trace analysis over one recorded
    execution, run after tracing and before (or instead of) fault
    injection.

    The recording traces loads (dependency edges and pointer chases need
    them) and carries a stack on every event; a store, flush or fence has
    the stack ordinal a load-free recording would give it, so findings
    anchor at exact frame + ordinal sites in the persistency-index
    coordinates of the rest of the pipeline. The recording's dependency
    graph feeds the likely-invariant miner, pooled once per configured run
    (the target is deterministic, so repeated recordings would be equal);
    the graph is then scanned for instances that break an accepted
    invariant and for store windows that never reached durability, and
    the persistency fold ({!Persist_fold}) for persistency instructions
    that do no work, one finding per code site — each finding carrying a
    concrete {!Fix.t} when one exists. *)

type kind =
  | Durability  (** correctness: a store window never reached durability *)
  | Transient  (** its line is never flushed at all — PM as transient data? *)
  | Ordering  (** a persist-order hazard witnessed by a dependence *)
  | Atomicity  (** an accepted atomicity invariant was split by a fence *)
  | Redundant_flush
  | Redundant_fence

let kind_to_string = function
  | Durability -> "durability"
  | Transient -> "transient"
  | Ordering -> "ordering"
  | Atomicity -> "atomicity"
  | Redundant_flush -> "redundant flush"
  | Redundant_fence -> "redundant fence"

type finding = {
  kind : kind;
  seq : int;  (** persistency-index anchor *)
  stack : Pmtrace.Callstack.capture option;  (** frame + ordinal of the anchor *)
  detail : string;
  fix : Fix.t option;
  ident : string option;
      (** for invariant-backed findings (ordering / atomicity), the mined
          invariant the instance violates — identity that survives trace
          rewrites even when the anchor shifts or the violation is
          re-described (a dangling pointee becoming an unordered one is
          the same chase) *)
}

type t = {
  findings : finding list;
  invariants : Invariants.t;
  graph : Dep_graph.t;  (** the recording's dependency graph *)
  runs : int;  (** times the graph was pooled for invariant mining *)
  events : int;  (** events folded into the graph, times [runs] *)
}

let kind_rank = function
  | Durability -> 0
  | Transient -> 1
  | Ordering -> 2
  | Atomicity -> 3
  | Redundant_flush -> 4
  | Redundant_fence -> 5

(** [analyze ~runs ~support ~confidence ~eadr events] over one recorded
    execution. [invariants] skips the mining and scans against the given
    invariant set instead — how the fix verifier re-checks a rewritten
    trace under the {e baseline} invariants. *)
let analyze ?invariants ?(runs = 1) ~support ~confidence ~eadr (events : Pmtrace.Event.t list) =
  Telemetry.Collector.span ~cat:"static" "analyze" @@ fun () ->
  let runs = max 1 runs in
  let g = Dep_graph.build events in
  let invariants =
    match invariants with
    | Some i -> i
    | None ->
        Invariants.mine ~support ~confidence
          (List.init runs (fun _ -> (g, fun (n : Dep_graph.node) -> n.Dep_graph.locs)))
  in
  (* the stack of each persistency index: the p-th non-load event's *)
  let stacks =
    Array.of_list
      (List.filter_map
         (fun (e : Pmtrace.Event.t) ->
           match e.Pmtrace.Event.op with
           | Pmem.Op.Load _ -> None
           | _ -> Some e.Pmtrace.Event.stack)
         events)
  in
  let stack_of p = if p >= 1 && p <= Array.length stacks then stacks.(p - 1) else None in
  let findings = ref [] in
  let add ?fix ?ident kind seq detail =
    findings := { kind; seq; stack = stack_of seq; detail; fix; ident } :: !findings
  in
  let fix action seq rationale = { Fix.action; seq; stack = stack_of seq; rationale } in
  (* ---- durability: store windows that never reached a fence ---- *)
  if not eadr then
    List.iter
      (fun (d : Dep_graph.dangling) ->
        match d.Dep_graph.d_flush_p with
        | Some fp ->
            add ~fix:(fix Fix.Insert_fence fp "the flush is issued but never drained")
              Durability fp
              (Printf.sprintf "line %d flushed at #%d but never fenced" d.Dep_graph.d_line fp)
        | None ->
            if d.Dep_graph.d_line_flushed then
              add
                ~fix:
                  (fix
                     (Fix.Insert_flush { line = d.Dep_graph.d_line })
                     d.Dep_graph.d_last_store_p
                     "the stores are left in the cache; flush the line and fence")
                Durability d.Dep_graph.d_last_store_p
                (Printf.sprintf "stores to line %d never persisted (line is flushed elsewhere)"
                   d.Dep_graph.d_line)
            else
              add
                ~fix:
                  (fix
                     (Fix.Insert_flush { line = d.Dep_graph.d_line })
                     d.Dep_graph.d_last_store_p "flush and fence the line if the data must survive")
                Transient d.Dep_graph.d_last_store_p
                (Printf.sprintf "line %d written but never flushed: PM used for transient data?"
                   d.Dep_graph.d_line))
      g.Dep_graph.dangling;
  (* ---- ordering: pointer chases that break an accepted invariant ---- *)
  let supported paths =
    List.find_opt
      (fun (s : Invariants.ordering_stat) ->
        String.equal s.Invariants.o_src_path (fst paths)
        && String.equal s.Invariants.o_dst_path (snd paths))
      invariants.Invariants.orderings
  in
  let seen_chase = Hashtbl.create 16 in
  let chase_ident (src, dst) = Printf.sprintf "chase:%s->%s" src dst in
  List.iter
    (fun (c : Dep_graph.chase) ->
      match supported c.Dep_graph.c_paths with
      | None -> ()
      | Some stat -> (
          let conf = Invariants.o_confidence stat in
          let describe what anchor =
            Printf.sprintf
              "%s (reader path: %s -> %s; %d/%d instances enforce pointee-first, confidence \
               %.2f); anchor #%d"
              what (fst c.Dep_graph.c_paths) (snd c.Dep_graph.c_paths) stat.Invariants.o_enforced
              stat.Invariants.o_instances conf anchor
          in
          let once cls f =
            let key = (c.Dep_graph.c_paths, cls) in
            if not (Hashtbl.mem seen_chase key) then begin
              Hashtbl.replace seen_chase key ();
              f ()
            end
          in
          let src = Dep_graph.node g c.Dep_graph.c_src in
          match c.Dep_graph.c_dst with
          | Dep_graph.Persisted id ->
              let dst = Dep_graph.node g id in
              if dst.Dep_graph.epoch = src.Dep_graph.epoch then
                once `Unordered (fun () ->
                    (* both flushed, one fence: persist order unconstrained *)
                    let anchor =
                      match (dst.Dep_graph.flush_p, src.Dep_graph.flush_p) with
                      | Some a, Some b -> max a b
                      | Some a, None | None, Some a -> a
                      | None, None -> src.Dep_graph.fence_p
                    in
                    add
                      ~fix:
                        (fix Fix.Insert_fence anchor
                           "drain the pointee's flush before flushing the pointer")
                      ~ident:(chase_ident c.Dep_graph.c_paths) Ordering anchor
                      (describe
                         (Printf.sprintf
                            "pointee line %d and pointer line %d persist at the same fence; \
                             their order is left to the hardware"
                            dst.Dep_graph.line src.Dep_graph.line)
                         anchor))
              else if dst.Dep_graph.epoch > src.Dep_graph.epoch then
                once `Inverted (fun () ->
                    let anchor =
                      Option.value ~default:src.Dep_graph.fence_p src.Dep_graph.flush_p
                    in
                    add
                      ~fix:
                        (fix
                           (Fix.Insert_flush { line = dst.Dep_graph.line })
                           anchor "persist the pointee before publishing the pointer")
                      ~ident:(chase_ident c.Dep_graph.c_paths) Ordering anchor
                      (describe
                         (Printf.sprintf
                            "pointer line %d persisted at epoch %d before pointee line %d \
                             (epoch %d)"
                            src.Dep_graph.line src.Dep_graph.epoch dst.Dep_graph.line
                            dst.Dep_graph.epoch)
                         anchor))
          | Dep_graph.Dirty_window -> (
              (* only a hazard if the pointee never reaches durability *)
              match
                List.find_opt
                  (fun (d : Dep_graph.dangling) ->
                    d.Dep_graph.d_line = c.Dep_graph.c_dst_line
                    && d.Dep_graph.d_first_store_p <= c.Dep_graph.c_seq_p)
                  g.Dep_graph.dangling
              with
              | None -> ()
              | Some d ->
                  once `Dangling (fun () ->
                      let anchor = d.Dep_graph.d_last_store_p in
                      add
                        ~fix:
                          (fix
                             (Fix.Insert_flush { line = d.Dep_graph.d_line })
                             anchor "the pointer is persisted but its target never is")
                        ~ident:(chase_ident c.Dep_graph.c_paths) Ordering anchor
                        (describe
                           (Printf.sprintf
                              "pointer line %d is persisted but pointee line %d never reaches \
                               durability"
                              src.Dep_graph.line d.Dep_graph.d_line)
                           anchor)))
          | Dep_graph.Unknown -> ()))
    g.Dep_graph.chases;
  (* ---- ordering: read-after-persist dependences whose locations
          co-persist in a single epoch ---- *)
  let occupancy = Dep_graph.epoch_groups g in
  List.iter
    (fun (dep : Invariants.dep_stat) ->
      if dep.Invariants.dep_co > 0 then
        let witness =
          List.find_map
            (fun (_, nodes) ->
              let holds loc (n : Dep_graph.node) = List.mem loc n.Dep_graph.locs in
              match
                ( List.find_opt (holds dep.Invariants.dep_src) nodes,
                  List.find_opt (holds dep.Invariants.dep_dst) nodes )
              with
              | Some a, Some b when a.Dep_graph.id <> b.Dep_graph.id -> Some (a, b)
              | _ -> None)
            occupancy
        in
        match witness with
        | None -> ()
        | Some (a, b) ->
            let anchor =
              match (a.Dep_graph.flush_p, b.Dep_graph.flush_p) with
              | Some x, Some y -> max x y
              | Some x, None | None, Some x -> x
              | None, None -> a.Dep_graph.fence_p
            in
            add
              ~fix:
                (fix Fix.Insert_fence anchor
                   "order the dependence: fence between the two flushes")
              ~ident:
                (Printf.sprintf "dep:%s->%s" dep.Invariants.dep_src dep.Invariants.dep_dst)
              Ordering anchor
              (Printf.sprintf
                 "%s is read to derive %s (%d dependence witnesses) but both persist at the \
                  same fence in %d epoch(s)"
                 dep.Invariants.dep_src dep.Invariants.dep_dst dep.Invariants.dep_count
                 dep.Invariants.dep_co))
    invariants.Invariants.deps;
  (* ---- atomicity: accepted co-persist invariants split by a fence ---- *)
  List.iter
    (fun (ap : Invariants.atomic_stat) ->
      if ap.Invariants.a_split > 0 then
        match
          List.find_opt (fun (gi, _, _) -> gi = 0) ap.Invariants.a_split_instances
        with
        | None -> ()
        | Some (_, ida, idb) ->
            let a = Dep_graph.node g ida and b = Dep_graph.node g idb in
            add
              ~ident:(Printf.sprintf "atomic:%s&%s" ap.Invariants.a_loc1 ap.Invariants.a_loc2)
              Atomicity
              (min a.Dep_graph.fence_p b.Dep_graph.fence_p)
              (Printf.sprintf
                 "%s and %s persist atomically in %d epoch(s) (confidence %.2f) but are \
                  split %d time(s); a crash between the fences tears the pair"
                 ap.Invariants.a_loc1 ap.Invariants.a_loc2 ap.Invariants.a_co
                 (Invariants.a_confidence ap) ap.Invariants.a_split))
    invariants.Invariants.atomic_pairs;
  (* ---- persistency instructions that do no work, as the persistency
          fold classifies them: one finding per (kind, code path) at its
          first dynamic instance, the one the report keeps ---- *)
  let fold = Persist_fold.create () and sites = Hashtbl.create 64 in
  let first kind = function
    | None -> true
    | Some c ->
        let key = (kind, Pmtrace.Callstack.capture_to_string c) in
        (not (Hashtbl.mem sites key)) && (Hashtbl.replace sites key (); true)
  in
  List.iter
    (fun (e : Pmtrace.Event.t) ->
      let step = Persist_fold.feed fold e in
      let p = Persist_fold.pseq fold and stack = e.Pmtrace.Event.stack in
      match (Persist_fold.redundancy step e.Pmtrace.Event.op, e.Pmtrace.Event.op) with
      | Some detail, Pmem.Op.Flush { line; _ } when first Redundant_flush stack ->
          let why =
            if step = Persist_fold.Volatile_flush then "the flushed address is not in the PM pool"
            else "the line holds no unpersisted stores"
          in
          add ~fix:(fix (Fix.Delete_flush { line }) p why) Redundant_flush p detail
      | Some detail, Pmem.Op.Fence _ when first Redundant_fence stack ->
          add ~fix:(fix Fix.Delete_fence p "no flush or NT store to drain") Redundant_fence p detail
      | _ -> ())
    events;
  (* Deterministic findings order: invariant tables iterate in hash order,
     so emission order can drift across runs — sort by (anchor, kind,
     detail) instead. *)
  let findings =
    List.sort
      (fun a b ->
        Stdlib.compare (a.seq, kind_rank a.kind, a.detail) (b.seq, kind_rank b.kind, b.detail))
      !findings
  in
  { findings; invariants; graph = g; runs; events = runs * g.Dep_graph.events }

let pp_finding ppf f =
  Fmt.pf ppf "[SA] %s: %s%s" (kind_to_string f.kind) f.detail
    (match f.fix with None -> "" | Some fx -> "\n    fix: " ^ Fix.to_string fx)
