(** Engine-backed fix verification: every {!Fix.t} the analyses suggest is
    applied to the recorded trace as a concrete edit, the rewritten trace is
    replayed, and both the crash-consistency oracle and the static detectors
    are re-run over the result — upgrading an advisory suggestion to a
    machine-checked verdict.

    A fix is {e proven} when the finding it targets disappears from the
    rewritten trace and no new harm shows up; {e ineffective} when the
    finding survives; {e harmful} when the rewrite introduces a new
    correctness-grade finding (oracle bug, structural durability /
    ordering / atomicity violation, stranded store window) or — for
    deletions, which promise behaviour preservation — changes the final
    persisted image.

    Everything here is offline: verification costs replays (trace
    interpretation), never target re-executions — one per rewritten
    recording, whose device both re-derives the trace's metadata and hands
    the oracle copy-on-write crash views at each failure point. One
    recording serves every check: the static recheck reads its loads, the
    others skip them. The oracle
    and failure-point enumerators are passed in as closures so this module
    stays below the engine in the dependency order. *)

type verdict = Proven | Ineffective | Harmful

let verdict_to_string = function
  | Proven -> "proven"
  | Ineffective -> "ineffective"
  | Harmful -> "harmful"

type source = Static_finding | Lint_finding

let source_to_string = function Static_finding -> "static" | Lint_finding -> "lint"

type candidate = {
  c_source : source;
  c_kind : string;  (** source-specific kind string of the targeted finding *)
  c_stack : Pmtrace.Callstack.capture option;  (** the finding's code path *)
  c_pseq : int;  (** the finding's persistency-index anchor *)
  c_fix : Fix.t;
}

type outcome = { o_candidate : candidate; o_verdict : verdict; o_detail : string }

type t = {
  outcomes : outcome list;  (** in {!Fix.compare} order of the fixes *)
  proven : int;
  ineffective : int;
  harmful : int;
  replays : int;  (** trace interpretations performed: 1 + candidates *)
}

(* Finding identity across a rewrite: kind + code path. Stacks survive
   rewriting (recorded events keep theirs; synthesized events have none),
   whereas anchors and detail strings embed persistency indices that shift
   past an insertion. *)
let finding_key kind stack pseq =
  kind ^ "@"
  ^
  match stack with
  | Some c -> Pmtrace.Callstack.capture_to_string c
  | None -> Printf.sprintf "#%d" pseq

let candidate_key c = finding_key c.c_kind c.c_stack c.c_pseq

(** The concrete trace edits a {!Fix.t} stands for at one anchor; with
    [with_fence] an inserted flush gets a fence right behind it (see
    {!expand_fix}). *)
let edits_at (fix : Fix.t) ?at_op ~with_fence pseq =
  match fix.Fix.action with
  | Fix.Insert_flush { line } ->
      (* a flush-the-store fix follows the store it repairs: when the
         instance is a store, flush the line *that* instance dirtied — the
         same source line touches a different cache line each execution *)
      let line =
        match at_op with
        | Some (Pmem.Op.Store { addr; _ }) -> Pmem.Addr.line_of addr
        | Some _ | None -> line
      in
      Pmtrace.Replay.Insert_flush_after { pseq; line }
      :: (if with_fence then [ Pmtrace.Replay.Insert_fence_after { pseq } ] else [])
  | Fix.Insert_fence -> [ Pmtrace.Replay.Insert_fence_after { pseq } ]
  | Fix.Delete_flush _ -> [ Pmtrace.Replay.Delete_flush_at { pseq } ]
  | Fix.Delete_fence -> [ Pmtrace.Replay.Delete_fence_at { pseq } ]
  (* transformation actions at a single anchor instance; the optimizer
     builds richer per-instance edit lists itself, this mapping is what a
     bare (stackless) anchor stands for *)
  | Fix.Move_flush { to_pseq; _ } -> [ Pmtrace.Replay.Move_flush_to { pseq; to_pseq } ]
  | Fix.Coalesce_flushes _ -> [ Pmtrace.Replay.Delete_flush_at { pseq } ]
  | Fix.Batch_fences _ -> [ Pmtrace.Replay.Delete_fence_at { pseq } ]
  | Fix.Convert_to_nt { flush_pseq; _ } ->
      [
        Pmtrace.Replay.Set_store_nt { pseq };
        Pmtrace.Replay.Delete_flush_at { pseq = flush_pseq };
      ]
  | Fix.Convert_to_clwb _ ->
      [ Pmtrace.Replay.Set_flush_kind { pseq; kind = Pmem.Op.Clwb } ]

(* A fix names a code site, not a dynamic instruction: every event whose
   capture (innermost path + ordinal) equals the fix's anchor is the same
   static instruction executing again. Captures of frame instances that
   took different branches can collide on the ordinal, so an instance also
   has to carry the op shape the fix's action expects (deletes anchor at
   the deleted flush/fence, inserts at the store to be persisted). *)
let site_pseqs (fix : Fix.t) events =
  let shape : Pmem.Op.t -> _ = function
    | Pmem.Op.Store _ -> `Store
    | Pmem.Op.Flush _ -> `Flush
    | Pmem.Op.Fence _ -> `Fence
    | Pmem.Op.Load _ -> `Load
  in
  match fix.Fix.stack with
  | None -> [ (fix.Fix.seq, None) ]
  | Some c ->
      let want = Pmtrace.Callstack.capture_to_string c in
      let pseq = ref 0 and matches = ref [] in
      List.iter
        (fun (e : Pmtrace.Event.t) ->
          match e.Pmtrace.Event.op with
          | Pmem.Op.Load _ -> ()
          | op -> (
              incr pseq;
              match e.Pmtrace.Event.stack with
              | Some c' when Pmtrace.Callstack.capture_to_string c' = want ->
                  matches := (!pseq, op) :: !matches
              | _ -> ()))
        events;
      let matches = List.rev !matches in
      (* only instances shaped like the anchor event count: captures of
         frame instances that branched differently can collide on the
         ordinal, and a delete edit additionally requires its shape *)
      let anchor_shape =
        Option.map shape (List.assoc_opt fix.Fix.seq matches)
      in
      let allowed s =
        (match anchor_shape with Some a -> s = a | None -> true)
        &&
        match fix.Fix.action with
        | Fix.Delete_flush _ -> s = `Flush
        | Fix.Delete_fence -> s = `Fence
        | Fix.Insert_flush _ | Fix.Insert_fence -> true
        | Fix.Move_flush _ | Fix.Coalesce_flushes _ | Fix.Convert_to_clwb _ -> s = `Flush
        | Fix.Batch_fences _ -> s = `Fence
        | Fix.Convert_to_nt _ -> s = `Store
      in
      (match
         List.filter_map
           (fun (p, op) -> if allowed (shape op) then Some (p, Some op) else None)
           matches
       with
      | [] -> [ (fix.Fix.seq, None) ]
      | l -> l)

(** A source-level repair applies everywhere the repaired instruction
    executes: the fix's edits, expanded to every dynamic instance of its
    anchor site in [events] (inserted flushes chase each instance's own
    cache line). An inserted flush is paired with a fence only when no
    recorded fence follows it — a later fence drains the flush anyway,
    while a synthesized one splits the surrounding persist epoch and can
    break the program's own atomicity batching. *)
let expand_fix (fix : Fix.t) events =
  let last_fence_p =
    let pseq = ref 0 and last = ref 0 in
    List.iter
      (fun (e : Pmtrace.Event.t) ->
        match e.Pmtrace.Event.op with
        | Pmem.Op.Load _ -> ()
        | Pmem.Op.Fence _ ->
            incr pseq;
            last := !pseq
        | _ -> incr pseq)
      events;
    !last
  in
  List.concat_map
    (fun (p, at_op) -> edits_at fix ?at_op ~with_fence:(p >= last_fence_p) p)
    (site_pseqs fix events)

let is_delete (fix : Fix.t) =
  match fix.Fix.action with
  | Fix.Delete_flush _ | Fix.Delete_fence -> true
  | Fix.Insert_flush _ | Fix.Insert_fence -> false
  (* every transformation action promises behaviour preservation, so it is
     held to the deletion standard: the final persisted image must not
     change *)
  | Fix.Move_flush _ | Fix.Coalesce_flushes _ | Fix.Batch_fences _ | Fix.Convert_to_nt _
  | Fix.Convert_to_clwb _ -> true

(* ------------------------------------------------------------------ *)
(* Key sets from the three checkers                                    *)
(* ------------------------------------------------------------------ *)

module Keys = Set.Make (String)

let static_keys ~correctness_only (s : Static.t) =
  List.fold_left
    (fun acc (f : Static.finding) ->
      let corr =
        match f.Static.kind with
        | Static.Durability | Static.Ordering | Static.Atomicity -> true
        | Static.Transient | Static.Redundant_flush | Static.Redundant_fence -> false
      in
      if correctness_only && not corr then acc
      else
        let key =
          (* invariant-backed findings carry the violated invariant's
             identity: a rewrite that shifts the anchor or re-describes the
             violation (dangling pointee -> unordered pointee) is still the
             same defect, not a new one *)
          match f.Static.ident with
          | Some id -> Static.kind_to_string f.Static.kind ^ "@" ^ id
          | None -> finding_key (Static.kind_to_string f.Static.kind) f.Static.stack f.Static.seq
        in
        Keys.add key acc)
    Keys.empty s.Static.findings

let lint_keys ?only (l : Lint.t) =
  List.fold_left
    (fun acc (f : Lint.finding) ->
      if match only with Some k -> f.Lint.l_kind <> k | None -> false then acc
      else Keys.add (finding_key (Lint.kind_to_string f.Lint.l_kind) f.Lint.l_stack f.Lint.l_pseq) acc)
    Keys.empty l.Lint.findings

(* A post-rewrite finding anchored at a synthesized event (stackless key,
   "kind@#pseq") has no source location: it is the detector re-describing
   the inserted instruction itself, not a new defect at a program site.
   Hazards between recorded instructions keep their stacks and still
   register. *)
let attributable key =
  match String.index_opt key '@' with
  | Some i -> not (i + 1 < String.length key && key.[i + 1] = '#')
  | None -> true

(* ------------------------------------------------------------------ *)
(* The one-pass verifier                                               *)
(* ------------------------------------------------------------------ *)

type pass = { normalized : Pmtrace.Event.t list; bugs : Keys.t list; device : Pmem.Device.t }

(* Oracle verdicts by crash-image fingerprint. The oracle is
   deterministic and reads nothing but the image, so one verdict serves
   every view of equal bytes, under any policy and in any pass. *)
type memo = (string, (string * string) option) Hashtbl.t

let memo () : memo = Hashtbl.create 256

(* One interpretation of [recording] yields everything a verdict reads:
   the normalized events, the oracle-bug keys of each crash view, and the
   final device. Failure points are enumerated on the recording itself;
   each one at or past [from] is judged once, on zero-copy views of the
   replaying device, and then forgotten — a load that follows it shares
   its pseq but must not judge it again on the post-event image. With a
   [memo], a view whose fingerprint it holds is answered from it, without
   building the view. *)
let pass ?(from = 1) ?memo ~views ~points ~oracle recording =
  Telemetry.Collector.span ~cat:"replay" ~hist:"replay_ns" "replay" @@ fun () ->
  let want = Hashtbl.create 64 in
  List.iter
    (fun (_, pseq, capture) -> if pseq >= from then Hashtbl.replace want pseq capture)
    (points (Pmtrace.Replay.events recording));
  let bugs = Array.make (List.length views) Keys.empty in
  let oracle_calls = ref 0 and memo_hits = ref 0 in
  let run device policy =
    incr oracle_calls;
    oracle (Pmem.Device.crash_view device ~policy)
  in
  let judge device policy =
    match memo with
    | None -> run device policy
    | Some memo -> (
        let image = Pmem.Device.fingerprint device ~policy in
        match Hashtbl.find memo image with
        | verdict ->
            incr memo_hits;
            verdict
        | exception Not_found ->
            let verdict = run device policy in
            Hashtbl.add memo image verdict;
            verdict)
  in
  let normalized, device =
    Pmtrace.Replay.pass recording ~on_event:(fun device ~pseq _e ->
        match Hashtbl.find_opt want pseq with
        | None -> ()
        | Some capture ->
            Hashtbl.remove want pseq;
            List.iteri
              (fun i policy ->
                match judge device policy with
                | None -> ()
                | Some (kind, _detail) ->
                    let key = kind ^ "@" ^ Pmtrace.Callstack.capture_to_string capture in
                    bugs.(i) <- Keys.add key bugs.(i))
              views)
  in
  Telemetry.Collector.count "verify.oracle_calls" !oracle_calls;
  Telemetry.Collector.count "verify.memo_hits" !memo_hits;
  { normalized; bugs = Array.to_list bugs; device }

type harm =
  | Oracle_bug of string
  | Adr_oracle_bug of string
  | Structural_violation of string
  | Stranded_window of string
  | Image_changed

let harm_to_string = function
  | Oracle_bug k -> "introduces an oracle bug: " ^ k
  | Adr_oracle_bug k -> "introduces an oracle bug under the ADR crash view: " ^ k
  | Structural_violation v -> "introduces a structural violation: " ^ v
  | Stranded_window v -> "strands a store window: " ^ v
  | Image_changed -> "changes the final persisted image"

(* The crash views a rewrite is judged under, each with the harm a fresh
   bug under it reports. *)
let views ~adr =
  (Pmem.Device.Program_prefix, fun k -> Oracle_bug k)
  :: (if adr then [ (Pmem.Device.Adr, fun k -> Adr_oracle_bug k) ] else [])

type recheck = {
  r_events : Pmtrace.Event.t list;
  r_static : Static.t;
  r_lint : Lint.t;
  r_harm : harm option;
}

type baseline = {
  events : Pmtrace.Event.t list;
  recheck : preserve:bool -> Pmtrace.Replay.edit list -> (recheck, string) result;
  passes : unit -> int;
}

(* The baseline — one pass over the unmodified recording, its static and
   lint keys and its final image's fingerprint — and the harm cascade
   both judges share: rewrite, one pass over the rewritten trace (judging
   only the failure points at or after the first edit: before it the
   rewritten trace is the baseline's, event for event, so the
   deterministic oracle can only repeat baseline keys there), the static
   and lint rechecks, and the final image, reporting the first harm in
   that order. Every pass shares one oracle memo, so a crash image any
   pass has judged is never judged again. Every check but the static one
   skips the loads of a load-traced recording. *)
let baseline ?invariants ~support ~confidence ~eadr ~adr ~oracle ~points recording =
  let views = views ~adr in
  let events = Pmtrace.Replay.events recording in
  let static = Static.analyze ?invariants ~support ~confidence ~eadr events in
  let invariants = static.Static.invariants in
  let structural = static_keys ~correctness_only:true static in
  let missing = lint_keys ~only:Lint.Missing_flush (Lint.analyze ~eadr events) in
  let memo = memo () in
  let bugs, image =
    let base = pass ~memo ~views:(List.map fst views) ~points ~oracle recording in
    (base.bugs, Pmem.Device.persisted_fingerprint base.device)
  in
  let passes = ref 1 in
  let recheck ~preserve edits =
    match Pmtrace.Replay.rewrite recording edits with
    | exception Failure msg -> Error msg
    | rewritten ->
        let from =
          List.fold_left (fun p ed -> min p (Pmtrace.Replay.edit_anchor ed)) max_int edits
        in
        let re = pass ~from ~memo ~views:(List.map fst views) ~points ~oracle rewritten in
        incr passes;
        let r_static = Static.analyze ~invariants ~support ~confidence ~eadr re.normalized in
        let r_lint = Lint.analyze ~eadr re.normalized in
        let fresh got had = Keys.elements (Keys.diff got had) |> List.filter attributable in
        let r_harm =
          match
            List.find_map
              (fun ((_, harm), (got, had)) ->
                match fresh got had with k :: _ -> Some (harm k) | [] -> None)
              (List.combine views (List.combine re.bugs bugs))
          with
          | Some _ as oracle_harm -> oracle_harm
          | None -> (
              match
                ( fresh (static_keys ~correctness_only:true r_static) structural,
                  fresh (lint_keys ~only:Lint.Missing_flush r_lint) missing )
              with
              | v :: _, _ -> Some (Structural_violation v)
              | [], v :: _ -> Some (Stranded_window v)
              | [], [] ->
                  if
                    preserve
                    && not (String.equal (Pmem.Device.persisted_fingerprint re.device) image)
                  then
                    Some Image_changed
                  else None)
        in
        Ok { r_events = re.normalized; r_static; r_lint; r_harm }
  in
  { events; recheck; passes = (fun () -> !passes) }

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

let verify ?invariants ~support ~confidence ~eadr
    ~(oracle : Pmem.Image.t -> (string * string) option)
    ~(points : Pmtrace.Event.t list -> (int * int * Pmtrace.Callstack.capture) list)
    (recording : Pmtrace.Replay.t) (candidates : candidate list) =
  Telemetry.Collector.span ~cat:"verify" "verify_fixes" @@ fun () ->
  (* baseline: what the unmodified trace shows, under invariants mined once
     and reused for every recheck *)
  let base =
    baseline ?invariants ~support ~confidence ~eadr ~adr:false ~oracle ~points recording
  in
  (* deterministic order, one verdict per distinct edit *)
  let candidates =
    List.stable_sort (fun a b -> Fix.compare a.c_fix b.c_fix) candidates
    |> List.fold_left
         (fun (seen, acc) c ->
           let k = Fix.key c.c_fix in
           if List.mem k seen then (seen, acc) else (k :: seen, c :: acc))
         ([], [])
    |> snd |> List.rev
  in
  let judge c =
    let edits = expand_fix c.c_fix base.events in
    let verdict, detail =
      match base.recheck ~preserve:(is_delete c.c_fix) edits with
      | Error msg -> (Ineffective, msg)
      | Ok { r_harm = Some Image_changed; _ } ->
          (Harmful, "deletion " ^ harm_to_string Image_changed)
      | Ok { r_harm = Some harm; _ } -> (Harmful, harm_to_string harm)
      | Ok { r_static; r_lint; r_harm = None; _ } ->
          let target_gone =
            let keys =
              match c.c_source with
              | Static_finding -> static_keys ~correctness_only:false r_static
              | Lint_finding -> lint_keys r_lint
            in
            not (Keys.mem (candidate_key c) keys)
          in
          if target_gone then
            (Proven, "targeted finding gone from the rewritten trace; no new findings")
          else (Ineffective, "targeted finding still present in the rewritten trace")
    in
    { o_candidate = c; o_verdict = verdict; o_detail = detail }
  in
  let outcomes = List.map judge candidates in
  let tally v = List.length (List.filter (fun o -> o.o_verdict = v) outcomes) in
  let proven = tally Proven and ineffective = tally Ineffective and harmful = tally Harmful in
  Telemetry.Collector.count "fix.proven" proven;
  Telemetry.Collector.count "fix.ineffective" ineffective;
  Telemetry.Collector.count "fix.harmful" harmful;
  { outcomes; proven; ineffective; harmful; replays = base.passes () }

(** Ledger encoding of one replay-backed verdict. *)
let outcome_to_json (o : outcome) =
  let open Telemetry.Json in
  let c = o.o_candidate in
  Assoc
    [
      ("source", String (source_to_string c.c_source));
      ("kind", String c.c_kind);
      ( "stack",
        match c.c_stack with
        | None -> Null
        | Some s -> String (Pmtrace.Callstack.capture_to_string s) );
      ("pseq", Int c.c_pseq);
      ("fix", String (Fix.to_string c.c_fix));
      ("verdict", String (verdict_to_string o.o_verdict));
      ("detail", String o.o_detail);
    ]

(** Ledger encoding of the phase: the verdict tally plus every outcome. *)
let to_json t =
  let open Telemetry.Json in
  Assoc
    [
      ("proven", Int t.proven);
      ("ineffective", Int t.ineffective);
      ("harmful", Int t.harmful);
      ("replays", Int t.replays);
      ("outcomes", List (List.map outcome_to_json t.outcomes));
    ]
