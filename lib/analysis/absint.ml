(** Path-sensitive persistency abstract interpreter over the merged
    multi-trace automaton ({!Cfg}).

    Each cache line is tracked through the persistency lattice of the
    paper's flush/fence dataflow analyses —

    {v bot < clean < dirty < flushed-pending < persisted v}

    — refined internally into a powerset of line facts so that joins at
    merge points keep every possibility instead of collapsing to top. The
    refinement additionally splits [dirty] and [flushed-pending] by
    {e epoch}: a line dirtied since the most recent flush/fence boundary
    ([Dirty_epoch]) is distinguishable from one left dirty across a
    boundary ([Dirty_stale]). That split is what the failure-point proof
    needs: at a failure point the current epoch's in-flight stores are
    always part of the crash image (crash images are program-prefix cuts),
    so only {e stale} dirty or pending lines can make the cut at this point
    differ from a graceful shutdown.

    Transfer functions mirror {!Pmem.Device}: stores dirty the spanned
    lines (non-temporal stores enqueue them for the next fence instead),
    [clflush] persists its line immediately, [clflushopt]/[clwb] move dirty
    lines to flushed-pending, any fence — including the implicit fence of
    an RMW — promotes pending lines to persisted, and every flush/fence
    closes the current store epoch.

    The fixpoint is used two ways:
    - {e findings}: lines still dirty/pending at automaton exit, and stores
      that overtake an un-fenced flush, each reported with a concrete
      merged-path witness;
    - {e proofs}: a site is proven safe when on {e every} merged path into
      it all lines dirtied before the current epoch are persisted — the
      optimizer ranks its plans by these proofs. *)

module Lattice = struct
  (** The chain the analysis abstracts per cache line. *)
  type elem = Bot | Clean | Dirty | Flushed_pending | Persisted

  let rank = function
    | Bot -> 0
    | Clean -> 1
    | Dirty -> 2
    | Flushed_pending -> 3
    | Persisted -> 4

  let join a b = if rank a >= rank b then a else b
  let leq a b = rank a <= rank b

  let elem_to_string = function
    | Bot -> "bot"
    | Clean -> "clean"
    | Dirty -> "dirty"
    | Flushed_pending -> "flushed-pending"
    | Persisted -> "persisted"

  let all_elems = [ Bot; Clean; Dirty; Flushed_pending; Persisted ]

  (** Powerset refinement: a mask collects the chain facts that hold on
      {e some} merged path, with dirty/pending split by store epoch. Join
      is bitwise-or — trivially associative, commutative, idempotent and
      monotone, which is what keeps the fixpoint canonical. *)
  type mask = int

  let bot = 0
  let clean = 1
  (* dirty_epoch: dirtied since the last flush/fence boundary;
     dirty_stale: left dirty across a boundary; pending_epoch: NT store
     buffered this epoch; pending_stale: flushed, fence outstanding. *)
  let dirty_epoch = 2
  let dirty_stale = 4
  let pending_epoch = 8
  let pending_stale = 16
  let persisted = 32
  let dirty_bits = dirty_epoch lor dirty_stale
  let pending_bits = pending_epoch lor pending_stale
  let mask_join : mask -> mask -> mask = ( lor )
  let mask_leq a b = a lor b = b
  let all_masks = List.init 64 Fun.id

  (** Summarize a mask back onto the chain (worst outstanding fact). *)
  let elem_of_mask m =
    if m = 0 then Bot
    else if m land dirty_bits <> 0 then Dirty
    else if m land pending_bits <> 0 then Flushed_pending
    else if m land persisted <> 0 then Persisted
    else Clean
end

open Lattice

(** Abstract value of one cache line: the fact mask plus deterministic
    witness sites (minimal node key) for the outstanding dirty/pending
    facts, used to anchor findings. *)
type value = { mask : mask; wit_dirty : string option; wit_pending : string option }

let omin a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (if String.compare a b <= 0 then a else b)

let value_join a b =
  {
    mask = mask_join a.mask b.mask;
    wit_dirty = omin a.wit_dirty b.wit_dirty;
    wit_pending = omin a.wit_pending b.wit_pending;
  }

let value_equal a b =
  a.mask = b.mask && a.wit_dirty = b.wit_dirty && a.wit_pending = b.wit_pending

module Lines = Map.Make (Int)

(** Abstract state: cache line -> value; absent lines are bottom. *)
type state = value Lines.t

let state_join = Lines.union (fun _ a b -> Some (value_join a b))
let state_equal = Lines.equal value_equal

(** Close the current store epoch: epoch-local facts become stale. Applied
    by every flush/fence, mirroring how a persistency instruction starts a
    new store epoch in the failure-point discipline. *)
let epoch_close st =
  Lines.map
    (fun v ->
      let m = v.mask in
      let m' =
        m
        land lnot (dirty_epoch lor pending_epoch)
        lor (if m land dirty_epoch <> 0 then dirty_stale else 0)
        lor if m land pending_epoch <> 0 then pending_stale else 0
      in
      { v with mask = m' })
    st

let find_line st line =
  match Lines.find_opt line st with
  | Some v -> v
  | None -> { mask = bot; wit_dirty = None; wit_pending = None }

(** Transfer of a single observed instruction instance at node [key]. *)
let apply ~key st (instr : Cfg.instr) =
  match instr with
  | Cfg.Store { lines; nt = false } ->
      (* Strong update: the store rewrites the line's content this epoch;
         any stale unpersisted bytes on the line are absorbed — flushing
         the line now persists them together with the new data. *)
      List.fold_left
        (fun st line ->
          Lines.add line { mask = dirty_epoch; wit_dirty = Some key; wit_pending = None } st)
        st lines
  | Cfg.Store { lines; nt = true } ->
      (* Non-temporal: bypasses the cache and queues for the next fence —
         flushed-pending in chain terms. Stale dirty facts survive (the NT
         store does not flush pre-existing cached data). *)
      List.fold_left
        (fun st line ->
          let v = find_line st line in
          let stale_dirty = v.mask land dirty_bits in
          let old_pending = if v.mask land pending_bits <> 0 then v.wit_pending else None in
          Lines.add line
            {
              mask = stale_dirty lor pending_epoch;
              wit_dirty = (if stale_dirty <> 0 then v.wit_dirty else None);
              wit_pending = omin old_pending (Some key);
            }
            st)
        st lines
  | Cfg.Flush { kind = Pmem.Op.Clflush; line } ->
      (* clflush is synchronous in the device model: line persisted now. *)
      Lines.add line { mask = persisted; wit_dirty = None; wit_pending = None } st
      |> epoch_close
  | Cfg.Flush { kind = Pmem.Op.Clflushopt | Pmem.Op.Clwb; line } ->
      let v = find_line st line in
      let outstanding = v.mask land (dirty_bits lor pending_bits) <> 0 in
      let kept = v.mask land (clean lor persisted) in
      (* flushing a line that carries no fact adds none: deriving [clean]
         from bottom would break monotonicity in the input state *)
      let mask = if outstanding then kept lor pending_epoch else kept in
      let old_pending = if v.mask land pending_bits <> 0 then v.wit_pending else None in
      let wit_pending = if outstanding then omin old_pending (Some key) else None in
      Lines.add line { mask; wit_dirty = None; wit_pending } st |> epoch_close
  | Cfg.Fence _ ->
      (* Any fence kind (sfence/mfence/RMW drain) retires pending flushes
         and NT stores; dirty-but-unflushed lines stay dirty. *)
      Lines.map
        (fun v ->
          let retired = if v.mask land pending_bits <> 0 then persisted else 0 in
          let mask = v.mask land lnot pending_bits lor retired in
          { v with mask; wit_pending = None })
        st
      |> epoch_close

(** Transfer of a node: join over every instruction instance the site
    observed across runs (a site observing several instances acts as a
    weak update — each possibility is kept). *)
let transfer (node : Cfg.node) st =
  match node.Cfg.instrs with
  | [] -> st
  | [ i ] -> apply ~key:node.Cfg.key st i
  | is ->
      List.fold_left
        (fun acc i -> state_join acc (apply ~key:node.Cfg.key st i))
        Lines.empty is

type kind = Missing_flush | Missing_fence | Ordering

let kind_to_string = function
  | Missing_flush -> "missing-flush"
  | Missing_fence -> "missing-fence"
  | Ordering -> "ordering"

let kind_rank = function Missing_flush -> 0 | Missing_fence -> 1 | Ordering -> 2

type finding = {
  f_kind : kind;
  f_line : int;  (** the cache line the fact is about *)
  f_site : Pmtrace.Callstack.capture option;  (** anchor: witness site *)
  f_pseq : int;  (** first persistency index of the anchor (ordering) *)
  f_detail : string;  (** includes the concrete merged-path witness *)
}

type t = {
  cfg : Cfg.t;
  ins : (string, state) Hashtbl.t;  (** fixpoint: abstract state on entry *)
  exit_state : state;  (** join over all run-exit predecessors' out *)
  findings : finding list;
  proven : (string, unit) Hashtbl.t;  (** sites safe on every merged path *)
  eadr : bool;
}

(** Abstract state on entry to each site's {e first} dynamic occurrence:
    the join, across the merged runs, of a linear abstract walk of each
    recording. Fault injection crashes a failure point at its first
    dynamic occurrence, so this — not the site-merged fixpoint, which
    joins {e every} occurrence of a repeated site and smears one
    mid-transaction occurrence over all of them — is the abstract state
    that corresponds to the crash image the oracle would judge. *)
let first_occurrence_states runs =
  let first : (string, state) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun events ->
      let seen = Hashtbl.create 256 in
      let st = ref Lines.empty in
      List.iter
        (fun (e : Pmtrace.Event.t) ->
          match Cfg.instr_of_op e.Pmtrace.Event.op with
          | None -> ()
          | Some instr ->
              let key =
                match e.Pmtrace.Event.stack with
                | Some c -> Pmtrace.Callstack.capture_to_string c
                | None -> "?"
              in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                let joined =
                  match Hashtbl.find_opt first key with
                  | None -> !st
                  | Some prev -> state_join prev !st
                in
                Hashtbl.replace first key joined
              end;
              st := apply ~key !st instr)
        events)
    runs;
  first

(** Worklist fixpoint. States only grow (join is monotone on a finite
    lattice per line), so this terminates; nodes are processed in
    deterministic (first_pseq, key) order for reproducible witnesses. *)
let fixpoint (cfg : Cfg.t) =
  let ins : (string, state) Hashtbl.t = Hashtbl.create 256 in
  let in_of key = Option.value (Hashtbl.find_opt ins key) ~default:Lines.empty in
  let queued = Hashtbl.create 256 in
  let queue = Queue.create () in
  let enqueue key =
    if not (Hashtbl.mem queued key) then begin
      Hashtbl.replace queued key ();
      Queue.add key queue
    end
  in
  List.iter
    (fun key ->
      if not (Hashtbl.mem ins key) then Hashtbl.replace ins key Lines.empty;
      enqueue key)
    cfg.Cfg.entry_succs;
  while not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    Hashtbl.remove queued key;
    match Cfg.find_opt cfg key with
    | None -> ()
    | Some node ->
        let out = transfer node (in_of key) in
        List.iter
          (fun succ ->
            let cur = Hashtbl.find_opt ins succ in
            let joined =
              match cur with None -> out | Some st -> state_join st out
            in
            let changed =
              match cur with None -> true | Some st -> not (state_equal st joined)
            in
            if changed then begin
              Hashtbl.replace ins succ joined;
              enqueue succ
            end)
          node.Cfg.succs
  done;
  ins

let capture_of_key cfg key =
  Option.map (fun n -> n.Cfg.capture) (Cfg.find_opt cfg key)

let witness_clause cfg key =
  let tail = Cfg.witness_tail cfg key in
  if tail = "" then "" else Printf.sprintf " [path %s]" tail

(** [analyze ~eadr runs] merges the recordings, runs the fixpoint and
    derives findings and safety proofs. Under eADR the durability findings
    are suppressed (flushes and fences are not required for durability),
    but proofs are still computed — crash images are program-prefix cuts
    either way. *)
let analyze ~eadr runs =
  let cfg = Cfg.build runs in
  let ins = fixpoint cfg in
  let in_of key = Option.value (Hashtbl.find_opt ins key) ~default:Lines.empty in
  (* Exit state: join of every run-terminating node's transfer output. *)
  let exit_state =
    List.fold_left
      (fun acc key ->
        match Cfg.find_opt cfg key with
        | None -> acc
        | Some node -> state_join acc (transfer node (in_of key)))
      Lines.empty cfg.Cfg.exit_preds
  in
  (* Safety proofs: a site is safe when, at its first dynamic occurrence
     in every merged run, no line carries a stale (pre-epoch) dirty or
     pending fact — the crash image there then only differs from a
     graceful shutdown by the current epoch's stores, which are part of
     any program-prefix cut. First-occurrence states (not the site-merged
     fixpoint) are what injection corresponds to: the loop crashes a
     failure point at its first occurrence. *)
  let first = first_occurrence_states runs in
  let proven = Hashtbl.create 128 in
  List.iter
    (fun (node : Cfg.node) ->
      match Hashtbl.find_opt first node.Cfg.key with
      | None -> ()
      | Some st ->
          let safe =
            Lines.for_all
              (fun _ v -> v.mask land (dirty_stale lor pending_stale) = 0)
              st
          in
          if safe then Hashtbl.replace proven node.Cfg.key ())
    (Cfg.sorted_nodes cfg);
  (* Findings. Deduplicated by (kind, anchor site): the report collapses
     same-site findings anyway, so keep the first (lowest line). *)
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let emit f_kind ~line ~site_key ~pseq detail =
    let dedup = kind_to_string f_kind ^ "@" ^ Option.value site_key ~default:"?" in
    if not (Hashtbl.mem seen dedup) then begin
      Hashtbl.replace seen dedup ();
      let f_site = Option.bind site_key (capture_of_key cfg) in
      acc := { f_kind; f_line = line; f_site; f_pseq = pseq; f_detail = detail } :: !acc
    end
  in
  let pseq_of_key key =
    match Option.bind key (Cfg.find_opt cfg) with
    | Some n -> n.Cfg.first_pseq
    | None -> max_int
  in
  (* Ordering: a store overtaking an un-fenced flush of the same line on
     some merged path. Detected from the fixpoint IN state of store
     nodes. *)
  List.iter
    (fun (node : Cfg.node) ->
      let st = in_of node.Cfg.key in
      List.iter
        (function
          | Cfg.Store { lines; _ } ->
              List.iter
                (fun line ->
                  let v = find_line st line in
                  if v.mask land pending_bits <> 0 then
                    emit Ordering ~line ~site_key:(Some node.Cfg.key)
                      ~pseq:node.Cfg.first_pseq
                      (Printf.sprintf
                         "store to cache line %d overtakes an un-fenced flush \
                          of the same line on a merged path%s"
                         line
                         (witness_clause cfg node.Cfg.key)))
                lines
          | Cfg.Flush _ | Cfg.Fence _ -> ())
        node.Cfg.instrs)
    (Cfg.sorted_nodes cfg);
  (* Durability at exit: lines that can reach the end of execution dirty
     (never flushed) or flushed-pending (never fenced) on a merged path. *)
  if not eadr then
    Lines.iter
      (fun line v ->
        (* Missing-flush requires persist intent: the line is flushed or
           persisted on some merged path yet can exit dirty on another.
           Lines never flushed anywhere are transient/scratch data — the
           trace analysis and static analyzer already classify those. *)
        if v.mask land dirty_bits <> 0 && v.mask land (pending_bits lor persisted) <> 0
        then
          emit Missing_flush ~line ~site_key:v.wit_dirty ~pseq:(pseq_of_key v.wit_dirty)
            (Printf.sprintf
               "cache line %d can reach the end of execution unflushed on a \
                merged path%s"
               line
               (match v.wit_dirty with
               | Some k -> witness_clause cfg k
               | None -> ""));
        if v.mask land pending_bits <> 0 then
          emit Missing_fence ~line ~site_key:v.wit_pending
            ~pseq:(pseq_of_key v.wit_pending)
            (Printf.sprintf
               "cache line %d is flushed but can reach the end of execution \
                without a fence on a merged path%s"
               line
               (match v.wit_pending with
               | Some k -> witness_clause cfg k
               | None -> "")))
      exit_state;
  let findings =
    List.sort
      (fun a b ->
        match compare a.f_pseq b.f_pseq with
        | 0 -> (
            match compare (kind_rank a.f_kind) (kind_rank b.f_kind) with
            | 0 -> compare a.f_line b.f_line
            | c -> c)
        | c -> c)
      !acc
  in
  { cfg; ins; exit_state; findings; proven; eadr }

let proven_count t = Hashtbl.length t.proven

let proven_safe_at t capture =
  Hashtbl.mem t.proven (Pmtrace.Callstack.capture_to_string capture)

let pp ppf t =
  Fmt.pf ppf "absint: %d nodes, %d edges, %d runs merged, %d findings, %d sites proven safe"
    (Cfg.node_count t.cfg) (Cfg.edge_count t.cfg) t.cfg.Cfg.runs
    (List.length t.findings) (proven_count t)

(** Ledger encoding of one merged-path finding (the path witness rides in
    [f_detail]). *)
let finding_to_json (f : finding) =
  let open Telemetry.Json in
  Assoc
    [
      ("kind", String (kind_to_string f.f_kind));
      ("line", Int f.f_line);
      ( "site",
        match f.f_site with
        | None -> Null
        | Some c -> String (Pmtrace.Callstack.capture_to_string c) );
      ("pseq", Int f.f_pseq);
      ("detail", String f.f_detail);
    ]

(** Ledger encoding of the phase: CFG size, per-site safety proof count and
    the findings with their path witnesses. *)
let to_json t =
  let open Telemetry.Json in
  Assoc
    [
      ("nodes", Int (Cfg.node_count t.cfg));
      ("proven_sites", Int (proven_count t));
      ("eadr", Bool t.eadr);
      ("findings", List (List.map finding_to_json t.findings));
    ]
