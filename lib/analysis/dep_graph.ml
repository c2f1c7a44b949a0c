(** The per-cacheline persistency dependency graph, built offline from one
    recorded execution trace.

    A {e node} is one persist: a cache line whose pending stores reached
    durability at one fence — the store → flush → fence lineage of that
    line within one fence epoch. Store/flush/fence positions are kept in two
    coordinate systems: the raw trace [seq] (which counts loads when the
    recording traced them) and the {e persistency index} ([*_p] fields,
    loads excluded), which equals the instruction counter of a load-free
    execution of the same workload and is therefore directly comparable
    with trace-analysis finding seqs and failure-point first occurrences.

    Two kinds of directed evidence connect nodes:
    - {e read-after-persist edges}: a load of an already-persisted line A
      followed by a store that joins line B's pending window witnesses that
      B's new content may depend on A's persisted content — A must persist
      before B (Witcher-style dependence, PAPERS.md);
    - {e pointer chases}: two consecutive loads inside the same frame
      activation, first of persisted line X and then of line Y, witness
      that readers reach Y's data {e through} X — so Y (the pointee) must
      be persisted no later than X (the pointer). A chase whose pointee
      persisted in the same or a later epoch than the pointer, or never
      persisted at all, is an ordering hazard.

    Edges always point from an earlier fence epoch into a strictly later
    one (a persisted line can only be read after its fence), so the graph
    is acyclic per construction — a property the qcheck suite verifies
    independently via {!check}. *)

type node = {
  id : int;  (** creation order: nondecreasing in (epoch, fence) *)
  line : int;
  epoch : int;  (** index of the fence that persisted this window *)
  first_store : int;  (** raw trace seq *)
  last_store : int;
  store_count : int;
  flush : int option;  (** raw seq of the capturing flush; [None] = NT store *)
  fence : int;  (** raw seq of the persisting fence *)
  first_store_p : int;  (** persistency-index coordinates (loads excluded) *)
  last_store_p : int;
  flush_p : int option;
  fence_p : int;
  locs : string list;  (** store locations (captures), when recorded *)
}

type edge = {
  src : int;  (** node id of the persisted line that was read *)
  dst : int;  (** node id of the window a later store contributed to *)
  witness : int;  (** raw seq of the witnessing load *)
}

(** What the second load of a pointer chase found for the pointee line. *)
type pointee = Persisted of int  (** node id *) | Dirty_window | Unknown

type chase = {
  c_src : int;  (** node id of the pointer line's persist *)
  c_dst : pointee;
  c_dst_line : int;
  c_seq : int;  (** raw seq of the pointee load *)
  c_seq_p : int;  (** persistency index right before the pointee load *)
  c_paths : string * string;  (** frame paths of the two loads, for grouping *)
}

(** A store window that never reached durability. *)
type dangling = {
  d_line : int;
  d_first_store_p : int;
  d_last_store_p : int;
  d_flush_p : int option;  (** [Some _]: flushed but never fenced *)
  d_locs : string list;
  d_line_flushed : bool;  (** the line is flushed elsewhere in the trace *)
  d_line_persisted : bool;  (** the line has earlier persist nodes *)
}

type t = {
  nodes : node array;
  edges : edge list;
  chases : chase list;
  dangling : dangling list;
  epochs : int;  (** number of fences in the trace *)
  events : int;
}

(* ---------------------------------------------------------------- *)
(* Builder                                                          *)
(* ---------------------------------------------------------------- *)

type window = {
  w_line : int;
  w_first_store : int;
  w_first_store_p : int;
  mutable w_last_store : int;
  mutable w_last_store_p : int;
  mutable w_count : int;
  mutable w_locs : string list;
  mutable w_deps : (int * int) list;  (* src node id, witness raw seq *)
  mutable w_flush : (int * int) option;  (* raw seq, persistency index *)
}

let ring_max = 16

type builder = {
  mutable pseq : int;
  mutable epoch : int;
  mutable next_id : int;
  pending : (int, window) Hashtbl.t;  (* line -> open window *)
  mutable ready : window list;  (* captured, awaiting the next fence; newest first *)
  last_persist : (int, int) Hashtbl.t;  (* line -> newest node id *)
  flushed : (int, unit) Hashtbl.t;  (* lines with a non-volatile flush *)
  mutable nodes_rev : node list;
  mutable edges_rev : edge list;
  mutable chases_rev : chase list;
  mutable ring : (int * int * int) list;  (* node id, line, raw load seq *)
  mutable prev_load : (int * string * int * int) option;
      (* line, frame path, op_index, raw seq of the previous load *)
  mutable events : int;
}

let create_builder () =
  {
    pseq = 0;
    epoch = 0;
    next_id = 0;
    pending = Hashtbl.create 256;
    ready = [];
    last_persist = Hashtbl.create 256;
    flushed = Hashtbl.create 256;
    nodes_rev = [];
    edges_rev = [];
    chases_rev = [];
    ring = [];
    prev_load = None;
    events = 0;
  }

let loc_of (event : Pmtrace.Event.t) =
  match event.Pmtrace.Event.stack with
  | Some c -> Some (Pmtrace.Callstack.capture_to_string c)
  | None -> None

let path_of (event : Pmtrace.Event.t) =
  match event.Pmtrace.Event.stack with
  | Some c -> String.concat ">" c.Pmtrace.Callstack.path
  | None -> ""

let op_index_of (event : Pmtrace.Event.t) =
  match event.Pmtrace.Event.stack with
  | Some c -> c.Pmtrace.Callstack.op_index
  | None -> 0

let add_store b (event : Pmtrace.Event.t) line =
  let seq = event.Pmtrace.Event.seq in
  let w =
    match Hashtbl.find_opt b.pending line with
    | Some w -> w
    | None ->
        let w =
          {
            w_line = line;
            w_first_store = seq;
            w_first_store_p = b.pseq;
            w_last_store = seq;
            w_last_store_p = b.pseq;
            w_count = 0;
            w_locs = [];
            w_deps = [];
            w_flush = None;
          }
        in
        Hashtbl.replace b.pending line w;
        w
  in
  w.w_last_store <- seq;
  w.w_last_store_p <- b.pseq;
  w.w_count <- w.w_count + 1;
  (match loc_of event with
  | Some l when not (List.mem l w.w_locs) -> w.w_locs <- l :: w.w_locs
  | _ -> ());
  (* read-after-persist dependencies: recently loaded persisted lines feed
     this window's new content *)
  List.iter
    (fun (src, src_line, witness) ->
      if src_line <> line && not (List.exists (fun (s, _) -> s = src) w.w_deps) then
        w.w_deps <- (src, witness) :: w.w_deps)
    b.ring;
  w

let capture_window b line =
  match Hashtbl.find_opt b.pending line with
  | None -> ()
  | Some w ->
      Hashtbl.remove b.pending line;
      b.ready <- w :: b.ready

let feed b (event : Pmtrace.Event.t) =
  b.events <- b.events + 1;
  (match event.Pmtrace.Event.op with Pmem.Op.Load _ -> () | _ -> b.pseq <- b.pseq + 1);
  match event.Pmtrace.Event.op with
  | Pmem.Op.Store { addr; size; nt } ->
      let lines = Pmem.Addr.lines_spanned ~addr ~size in
      List.iter
        (fun line ->
          let _w = add_store b event line in
          if nt then begin
            (* non-temporal: buffered until the next fence, no flush needed *)
            capture_window b line
          end)
        lines
  | Pmem.Op.Flush { volatile = true; _ } -> ()
  | Pmem.Op.Flush { line; _ } -> (
      Hashtbl.replace b.flushed line ();
      match Hashtbl.find_opt b.pending line with
      | Some w ->
          w.w_flush <- Some (event.Pmtrace.Event.seq, b.pseq);
          capture_window b line
      | None -> ())
  | Pmem.Op.Fence _ ->
      let fence_seq = event.Pmtrace.Event.seq in
      List.iter
        (fun w ->
          let id = b.next_id in
          b.next_id <- id + 1;
          let node =
            {
              id;
              line = w.w_line;
              epoch = b.epoch;
              first_store = w.w_first_store;
              last_store = w.w_last_store;
              store_count = w.w_count;
              flush = Option.map fst w.w_flush;
              fence = fence_seq;
              first_store_p = w.w_first_store_p;
              last_store_p = w.w_last_store_p;
              flush_p = Option.map snd w.w_flush;
              fence_p = b.pseq;
              locs = List.rev w.w_locs;
            }
          in
          b.nodes_rev <- node :: b.nodes_rev;
          List.iter
            (fun (src, witness) ->
              b.edges_rev <- { src; dst = id; witness } :: b.edges_rev)
            (List.rev w.w_deps);
          Hashtbl.replace b.last_persist w.w_line id)
        (List.rev b.ready);
      b.ready <- [];
      b.epoch <- b.epoch + 1
  | Pmem.Op.Load { addr; size } -> (
      match Pmem.Addr.lines_spanned ~addr ~size with
      | [] -> ()
      | line :: _ ->
          let seq = event.Pmtrace.Event.seq in
          let path = path_of event and idx = op_index_of event in
          (* pointer chase: the previous load (same frame activation) read a
             persisted line, and this load dereferences into another line *)
          (match b.prev_load with
          | Some (pline, ppath, pidx, _)
            when pline <> line && String.equal ppath path && idx > pidx -> (
              match Hashtbl.find_opt b.last_persist pline with
              | Some src ->
                  let c_dst =
                    match Hashtbl.find_opt b.last_persist line with
                    | Some id -> Persisted id
                    | None ->
                        if Hashtbl.mem b.pending line then Dirty_window else Unknown
                  in
                  if c_dst <> Unknown then
                    b.chases_rev <-
                      {
                        c_src = src;
                        c_dst;
                        c_dst_line = line;
                        c_seq = seq;
                        c_seq_p = b.pseq;
                        c_paths = (ppath, path);
                      }
                      :: b.chases_rev
              | None -> ())
          | _ -> ());
          (match Hashtbl.find_opt b.last_persist line with
          | Some id ->
              let ring = (id, line, seq) :: List.filter (fun (i, _, _) -> i <> id) b.ring in
              b.ring <-
                (if List.length ring > ring_max then List.filteri (fun i _ -> i < ring_max) ring
                 else ring)
          | None -> ());
          b.prev_load <- Some (line, path, idx, seq))

let finish b =
  let nodes = Array.of_list (List.rev b.nodes_rev) in
  let dangling_of w flushed =
    {
      d_line = w.w_line;
      d_first_store_p = w.w_first_store_p;
      d_last_store_p = w.w_last_store_p;
      d_flush_p = (if flushed then Option.map snd w.w_flush else None);
      d_locs = List.rev w.w_locs;
      d_line_flushed = Hashtbl.mem b.flushed w.w_line;
      d_line_persisted = Hashtbl.mem b.last_persist w.w_line;
    }
  in
  let dangling =
    List.map (fun w -> dangling_of w true) (List.rev b.ready)
    @ (Hashtbl.fold (fun _ w acc -> dangling_of w false :: acc) b.pending []
      |> List.sort (fun a b -> compare a.d_first_store_p b.d_first_store_p))
  in
  {
    nodes;
    edges = List.rev b.edges_rev;
    chases = List.rev b.chases_rev;
    dangling;
    epochs = b.epoch;
    events = b.events;
  }

(** [build events] folds a recorded trace (execution order) into a graph.
    Store locations are the stores' own stack captures, whose ordinals do
    not count loads, so they are stable across dynamic instances whether
    or not the recording traced loads. *)
let build events =
  let b = create_builder () in
  List.iter (feed b) events;
  finish b

let node t id = t.nodes.(id)

(** Persist nodes grouped by fence epoch, ascending. *)
let epoch_groups t =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (n : node) ->
      Hashtbl.replace tbl n.epoch (n :: Option.value ~default:[] (Hashtbl.find_opt tbl n.epoch)))
    t.nodes;
  Hashtbl.fold (fun e ns acc -> (e, List.rev ns) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---------------------------------------------------------------- *)
(* Structural properties (verified by the qcheck suite)             *)
(* ---------------------------------------------------------------- *)

(** [check t] is the list of structural-property violations (empty on every
    graph the builder can produce):
    - node windows are seq-monotone: first store <= last store <= flush <
      fence, in both coordinate systems;
    - node ids are creation-ordered: epoch and fence seq nondecreasing;
    - every edge leaves a strictly earlier fence epoch than it enters (no
      intra-epoch edges, hence no cycles), and its witness load sits
      strictly between the source's fence and the destination's fence;
    - the edge relation is acyclic (checked by DFS, independently of the
      id ordering argument). *)
let check t =
  let problems = ref [] in
  let err fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iteri
    (fun i (n : node) ->
      if i <> n.id then err "node %d stored at index %d" n.id i;
      if n.first_store > n.last_store then err "node %d: first store after last" n.id;
      (match n.flush with
      | Some f ->
          if f < n.last_store then err "node %d: flush before last store" n.id;
          if f >= n.fence then err "node %d: flush not before fence" n.id
      | None -> ());
      if n.last_store >= n.fence then err "node %d: store not before fence" n.id;
      if n.first_store_p > n.last_store_p || n.last_store_p > n.fence_p then
        err "node %d: persistency-index window not monotone" n.id;
      if i > 0 then begin
        let p = t.nodes.(i - 1) in
        if n.epoch < p.epoch then err "node %d: epoch decreases" n.id;
        if n.fence < p.fence then err "node %d: fence seq decreases" n.id
      end)
    t.nodes;
  List.iter
    (fun e ->
      let s = t.nodes.(e.src) and d = t.nodes.(e.dst) in
      if s.epoch >= d.epoch then
        err "edge %d->%d: src epoch %d not before dst epoch %d" e.src e.dst s.epoch d.epoch;
      if not (s.fence < e.witness && e.witness < d.fence) then
        err "edge %d->%d: witness %d outside (%d, %d)" e.src e.dst e.witness s.fence d.fence)
    t.edges;
  (* explicit acyclicity: DFS over the successor relation *)
  let succs = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace succs e.src (e.dst :: Option.value ~default:[] (Hashtbl.find_opt succs e.src)))
    t.edges;
  let state = Hashtbl.create 64 in
  let rec visit id =
    match Hashtbl.find_opt state id with
    | Some `Done -> ()
    | Some `Active -> err "cycle through node %d" id
    | None ->
        Hashtbl.replace state id `Active;
        List.iter visit (Option.value ~default:[] (Hashtbl.find_opt succs id));
        Hashtbl.replace state id `Done
  in
  Array.iter (fun (n : node) -> visit n.id) t.nodes;
  List.rev !problems

let pp ppf t =
  Fmt.pf ppf "dep graph: %d persists over %d epochs, %d edges, %d chases, %d dangling"
    (Array.length t.nodes) t.epochs (List.length t.edges) (List.length t.chases)
    (List.length t.dangling)
