(** Merged multi-trace control-flow automaton.

    Every recorded execution is a single path through the program; merging
    the event sequences of several recordings keyed on the (frame path,
    per-frame ordinal) instruction identity reconstructs a per-frame
    control-flow automaton: a site two runs share becomes one node, and the
    places where the runs take different successors become branches and
    joins. Under the frame/ordinal addressing scheme this is the same
    automaton a Pin-level tool would recover from instruction addresses
    (DESIGN.md decision 11) — which is what lets the abstract interpreter
    ({!Absint}) reason about merged paths no single recording exercised.

    Construction is canonical: nodes, observed instructions and successor
    sets are kept sorted and deduplicated, so building from a permuted or
    duplicated set of recordings yields a structurally equal automaton (the
    idempotence / order-insensitivity properties the tests assert). *)

(** A persistency-relevant instruction as observed at a site. One site can
    observe several instances across runs (e.g. the same store writing a
    different cache line per key); the abstract transfer joins over them. *)
type instr =
  | Store of { lines : int list; nt : bool }
      (** cache lines spanned by the store *)
  | Flush of { kind : Pmem.Op.flush_kind; line : int }
  | Fence of { kind : Pmem.Op.fence_kind }

let instr_compare : instr -> instr -> int = compare

let instr_to_string = function
  | Store { lines; nt } ->
      Printf.sprintf "%s[%s]"
        (if nt then "store.nt" else "store")
        (String.concat "," (List.map string_of_int lines))
  | Flush { kind; line } ->
      Printf.sprintf "%s[%d]" (Pmem.Op.flush_kind_to_string kind) line
  | Fence { kind } -> Pmem.Op.fence_kind_to_string kind

type node = {
  capture : Pmtrace.Callstack.capture;  (** the site's instruction address *)
  key : string;  (** [capture_to_string capture]; the node identity *)
  mutable instrs : instr list;  (** sorted, deduplicated observations *)
  mutable succs : string list;  (** sorted, deduplicated successor keys *)
  mutable first_pseq : int;
      (** smallest persistency index at which any run reached the site —
          the deterministic iteration order of the fixpoint and findings *)
  mutable runs : int;  (** recordings that reached the site *)
}

type t = {
  nodes : (string, node) Hashtbl.t;
  mutable entry_succs : string list;  (** sites a run started at *)
  mutable exit_preds : string list;  (** sites a run ended at *)
  mutable runs : int;
  mutable events : int;  (** persistency events folded in, across runs *)
}

let create () =
  { nodes = Hashtbl.create 256; entry_succs = []; exit_preds = []; runs = 0; events = 0 }

let add_sorted cmp x xs =
  if List.exists (fun y -> cmp x y = 0) xs then xs else List.sort cmp (x :: xs)

let instr_of_op : Pmem.Op.t -> instr option = function
  | Pmem.Op.Store { addr; size; nt } ->
      Some (Store { lines = Pmem.Addr.lines_spanned ~addr ~size; nt })
  | Pmem.Op.Flush { kind; line; _ } -> Some (Flush { kind; line })
  | Pmem.Op.Fence { kind; _ } -> Some (Fence { kind })
  | Pmem.Op.Load _ -> None

(** [add_run t events] merges one recorded execution (events must carry
    stacks, i.e. come from a [with_stacks] tracer; loads are ignored). *)
let add_run t events =
  t.runs <- t.runs + 1;
  let seen = Hashtbl.create 64 in
  let prev = ref None in
  let pseq = ref 0 in
  List.iter
    (fun (e : Pmtrace.Event.t) ->
      match instr_of_op e.Pmtrace.Event.op with
      | None -> ()
      | Some instr -> (
          incr pseq;
          match e.Pmtrace.Event.stack with
          | None -> ()
          | Some capture ->
              t.events <- t.events + 1;
              let key = Pmtrace.Callstack.capture_to_string capture in
              let node =
                match Hashtbl.find_opt t.nodes key with
                | Some n -> n
                | None ->
                    let n =
                      { capture; key; instrs = []; succs = []; first_pseq = !pseq; runs = 0 }
                    in
                    Hashtbl.replace t.nodes key n;
                    n
              in
              node.instrs <- add_sorted instr_compare instr node.instrs;
              node.first_pseq <- min node.first_pseq !pseq;
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                node.runs <- node.runs + 1
              end;
              (match !prev with
              | None -> t.entry_succs <- add_sorted String.compare key t.entry_succs
              | Some p ->
                  let pn = Hashtbl.find t.nodes p in
                  pn.succs <- add_sorted String.compare key pn.succs);
              prev := Some key))
    events;
  match !prev with
  | Some p -> t.exit_preds <- add_sorted String.compare p t.exit_preds
  | None -> ()

(** [build runs] merges every recording into one automaton. *)
let build runs =
  let t = create () in
  List.iter (add_run t) runs;
  t

let find_opt t key = Hashtbl.find_opt t.nodes key
let node_count t = Hashtbl.length t.nodes

let edge_count t =
  Hashtbl.fold (fun _ n acc -> acc + List.length n.succs) t.nodes (List.length t.entry_succs)

(** Nodes in deterministic order: by first persistency index, then key. *)
let sorted_nodes t =
  Hashtbl.fold (fun _ n acc -> n :: acc) t.nodes []
  |> List.sort (fun a b ->
         match compare a.first_pseq b.first_pseq with
         | 0 -> String.compare a.key b.key
         | c -> c)

(** Canonical rendering; two automata are equal iff their signatures are.
    [runs] and [first_pseq] are deliberately excluded: they count
    observations, which idempotence (merging the same recording twice) must
    not change structurally. *)
let signature t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("entry:" ^ String.concat "," t.entry_succs ^ "\n");
  Buffer.add_string buf ("exit:" ^ String.concat "," t.exit_preds ^ "\n");
  let nodes =
    Hashtbl.fold (fun _ n acc -> n :: acc) t.nodes []
    |> List.sort (fun a b -> String.compare a.key b.key)
  in
  List.iter
    (fun n ->
      Buffer.add_string buf n.key;
      Buffer.add_char buf '|';
      Buffer.add_string buf (String.concat ";" (List.map instr_to_string n.instrs));
      Buffer.add_char buf '|';
      Buffer.add_string buf (String.concat "," n.succs);
      Buffer.add_char buf '\n')
    nodes;
  Buffer.contents buf

let equal a b = String.equal (signature a) (signature b)

(** [witness t key] — a concrete path from the automaton entry to [key]
    (BFS over merged edges, successors explored in sorted order, so the
    witness is deterministic). The path is realizable in the merged
    automaton even when no single recording walked it. Returns the node
    keys entry-first, or [[]] when [key] is unreachable. *)
let witness t key =
  if not (Hashtbl.mem t.nodes key) then []
  else begin
    let parent : (string, string option) Hashtbl.t = Hashtbl.create 64 in
    let q = Queue.create () in
    List.iter
      (fun k ->
        if not (Hashtbl.mem parent k) then begin
          Hashtbl.replace parent k None;
          Queue.add k q
        end)
      t.entry_succs;
    let found = ref (Hashtbl.mem parent key) in
    while (not !found) && not (Queue.is_empty q) do
      let k = Queue.pop q in
      if String.equal k key then found := true
      else
        match Hashtbl.find_opt t.nodes k with
        | None -> ()
        | Some n ->
            List.iter
              (fun s ->
                if not (Hashtbl.mem parent s) then begin
                  Hashtbl.replace parent s (Some k);
                  Queue.add s q
                end)
              n.succs
    done;
    if not (Hashtbl.mem parent key) then []
    else begin
      let rec walk k acc =
        match Hashtbl.find_opt parent k with
        | Some (Some p) -> walk p (k :: acc)
        | Some None | None -> k :: acc
      in
      walk key []
    end
  end

(** Render the tail of a witness path compactly (innermost frame @ ordinal
    per hop), for finding details. *)
let witness_tail ?(limit = 4) t key =
  let path = witness t key in
  let n = List.length path in
  let tail = if n <= limit then path else List.filteri (fun i _ -> i >= n - limit) path in
  let hop k =
    match Hashtbl.find_opt t.nodes k with
    | None -> k
    | Some node ->
        let frame =
          match List.rev node.capture.Pmtrace.Callstack.path with
          | innermost :: _ -> innermost
          | [] -> Pmtrace.Callstack.root_label
        in
        Printf.sprintf "%s@%d" frame node.capture.Pmtrace.Callstack.op_index
  in
  (if n > limit then "... -> " else "") ^ String.concat " -> " (List.map hop tail)
