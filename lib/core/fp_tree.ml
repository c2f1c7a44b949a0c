(** The failure-point tree (paper section 4.1 and Figure 2).

    Each root-to-leaf path is a unique call stack leading to a failure
    point; a leaf additionally carries the per-frame instruction index that
    distinguishes, say, line 2 from line 3 of the same function. One fault
    is injected per leaf. The tree both deduplicates code paths and makes
    the membership test during the injection phase cheap (the search-heavy
    operation, as the paper notes).

    Where Mumak writes the tree to a file between the tree-construction and
    injection executions, here the injection workers share the one
    in-memory tree, which injection only reads. *)

type point = {
  capture : Pmtrace.Callstack.capture;
  ordinal : int; (* discovery order, stable across runs *)
}

type node = {
  mutable children : (string * node) list;
  mutable points : (int * point) list; (* keyed by op_index *)
}

type t = { root : node; mutable size : int }

let create_node () = { children = []; points = [] }
let create () = { root = create_node (); size = 0 }
let size t = t.size

let rec find_node node = function
  | [] -> Some node
  | label :: rest ->
      Option.bind (List.assoc_opt label node.children) (fun child -> find_node child rest)

let rec ensure_node node = function
  | [] -> node
  | label :: rest ->
      let child =
        match List.assoc_opt label node.children with
        | Some c -> c
        | None ->
            let c = create_node () in
            node.children <- (label, c) :: node.children;
            c
      in
      ensure_node child rest

(** [insert t capture] adds a failure point if its path is new. Returns
    [`Added p] for a fresh point and [`Existing p] otherwise. *)
let insert t capture =
  let node = ensure_node t.root capture.Pmtrace.Callstack.path in
  match List.assoc_opt capture.Pmtrace.Callstack.op_index node.points with
  | Some p -> `Existing p
  | None ->
      let p = { capture; ordinal = t.size } in
      node.points <- (capture.Pmtrace.Callstack.op_index, p) :: node.points;
      t.size <- t.size + 1;
      `Added p

(** [find t capture] looks a failure point up without modifying the tree —
    the hot operation of the injection phase. *)
let find t capture =
  Option.bind
    (find_node t.root capture.Pmtrace.Callstack.path)
    (fun node -> List.assoc_opt capture.Pmtrace.Callstack.op_index node.points)

let iter t f =
  let rec go node =
    List.iter (fun (_, p) -> f p) node.points;
    List.iter (fun (_, child) -> go child) node.children
  in
  go t.root

let points t =
  let acc = ref [] in
  iter t (fun p -> acc := p :: !acc);
  List.sort (fun a b -> compare a.ordinal b.ordinal) !acc
