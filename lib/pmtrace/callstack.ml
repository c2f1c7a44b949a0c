(** Explicit call stacks, the analogue of Pin's filtered backtraces.

    Applications under test wrap each function body in {!with_frame}. Within
    one frame activation we also count the PM instructions executed so far;
    the pair (frame path, instruction index inside the innermost frame) is
    the reproduction's notion of an "instruction address": it is stable
    across repeated deterministic executions, exactly like a code address
    with ASLR disabled (paper section 5). *)

(* [op_index] counts every PM instruction of the activation, loads
   included; [persist_index] counts only the others. Loads are traced on
   demand, so a store, flush or fence is addressed by [persist_index]: the
   same whether or not the recording traced loads. [path] is the
   activation's call path, outermost label first, built when it or an
   activation inside it is first captured ([[]] until then, as a path is
   never empty), so every event of one activation shares it. *)
type frame = {
  label : string;
  mutable op_index : int;
  mutable persist_index : int;
  mutable path : string list;
}

type t = {
  mutable frames : frame list; (* innermost first *)
  mutable at_load : bool; (* the last ticked instruction was a load *)
}

(* Every stack bottoms out in a permanent root frame — the analogue of
   [_start] in Figure 2 — so that PM instructions executed outside any
   application frame (library internals, the workload driver) still get
   distinct instruction identities. *)
let root_label = "_start"

let new_frame label = { label; op_index = 0; persist_index = 0; path = [] }
let create () = { frames = [ new_frame root_label ]; at_load = false }
let depth t = List.length t.frames - 1

let push t label = t.frames <- new_frame label :: t.frames

let pop t =
  match t.frames with
  | [] | [ _ ] -> invalid_arg "Callstack.pop: empty stack"
  | _ :: rest -> t.frames <- rest

let with_frame t label f =
  push t label;
  match f () with
  | v ->
      pop t;
      v
  | exception e ->
      pop t;
      raise e

(* Called by the tracer on every PM instruction: bumps the per-activation
   instruction counters of the innermost frame. *)
let tick t ~load =
  t.at_load <- load;
  match t.frames with
  | [] -> ()
  | f :: _ ->
      f.op_index <- f.op_index + 1;
      if not load then f.persist_index <- f.persist_index + 1

(** A captured stack: outermost label first, with the innermost frame's
    current instruction index as the "address" of the leaf instruction. *)
type capture = { path : string list; op_index : int }

(* A missing memo extends the enclosing frame's. *)
let rec path_of = function
  | [] -> []
  | (f : frame) :: enclosing ->
      (match f.path with [] -> f.path <- path_of enclosing @ [ f.label ] | _ -> ());
      f.path

let path t = path_of t.frames

let op_index t =
  match t.frames with
  | [] -> 0
  | f :: _ -> if t.at_load then f.op_index else f.persist_index

let capture t = { path = path t; op_index = op_index t }

let capture_to_string { path; op_index } =
  String.concat " > " path ^ Printf.sprintf " @%d" op_index

let capture_equal a b = a.op_index = b.op_index && List.equal String.equal a.path b.path

let capture_compare a b =
  match compare a.op_index b.op_index with
  | 0 -> compare a.path b.path
  | c -> c

let capture_hash c = Hashtbl.hash (c.path, c.op_index)
