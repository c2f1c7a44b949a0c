(** An in-memory trace of PM accesses, collected during one execution of the
    workload and consumed in a single pass by the analyses. Storage is an
    {!Arena}: packed integer records with interned call paths, decoded back
    into {!Event.t} values on access. *)

type t = Arena.t

let create () = Arena.create ()
let add t e = Arena.add t e
let length t = Arena.length t

(** [iter t f] applies [f] to every event in execution order. *)
let iter t f = Arena.iter t f

(** [fold t init f] folds over events in execution order. *)
let fold t init f = Arena.fold t init f

let to_list t = Arena.to_list t

(* ------------------------------------------------------------------ *)
(* Serialization: the analogue of the trace file the original Mumak    *)
(* writes between the tracing and analysis processes. One line per     *)
(* event; the static analyzer replays serialized traces offline.       *)
(* ------------------------------------------------------------------ *)

let flush_kind_to_char = function
  | Pmem.Op.Clflush -> 'c'
  | Pmem.Op.Clflushopt -> 'o'
  | Pmem.Op.Clwb -> 'w'

let flush_kind_of_char = function
  | 'c' -> Pmem.Op.Clflush
  | 'o' -> Pmem.Op.Clflushopt
  | 'w' -> Pmem.Op.Clwb
  | c -> Fmt.failwith "Trace.deserialize: unknown flush kind %c" c

let fence_kind_to_char = function
  | Pmem.Op.Sfence -> 's'
  | Pmem.Op.Mfence -> 'm'
  | Pmem.Op.Rmw -> 'r'

let fence_kind_of_char = function
  | 's' -> Pmem.Op.Sfence
  | 'm' -> Pmem.Op.Mfence
  | 'r' -> Pmem.Op.Rmw
  | c -> Fmt.failwith "Trace.deserialize: unknown fence kind %c" c

let event_to_line (e : Event.t) =
  let op =
    match e.Event.op with
    | Pmem.Op.Store { addr; size; nt } ->
        Printf.sprintf "S %d %d %d" addr size (if nt then 1 else 0)
    | Pmem.Op.Flush { kind; line; dirty; volatile } ->
        Printf.sprintf "F %c %d %d %d" (flush_kind_to_char kind) line
          (if dirty then 1 else 0)
          (if volatile then 1 else 0)
    | Pmem.Op.Fence { kind; pending_flushes; pending_nt } ->
        Printf.sprintf "N %c %d %d" (fence_kind_to_char kind) pending_flushes pending_nt
    | Pmem.Op.Load { addr; size } -> Printf.sprintf "L %d %d" addr size
  in
  let stack =
    match e.Event.stack with
    | None -> ""
    | Some c ->
        Printf.sprintf "%s@%d"
          (String.concat ">" c.Callstack.path)
          c.Callstack.op_index
  in
  Printf.sprintf "%d|%s|%s" e.Event.seq op stack

let event_of_line line =
  match String.split_on_char '|' line with
  | [ seq; op; stack ] ->
      let seq = int_of_string seq in
      let bool_of s = not (String.equal s "0") in
      let op =
        match String.split_on_char ' ' op with
        | [ "S"; addr; size; nt ] ->
            Pmem.Op.Store
              { addr = int_of_string addr; size = int_of_string size; nt = bool_of nt }
        | [ "F"; kind; l; dirty; volatile ] ->
            Pmem.Op.Flush
              {
                kind = flush_kind_of_char kind.[0];
                line = int_of_string l;
                dirty = bool_of dirty;
                volatile = bool_of volatile;
              }
        | [ "N"; kind; pf; pnt ] ->
            Pmem.Op.Fence
              {
                kind = fence_kind_of_char kind.[0];
                pending_flushes = int_of_string pf;
                pending_nt = int_of_string pnt;
              }
        | [ "L"; addr; size ] ->
            Pmem.Op.Load { addr = int_of_string addr; size = int_of_string size }
        | _ -> Fmt.failwith "Trace.deserialize: bad op %S" op
      in
      let stack =
        if String.equal stack "" then None
        else
          match String.rindex_opt stack '@' with
          | None -> Fmt.failwith "Trace.deserialize: bad stack %S" stack
          | Some i ->
              let path = String.split_on_char '>' (String.sub stack 0 i) in
              let op_index =
                int_of_string (String.sub stack (i + 1) (String.length stack - i - 1))
              in
              Some { Callstack.path; op_index }
      in
      { Event.seq; op; stack }
  | _ -> Fmt.failwith "Trace.deserialize: bad line %S" line

(** [serialize t] renders the trace, one event per line, in execution
    order. Stacks (when collected) round-trip. *)
let serialize t =
  let buf = Buffer.create (64 * (1 + length t)) in
  let first = ref true in
  iter t (fun e ->
      if !first then first := false else Buffer.add_char buf '\n';
      Buffer.add_string buf (event_to_line e));
  Buffer.contents buf

(** [deserialize s] rebuilds a trace serialized by {!serialize}. *)
let deserialize s =
  let t = create () in
  String.split_on_char '\n' s
  |> List.iter (fun line -> if not (String.equal line "") then add t (event_of_line line));
  t
