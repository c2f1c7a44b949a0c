(** Per-finding causal evidence, captured at the moment a finding is
    produced and serialized into the run ledger ([Store]): the failure
    point that was injected, the trace window around the offending
    instruction, the witness (oracle verdict, absint path witness, mined
    invariant or lint rationale) that nominated the finding, and — for
    fault-injection bugs — the crash-image vs recovered-image byte diff at
    cache-line granularity.

    Everything here is plain data plus [Telemetry.Json] codecs and the
    image diff; the image diff is taken by fault injection at the oracle's
    verdict, the rest is assembled in [Engine.analyze], which owns the
    recording and the injection records. *)

module Json = Telemetry.Json

let cache_line = 64

(** How many differing cache lines the image diff retains verbatim; the
    count of differing lines is always exact. *)
let diff_line_cap = 8

(** Events rendered on each side of the anchor in a trace window. *)
let window_radius = 3

type diff_line = {
  dl_line : int;  (** cache-line index (byte offset = index * 64) *)
  dl_crash : string;  (** hex of the 64 crash-image bytes *)
  dl_recovered : string;  (** hex of the same line after recovery *)
}

type image_diff = {
  id_lines : diff_line list;  (** first {!diff_line_cap} differing lines *)
  id_differing : int;  (** total differing cache lines (exact) *)
  id_capped : bool;  (** true when [id_differing > List.length id_lines] *)
}

type failure_point = {
  fp_path : string list;  (** frame path of the injected point *)
  fp_op_index : int;  (** per-frame instruction index *)
  fp_ordinal : int;  (** discovery ordinal in the failure-point tree *)
  fp_pseq : int option;  (** persistency index, when a recording located it *)
}

type t = {
  p_finding : string;  (** digest of the finding's signature entry (the id) *)
  p_signature : string;  (** the {!Report.finding_signature} entry itself *)
  p_kind : string;
  p_phase : string;
  p_detail : string;
  p_stack : (string list * int) option;  (** capture path and op index *)
  p_seq : int option;
  p_failure_point : failure_point option;  (** fault-injection findings *)
  p_window : string list;  (** rendered trace events around the anchor *)
  p_witness : string;
      (** what nominated the finding: the oracle's verdict text, the absint
          path witness, the violated invariant, or the lint rationale *)
  p_verdict : string option;  (** oracle outcome or replay-backed fix verdict *)
  p_fix : string option;  (** suggested repair, rendered *)
  p_image_diff : image_diff option;  (** crash vs recovered bytes (FI bugs) *)
}

let id_of_signature s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Image diff                                                          *)
(* ------------------------------------------------------------------ *)

let hex_digits = "0123456789abcdef"

(* Lowercase hex of [len] bytes of [b] from [off]. *)
let hex_of_sub b off len =
  let out = Bytes.create (2 * len) in
  for i = 0 to len - 1 do
    let c = Char.code (Bytes.get b (off + i)) in
    Bytes.set out (2 * i) hex_digits.[c lsr 4];
    Bytes.set out ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string out

(* Compares eight bytes at a time, allocating nothing. *)
let line_equal a a_off b b_off =
  let rec go i =
    i >= cache_line
    || (Bytes.get_int64_ne a (a_off + i) : int64) = Bytes.get_int64_ne b (b_off + i)
       && go (i + 8)
  in
  go 0

(** Cache-line-granular diff of a recovered copy-on-write view against the
    crash image it was made from: only the pages recovery copied up can
    differ, so only those are compared, each against the crash image's
    page it shadows, in ascending order. Every differing whole line is
    counted; the first {!diff_line_cap} are kept with both sides' bytes
    rendered as hex. *)
let image_diff view =
  let lines = Pmem.Image.size view / cache_line in
  let differing = ref 0 in
  let kept = ref [] in
  List.iter
    (fun (addr, base, page) ->
      let first = addr / cache_line in
      for line = first to min lines (first + (Bytes.length page / cache_line)) - 1 do
        let off = (line - first) * cache_line in
        if not (line_equal base off page off) then begin
          incr differing;
          if !differing <= diff_line_cap then
            kept :=
              {
                dl_line = line;
                dl_crash = hex_of_sub base off cache_line;
                dl_recovered = hex_of_sub page off cache_line;
              }
              :: !kept
        end
      done)
    (Pmem.Image.cow_pages view);
  {
    id_lines = List.rev !kept;
    id_differing = !differing;
    id_capped = !differing > diff_line_cap;
  }

(* ------------------------------------------------------------------ *)
(* JSON codecs                                                         *)
(* ------------------------------------------------------------------ *)

let opt_string = function None -> Json.Null | Some s -> Json.String s
let opt_int = function None -> Json.Null | Some n -> Json.Int n

let diff_to_json d =
  Json.Assoc
    [
      ( "lines",
        Json.List
          (List.map
             (fun l ->
               Json.Assoc
                 [
                   ("line", Json.Int l.dl_line);
                   ("crash", Json.String l.dl_crash);
                   ("recovered", Json.String l.dl_recovered);
                 ])
             d.id_lines) );
      ("differing", Json.Int d.id_differing);
      ("capped", Json.Bool d.id_capped);
    ]

let fp_to_json fp =
  Json.Assoc
    [
      ("path", Json.List (List.map (fun f -> Json.String f) fp.fp_path));
      ("op_index", Json.Int fp.fp_op_index);
      ("ordinal", Json.Int fp.fp_ordinal);
      ("pseq", opt_int fp.fp_pseq);
    ]

let to_json p =
  Json.Assoc
    [
      ("finding_id", Json.String p.p_finding);
      ("signature", Json.String p.p_signature);
      ("kind", Json.String p.p_kind);
      ("phase", Json.String p.p_phase);
      ("detail", Json.String p.p_detail);
      ( "stack",
        match p.p_stack with
        | None -> Json.Null
        | Some (path, op_index) ->
            Json.Assoc
              [
                ("path", Json.List (List.map (fun f -> Json.String f) path));
                ("op_index", Json.Int op_index);
              ] );
      ("seq", opt_int p.p_seq);
      ( "failure_point",
        match p.p_failure_point with None -> Json.Null | Some fp -> fp_to_json fp );
      ("window", Json.List (List.map (fun l -> Json.String l) p.p_window));
      ("witness", Json.String p.p_witness);
      ("verdict", opt_string p.p_verdict);
      ("fix", opt_string p.p_fix);
      ( "image_diff",
        match p.p_image_diff with None -> Json.Null | Some d -> diff_to_json d );
    ]

let ( let* ) = Result.bind

let str_field j k =
  match Option.bind (Json.member k j) Json.to_string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing string field %S" k)

let int_field j k =
  match Option.bind (Json.member k j) Json.to_int_opt with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "missing integer field %S" k)

let opt_str_field j k =
  match Json.member k j with
  | None | Some Json.Null -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string or null" k)

let opt_int_field j k =
  match Json.member k j with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int n) -> Ok (Some n)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer or null" k)

let string_list_field j k =
  match Option.bind (Json.member k j) Json.to_list_opt with
  | None -> Error (Printf.sprintf "missing list field %S" k)
  | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.String s :: rest -> go (s :: acc) rest
        | _ -> Error (Printf.sprintf "field %S must hold strings" k)
      in
      go [] items

let diff_of_json j =
  let* lines =
    match Option.bind (Json.member "lines" j) Json.to_list_opt with
    | None -> Error "image_diff without a lines array"
    | Some items ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | item :: rest ->
              let* line = int_field item "line" in
              let* crash = str_field item "crash" in
              let* recovered = str_field item "recovered" in
              go ({ dl_line = line; dl_crash = crash; dl_recovered = recovered } :: acc)
                rest
        in
        go [] items
  in
  let* differing = int_field j "differing" in
  let* capped =
    match Json.member "capped" j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "image_diff without a boolean capped field"
  in
  Ok { id_lines = lines; id_differing = differing; id_capped = capped }

let fp_of_json j =
  let* path = string_list_field j "path" in
  let* op_index = int_field j "op_index" in
  let* ordinal = int_field j "ordinal" in
  let* pseq = opt_int_field j "pseq" in
  Ok { fp_path = path; fp_op_index = op_index; fp_ordinal = ordinal; fp_pseq = pseq }

let of_json j =
  let* finding = str_field j "finding_id" in
  let* signature = str_field j "signature" in
  let* kind = str_field j "kind" in
  let* phase = str_field j "phase" in
  let* detail = str_field j "detail" in
  let* stack =
    match Json.member "stack" j with
    | None | Some Json.Null -> Ok None
    | Some s ->
        let* path = string_list_field s "path" in
        let* op_index = int_field s "op_index" in
        Ok (Some (path, op_index))
  in
  let* seq = opt_int_field j "seq" in
  let* failure_point =
    match Json.member "failure_point" j with
    | None | Some Json.Null -> Ok None
    | Some fp -> Result.map Option.some (fp_of_json fp)
  in
  let* window = string_list_field j "window" in
  let* witness = str_field j "witness" in
  let* verdict = opt_str_field j "verdict" in
  let* fix = opt_str_field j "fix" in
  let* image_diff =
    match Json.member "image_diff" j with
    | None | Some Json.Null -> Ok None
    | Some d -> Result.map Option.some (diff_of_json d)
  in
  Ok
    {
      p_finding = finding;
      p_signature = signature;
      p_kind = kind;
      p_phase = phase;
      p_detail = detail;
      p_stack = stack;
      p_seq = seq;
      p_failure_point = failure_point;
      p_window = window;
      p_witness = witness;
      p_verdict = verdict;
      p_fix = fix;
      p_image_diff = image_diff;
    }

let equal a b = to_json a = to_json b
