(* The host-speed reference: a fixed piece of allocation-heavy OCaml in the
   shapes the analyses have, on data it owns. One unit of it

   - builds, probes and drops a Hashtbl of boxed records (the analyses'
     failure-point, cache-line and dedup tables);
   - maps and folds short lists of records (event lists, reports);
   - replays a synthetic store/flush/fence trace onto a byte image, copying
     a crash image now and then and scanning it (record, materialize,
     oracle).

   Samples start from a compacted heap under the GC settings [fix_gc] pins,
   after one untimed unit that faults in the pages the timed units reuse,
   so no change to Mumak can move them; only the host's speed does. *)

type cell = { id : int; label : string; mutable weight : float; mutable seen : int list }

let table ~n =
  let tbl = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    Hashtbl.replace tbl i { id = i; label = string_of_int i; weight = 0.; seen = [] }
  done;
  for round = 1 to 3 do
    for i = 0 to n - 1 do
      let c = Hashtbl.find tbl (((i * 7919) + round) mod n) in
      c.weight <- c.weight +. float_of_int round;
      c.seen <- i :: c.seen
    done
  done;
  Hashtbl.fold (fun _ c acc -> acc + c.id + String.length c.label + List.length c.seen) tbl 0

type item = { key : int; value : int; tag : string }

let lists ~reps =
  let sum = ref 0 in
  for k = 1 to reps do
    let l = List.init 500 (fun i -> { key = i; value = i * k; tag = "v" }) in
    let l = List.rev_map (fun r -> { r with value = r.value + 1 }) l in
    sum := List.fold_left (fun acc r -> acc + r.key + r.value + String.length r.tag) !sum l
  done;
  !sum

type event = { seq : int; kind : int; addr : int; payload : int64; stack : int list }

let image_size = 1 lsl 20

let replay ~n =
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let events =
    List.init n (fun seq ->
        let r = next () in
        {
          seq;
          kind = r land 3;
          addr = (r lsr 2) land (image_size - 1) land lnot 7;
          payload = Int64.of_int r;
          stack = [ seq land 15; r land 7; 3 ];
        })
  in
  let image = Bytes.make image_size '\000' in
  let dirty = Hashtbl.create 1024 in
  let found = ref 0 in
  List.iter
    (fun e ->
      match e.kind with
      | 0 | 1 ->
          Bytes.set_int64_le image e.addr e.payload;
          Hashtbl.replace dirty (e.addr lsr 6) e.stack
      | 2 -> Hashtbl.remove dirty (e.addr lsr 6)
      | _ ->
          if e.seq land 1023 = 3 then begin
            let crash = Bytes.copy image in
            let seen = Hashtbl.create 256 in
            let i = ref 0 in
            while !i < image_size do
              let v = Bytes.get_int64_le crash !i in
              if v <> 0L then Hashtbl.replace seen (Int64.to_int v land 0xfff) e.seq;
              i := !i + 520
            done;
            found := !found + Hashtbl.length seen
          end)
    events;
  !found + Hashtbl.length dirty

let unit_ () = table ~n:4_000 + lists ~reps:500 + replay ~n:10_000

(* The GC settings every measurement runs under (OCaml 5.1's defaults,
   pinned so that neither the environment nor the program can change them). *)
let fix_gc () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 }

(* [sample ~units] — the wall time, in ms, of [units] timed units. *)
let sample ~units =
  Gc.compact ();
  ignore (Sys.opaque_identity (unit_ ()));
  let t0 = Telemetry.Clock.now_ns () in
  for _ = 1 to units do
    ignore (Sys.opaque_identity (unit_ ()))
  done;
  let t1 = Telemetry.Clock.now_ns () in
  float_of_int (t1 - t0) /. 1e6
