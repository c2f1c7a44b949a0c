(** Likely-invariant inference over persistency dependency graphs
    (Witcher-style, see PAPERS.md): correctness conditions are not declared
    by the programmer but {e mined} from how the program usually behaves
    across the dynamic instances of the pooled graphs, then the minority
    of instances that break an accepted invariant become findings.

    Three families are mined:
    - {e ordering invariants from pointer chases} ("the pointee must
      persist before the pointer"): chase instances grouped by the frame
      paths of the two loads; an instance is enforced when the pointee's
      persist epoch strictly precedes the pointer's;
    - {e ordering invariants from read-after-persist edges} ("A must
      persist before B"): location pairs connected by dependency edges;
      a co-persist of the two locations in a single fence epoch leaves
      their order to the hardware and violates the dependence;
    - {e atomicity invariants} ("these stores persist atomically"):
      location pairs that co-persist in the same fence epoch in most
      instances; the split instances are atomicity hazards.

    [support] is the minimum number of pooled instances before a candidate
    is considered at all; [confidence] is the minimum fraction of
    conforming instances for the *atomicity* family (ordering families keep
    every supported candidate and carry their measured confidence, because
    a deterministic bug violates its invariant in every instance). *)

type ordering_stat = {
  o_src_path : string;  (** frame path of the pointer load *)
  o_dst_path : string;  (** frame path of the pointee load *)
  o_instances : int;
  o_enforced : int;  (** pointee epoch strictly before pointer epoch *)
  o_unordered : int;  (** both persisted by the same fence *)
  o_inverted : int;  (** pointee persisted after the pointer *)
  o_dangling : int;  (** pointee never persisted (dirty window at chase) *)
}

let o_confidence s =
  let bad = s.o_unordered + s.o_inverted + s.o_dangling in
  if s.o_enforced + bad = 0 then 1.0
  else float_of_int s.o_enforced /. float_of_int (s.o_enforced + bad)

type dep_stat = {
  dep_src : string;  (** store location whose line must persist first *)
  dep_dst : string;
  dep_count : int;  (** edge instances witnessing the dependence *)
  dep_co : int;  (** epochs where both locations persisted together *)
}

type atomic_stat = {
  a_loc1 : string;
  a_loc2 : string;
  a_co : int;  (** epochs where both locations persisted together *)
  a_split : int;  (** near misses: persisted in distinct epochs <= 2 apart *)
  a_split_instances : (int * int * int) list;
      (** (graph index, node id of loc1, node id of loc2), capped *)
}

let a_confidence s =
  if s.a_co + s.a_split = 0 then 0.0
  else float_of_int s.a_co /. float_of_int (s.a_co + s.a_split)

type t = {
  orderings : ordering_stat list;  (** supported chase groups, instances desc *)
  deps : dep_stat list;  (** supported edge-dependence pairs *)
  atomic_pairs : atomic_stat list;  (** accepted atomicity invariants *)
}

(* Epochs with more distinct locations than this are skipped by the
   quadratic pair mining: huge epochs are transaction commits, whose
   atomicity is the transaction's business, and their pair sets would
   dominate the tables (the Witcher RAM blowup of Table 2). *)
let max_epoch_locs = 48

let split_instance_cap = 16

let mine ~support ~confidence graphs =
  Telemetry.Collector.span ~cat:"static" "mine_invariants" @@ fun () ->
  (* ---- pointer-chase ordering invariants ---- *)
  let chase_tbl : (string * string, ordering_stat ref) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun _gi ((g : Dep_graph.t), _locs_of) ->
      List.iter
        (fun (c : Dep_graph.chase) ->
          let key = c.Dep_graph.c_paths in
          let s =
            match Hashtbl.find_opt chase_tbl key with
            | Some s -> s
            | None ->
                let s =
                  ref
                    {
                      o_src_path = fst key;
                      o_dst_path = snd key;
                      o_instances = 0;
                      o_enforced = 0;
                      o_unordered = 0;
                      o_inverted = 0;
                      o_dangling = 0;
                    }
                in
                Hashtbl.replace chase_tbl key s;
                s
          in
          let src = Dep_graph.node g c.Dep_graph.c_src in
          let v = !s in
          let v = { v with o_instances = v.o_instances + 1 } in
          s :=
            (match c.Dep_graph.c_dst with
            | Dep_graph.Persisted id ->
                let dst = Dep_graph.node g id in
                if dst.Dep_graph.epoch < src.Dep_graph.epoch then
                  { v with o_enforced = v.o_enforced + 1 }
                else if dst.Dep_graph.epoch = src.Dep_graph.epoch then
                  { v with o_unordered = v.o_unordered + 1 }
                else { v with o_inverted = v.o_inverted + 1 }
            | Dep_graph.Dirty_window -> { v with o_dangling = v.o_dangling + 1 }
            | Dep_graph.Unknown -> v))
        g.Dep_graph.chases)
    graphs;
  let orderings =
    Hashtbl.fold (fun _ s acc -> !s :: acc) chase_tbl []
    |> List.filter (fun s -> s.o_instances >= support)
    |> List.sort (fun a b ->
           compare (b.o_instances, a.o_src_path, a.o_dst_path)
             (a.o_instances, b.o_src_path, b.o_dst_path))
  in
  (* ---- per-graph location/epoch occupancy ---- *)
  let epoch_locs =
    List.map
      (fun ((g : Dep_graph.t), locs_of) ->
        let by_epoch = Hashtbl.create 64 in
        Array.iter
          (fun (n : Dep_graph.node) ->
            List.iter
              (fun loc ->
                let cur = Option.value ~default:[] (Hashtbl.find_opt by_epoch n.Dep_graph.epoch) in
                if not (List.exists (fun (l, _) -> String.equal l loc) cur) then
                  Hashtbl.replace by_epoch n.Dep_graph.epoch ((loc, n.Dep_graph.id) :: cur))
              (locs_of n))
          g.Dep_graph.nodes;
        (g, locs_of, by_epoch))
      graphs
  in
  (* location -> epochs (per graph), for split detection *)
  let loc_epochs = Hashtbl.create 256 in
  List.iteri
    (fun gi (_, _, by_epoch) ->
      Hashtbl.iter
        (fun epoch locs ->
          List.iter
            (fun (loc, id) ->
              Hashtbl.replace loc_epochs (gi, loc)
                ((epoch, id) :: Option.value ~default:[] (Hashtbl.find_opt loc_epochs (gi, loc))))
            locs)
        by_epoch)
    epoch_locs;
  (* ---- co-persist pair counting (atomicity candidates) ---- *)
  let pair_tbl : (string * string, int ref) Hashtbl.t = Hashtbl.create 256 in
  let pair_key a b = if String.compare a b <= 0 then (a, b) else (b, a) in
  List.iter
    (fun (_, _, by_epoch) ->
      Hashtbl.iter
        (fun _epoch locs ->
          if List.length locs <= max_epoch_locs then
            let rec pairs = function
              | [] -> ()
              | (a, _) :: rest ->
                  List.iter
                    (fun (b, _) ->
                      if not (String.equal a b) then begin
                        let key = pair_key a b in
                        match Hashtbl.find_opt pair_tbl key with
                        | Some r -> incr r
                        | None -> Hashtbl.replace pair_tbl key (ref 1)
                      end)
                    rest;
                  pairs rest
            in
            pairs locs)
        by_epoch)
    epoch_locs;
  (* ---- edge-dependence invariants ---- *)
  let dep_tbl : (string * string, int ref) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun ((g : Dep_graph.t), locs_of) ->
      List.iter
        (fun (e : Dep_graph.edge) ->
          let src = Dep_graph.node g e.Dep_graph.src
          and dst = Dep_graph.node g e.Dep_graph.dst in
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  if not (String.equal a b) then
                    match Hashtbl.find_opt dep_tbl (a, b) with
                    | Some r -> incr r
                    | None -> Hashtbl.replace dep_tbl (a, b) (ref 1))
                (locs_of dst))
            (locs_of src))
        g.Dep_graph.edges)
    graphs;
  let deps =
    Hashtbl.fold
      (fun (a, b) r acc ->
        if !r >= support then
          let co =
            match Hashtbl.find_opt pair_tbl (pair_key a b) with Some c -> !c | None -> 0
          in
          { dep_src = a; dep_dst = b; dep_count = !r; dep_co = co } :: acc
        else acc)
      dep_tbl []
    |> List.sort (fun x y ->
           compare (y.dep_count, x.dep_src, x.dep_dst) (x.dep_count, y.dep_src, y.dep_dst))
  in
  (* ---- atomicity invariants: supported co-persist pairs, with splits ---- *)
  let atomic_pairs =
    Hashtbl.fold
      (fun (a, b) co acc ->
        if !co >= support then begin
          (* split: an epoch holding one location with the other nearby but
             not in it *)
          let split = ref 0 and instances = ref [] in
          List.iteri
            (fun gi _ ->
              let ea = Option.value ~default:[] (Hashtbl.find_opt loc_epochs (gi, a))
              and eb = Option.value ~default:[] (Hashtbl.find_opt loc_epochs (gi, b)) in
              List.iter
                (fun (epa, ida) ->
                  if not (List.exists (fun (e, _) -> e = epa) eb) then
                    match
                      List.find_opt (fun (e, _) -> abs (e - epa) <= 2 && e <> epa) eb
                    with
                    | Some (_, idb) ->
                        incr split;
                        if List.length !instances < split_instance_cap then
                          instances := (gi, ida, idb) :: !instances
                    | None -> ())
                ea)
            graphs;
          let s =
            {
              a_loc1 = a;
              a_loc2 = b;
              a_co = !co;
              a_split = !split;
              a_split_instances = List.rev !instances;
            }
          in
          if a_confidence s >= confidence then s :: acc else acc
        end
        else acc)
      pair_tbl []
    |> List.sort (fun x y ->
           compare (y.a_co, x.a_loc1, x.a_loc2) (x.a_co, y.a_loc1, y.a_loc2))
  in
  { orderings; deps; atomic_pairs }
