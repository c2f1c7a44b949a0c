(* Property tests for the failure-point tree: deduplication, leaf counting,
   deterministic traversal order and ordinals by first insertion — the
   invariants the injection schedule's deal-by-ordinal and merge depend on. *)

let cap path op_index = { Pmtrace.Callstack.path; op_index }

(* Generator of capture descriptions: short paths over a small label
   alphabet so collisions (duplicate paths) actually happen. *)
let capture_list =
  QCheck.(
    list_of_size (Gen.int_range 0 60)
      (pair
         (list_of_size (Gen.int_range 0 4)
            (oneofl [ "main"; "put"; "get"; "split"; "rebalance"; "log" ]))
         (int_range 0 6)))

let build caps =
  let t = Mumak.Fp_tree.create () in
  List.iter (fun (path, i) -> ignore (Mumak.Fp_tree.insert t (cap path i))) caps;
  t

let key p =
  ( p.Mumak.Fp_tree.ordinal,
    p.Mumak.Fp_tree.capture.Pmtrace.Callstack.path,
    p.Mumak.Fp_tree.capture.Pmtrace.Callstack.op_index )

let prop_double_insert_never_grows =
  QCheck.Test.make ~name:"inserting the same capture twice never grows size" ~count:300
    capture_list
    (fun caps ->
      let t = Mumak.Fp_tree.create () in
      List.for_all
        (fun (path, i) ->
          ignore (Mumak.Fp_tree.insert t (cap path i));
          let size_after_first = Mumak.Fp_tree.size t in
          (match Mumak.Fp_tree.insert t (cap path i) with
          | `Existing _ -> ()
          | `Added _ -> QCheck.Test.fail_report "second insert reported `Added");
          Mumak.Fp_tree.size t = size_after_first)
        caps)

let prop_leaf_count_is_unique_paths =
  QCheck.Test.make ~name:"leaf count equals number of unique (path, op) pairs" ~count:300
    capture_list
    (fun caps ->
      let t = build caps in
      Mumak.Fp_tree.size t = List.length (List.sort_uniq compare caps)
      && List.length (Mumak.Fp_tree.points t) = Mumak.Fp_tree.size t)

let prop_traversal_order_deterministic =
  QCheck.Test.make ~name:"traversal order is deterministic (discovery order)" ~count:300
    capture_list
    (fun caps ->
      let t = build caps in
      (* [points] is sorted by discovery ordinal: rebuilding from the same
         insertion sequence must reproduce the identical traversal *)
      let ordinals = List.map (fun p -> p.Mumak.Fp_tree.ordinal) (Mumak.Fp_tree.points t) in
      let t2 = build caps in
      ordinals = List.init (Mumak.Fp_tree.size t) Fun.id
      && List.map key (Mumak.Fp_tree.points t) = List.map key (Mumak.Fp_tree.points t2))

(* The replay strategy injects on the tree its offline enumeration builds,
   and re-execution on the one a live run builds: the two agree because a
   point's ordinal is the rank of its capture's first insertion. *)
let prop_ordinal_is_first_insertion_rank =
  QCheck.Test.make ~name:"ordinal is the first-insertion rank (the deal-by-ordinal invariant)"
    ~count:300 capture_list
    (fun caps ->
      let t = build caps in
      let first_seen =
        List.fold_left (fun acc c -> if List.mem c acc then acc else c :: acc) [] caps
        |> List.rev
      in
      List.map key (Mumak.Fp_tree.points t)
      = List.mapi (fun ordinal (path, i) -> (ordinal, path, i)) first_seen)

let prop_find_after_insert =
  QCheck.Test.make ~name:"every inserted capture is found at its own point" ~count:200
    capture_list
    (fun caps ->
      let t = build caps in
      List.for_all
        (fun (path, i) ->
          match Mumak.Fp_tree.find t (cap path i) with
          | Some p -> Pmtrace.Callstack.capture_equal p.Mumak.Fp_tree.capture (cap path i)
          | None -> false)
        caps
      && List.for_all
           (fun p ->
             match Mumak.Fp_tree.find t p.Mumak.Fp_tree.capture with
             | Some q -> q == p
             | None -> false)
           (Mumak.Fp_tree.points t))

let () =
  Alcotest.run "fp_tree"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_double_insert_never_grows;
            prop_leaf_count_is_unique_paths;
            prop_traversal_order_deterministic;
            prop_ordinal_is_first_insertion_rank;
            prop_find_after_insert;
          ] );
    ]
