(* The benchmark's workloads: the configurations each pass analyses, built
   as a pure function of the seed, and the expected verdict of each one. *)

type workload = Detect_matrix | Detect_long | Optimize_small

let workload_names =
  [ ("detect-matrix", Detect_matrix); ("detect-long", Detect_long);
    ("optimize-small", Optimize_small) ]

let workload_of_string s = List.assoc_opt s workload_names
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workload_names)

(* Workload size (ops, key range) per benchmark workload: the CLI default for
   the matrix, five times longer traces for detect-long, and a small run for
   the optimizer, whose cost is set by failure points x replays. *)
let size = function
  | Detect_matrix -> (600, 200)
  | Detect_long -> (3000, 1000)
  | Optimize_small -> (60, 20)

let config_of = function
  | Detect_matrix | Detect_long -> Mumak.Config.default
  | Optimize_small -> Mumak.Config.optimizing

(* What the verdict check demands of one analysis. *)
type expect =
  | Clean  (** no correctness finding *)
  | Correctness  (** at least one correctness finding *)
  | More_of of Bugreg.taxonomy * string
      (** more findings of this class than the named clean baseline *)
  | Unscored  (** "mumak" is not among the bug's detectors *)

type t = {
  name : string;  (** target name, or bug id for a seeded configuration *)
  target : Mumak.Target.t;
  bugs : string list;  (** seeded bugs armed while analysing *)
  expect : expect;
  ledger_target : string;  (** the target name `mumak analyze` is given *)
  descriptor : string;  (** workload descriptor of the run ledger *)
}

(* hashmap_atomic runs on library 1.6: on 1.12 its workload overflows the
   pool (Pmem.Device.Out_of_bounds), the breakage bench's fig4b notes. *)
let version_of app =
  if String.equal app "hashmap_atomic" then Pmalloc.Version.V1_6 else Pmalloc.Version.V1_12

let app_names = List.map (fun (module A : Pmapps.Kv_intf.S) -> A.name) Pmapps.Registry.apps

let other_names =
  [ "montage.hashtable"; "montage.lf_hashtable"; "pmemkv.cmap"; "pmemkv.stree"; "redis";
    "rocksdb" ]

(* The 15 clean targets, built as `mumak analyze NAME` builds them. *)
let clean_names = app_names @ other_names

let grouped_btree = "btree.grouped"

let build ~workload name =
  match name with
  | "montage.hashtable" -> Targets.of_montage ~variant:`Buffered ~workload ()
  | "montage.lf_hashtable" -> Targets.of_montage ~variant:`Lockfree ~workload ()
  | "pmemkv.cmap" -> Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Cmap ~workload ()
  | "pmemkv.stree" -> Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Stree ~workload ()
  | "redis" -> Targets.of_redis ~workload ()
  | "rocksdb" -> Targets.of_rocksdb ~workload ()
  | "btree.grouped" ->
      Targets.of_app (module Pmapps.Btree) ~version:Pmalloc.Version.V1_12
        ~tx_mode:(Targets.Grouped 64) ~workload ()
  | app -> (
      match Pmapps.Registry.find app with
      | Some m -> Targets.of_app m ~version:(version_of app) ~tx_mode:Targets.Spt ~workload ()
      | None -> invalid_arg ("unknown target " ^ app))

(* Every seeded bug, in the coverage experiment's order. *)
let seeded_bugs = Pmapps.Registry.all_bugs @ Pmalloc.Bugs.all @ Montage.Mt_alloc.bugs

(* The clean configuration a seeded bug is armed on (and, for a
   performance-class bug, scored against): pmalloc bugs need large grouped
   transactions to fire, montage bugs live in the buffered hashtable. *)
let host_of (bug : Bugreg.t) =
  match bug.Bugreg.component with
  | "pmalloc" -> grouped_btree
  | "montage" -> "montage.hashtable"
  | app -> app

let expect_of (bug : Bugreg.t) =
  if not (List.mem "mumak" bug.Bugreg.detectors) then Unscored
  else if Bugreg.is_correctness bug.Bugreg.taxonomy then Correctness
  else More_of (bug.Bugreg.taxonomy, host_of bug)

let ledger_target host = if String.equal host grouped_btree then "btree" else host

let descriptor ~ops ~key_range ~seed ~host ~bugs =
  let version, grouped =
    if String.equal host grouped_btree then ("1.12", true)
    else if List.mem host app_names then (Pmalloc.Version.to_string (version_of host), false)
    else ("1.12", false)
  in
  Printf.sprintf "standard:ops=%d,keys=%d,seed=%d,version=%s,grouped=%b%s" ops key_range seed
    version grouped
    (match bugs with [] -> "" | l -> ",bugs=" ^ String.concat "+" l)

(* Each target's workload seed, derived from the run's seed. Targets get
   independent operation lists, so a seed that happens to produce a heavy
   list moves one target's work, not every target's at once; a seeded bug
   shares its clean target's list, which performance-class scoring needs. *)
let hosts = clean_names @ [ grouped_btree ]

let host_index host =
  let rec index i = function
    | [] -> invalid_arg ("unknown target " ^ host)
    | h :: rest -> if String.equal h host then i else index (i + 1) rest
  in
  index 0 hosts

(* A target must accept its workload: CCEH's fixed-depth directory
   overflows (Pmapps.Cceh.Table_full) on about 4 in 1000 lists of 600 ops
   and 12 in 1000 of 3000 ops. When a plain, uninstrumented run of the
   target raises, the next candidate seed is drawn (2^32 further on). *)
let accepts (t : Mumak.Target.t) =
  match
    t.Mumak.Target.run
      ~device:(Pmem.Device.create ~size:t.Mumak.Target.pool_size ())
      ~framer:Pmtrace.Framer.null
  with
  | () -> true
  | exception _ -> false

(* [host_workload w ~seed host] — the workload seed and operation list
   [host] runs under workload [w], and the target built on it. *)
let host_workload w ~seed host =
  let ops, key_range = size w in
  let rec attempt k =
    let s = (seed * 100) + host_index host + (k lsl 32) in
    let workload = Workload.standard ~ops ~key_range ~seed:(Int64.of_int s) in
    let target = build ~workload host in
    if accepts target || k = 16 then (s, workload, target) else attempt (k + 1)
  in
  attempt 0

let ops w ~seed host =
  let _, workload, _ = host_workload w ~seed host in
  workload

(* [configurations w ~seed] — the configurations one pass analyses, in
   order, plus the setup-only clean baselines the verdict check needs that
   no pass contains. Depends on nothing but [w] and [seed]. *)
let configurations w ~seed =
  let n_ops, key_range = size w in
  let built = Hashtbl.create 16 in
  let host h =
    match Hashtbl.find_opt built h with
    | Some v -> v
    | None ->
        let s, _, target = host_workload w ~seed h in
        Hashtbl.replace built h (s, target);
        (s, target)
  in
  let target h = snd (host h) in
  let descriptor h bugs = descriptor ~ops:n_ops ~key_range ~seed:(fst (host h)) ~host:h ~bugs in
  let clean name =
    {
      name;
      target = target name;
      bugs = [];
      expect = Clean;
      ledger_target = ledger_target name;
      descriptor = descriptor name [];
    }
  in
  match w with
  | Optimize_small -> ([ clean "montage.lf_hashtable" ], [])
  | Detect_long -> (List.map clean clean_names, [])
  | Detect_matrix ->
      let seeded (bug : Bugreg.t) =
        let host = host_of bug in
        {
          name = bug.Bugreg.id;
          target = target host;
          bugs = [ bug.Bugreg.id ];
          expect = expect_of bug;
          ledger_target = ledger_target host;
          descriptor = descriptor host [ bug.Bugreg.id ];
        }
      in
      (List.map clean clean_names @ List.map seeded seeded_bugs, [ clean grouped_btree ])

(* Bugs Mumak's program-prefix crash model is known to miss on this
   workload at some seeds (paper section 6.2: ordering-sensitive atomicity
   bugs whose bad states do not respect program order). Their misses are
   counted in wrong_verdict_ratio but do not fail the run; a miss of any
   other expected detection does. *)
let known_misses =
  [
    ( "level_hash_token_before_kv",
      "missed under stock Level Hashing recovery (found with the enhanced one)" );
    ("ff_link_before_copy", "seed-dependent: found at seed 1234, missed at 42 and 7");
  ]

(* Findings of a bug class, as the coverage experiment counts them. *)
let kind_class (k : Mumak.Report.kind) : Bugreg.taxonomy option =
  match k with
  | Mumak.Report.Durability_bug | Mumak.Report.Dirty_overwrite
  | Mumak.Report.Missing_flush_warning -> Some Bugreg.Durability
  | Mumak.Report.Redundant_flush -> Some Bugreg.Redundant_flush
  | Mumak.Report.Redundant_fence -> Some Bugreg.Redundant_fence
  | Mumak.Report.Transient_data_warning -> Some Bugreg.Transient_data
  | Mumak.Report.Unrecoverable_state | Mumak.Report.Recovery_crash
  | Mumak.Report.Multi_store_flush_warning | Mumak.Report.Unordered_flushes_warning
  | Mumak.Report.Ordering_violation | Mumak.Report.Atomicity_violation
  | Mumak.Report.Missing_fence_warning -> None

let count_class report taxonomy =
  List.length
    (List.filter
       (fun f -> kind_class f.Mumak.Report.kind = Some taxonomy)
       (Mumak.Report.findings report))

(* [verdict_ok c report ~baseline] — does [report] agree with the ground
   truth? [baseline name] is the clean report of the named configuration. *)
let verdict_ok c report ~baseline =
  match c.expect with
  | Unscored -> true
  | Clean -> Mumak.Report.correctness_bugs report = []
  | Correctness -> Mumak.Report.correctness_bugs report <> []
  | More_of (taxonomy, host) ->
      count_class report taxonomy > count_class (baseline host) taxonomy
