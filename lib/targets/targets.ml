(** Target builders: wrap the PM applications into the black-box
    {!Mumak.Target.t} interface the tools analyse.

    [tx_mode] reproduces the evaluation's two workload shapes (paper
    section 6.1): the original libpmemobj examples group puts in an
    enclosing transaction, while the "SPT" variant runs a single put per
    transaction. Grouping is expressed with an outer {!Pmalloc.Tx.run}
    which the applications' inner transactions flatten into. *)

type tx_mode =
  | Spt  (** single put per transaction: each op commits on its own *)
  | Grouped of int  (** the original shape: ops batched inside an outer tx *)

let apply_op (type a) (module A : Pmapps.Kv_intf.S with type t = a) (app : a) op =
  match op with
  | Workload.Put (k, v) -> A.put app ~key:k ~value:v
  | Workload.Get k -> ignore (A.get app ~key:k)
  | Workload.Delete k -> ignore (A.delete app ~key:k)

let rec chunks n = function
  | [] -> []
  | ops ->
      let rec take i acc rest =
        match rest with
        | x :: tl when i < n -> take (i + 1) (x :: acc) tl
        | _ -> (List.rev acc, rest)
      in
      let chunk, rest = take 0 [] ops in
      chunk :: chunks n rest

(** [of_app (module A) ~version ~workload ()] builds a target that formats
    a pool, creates the structure and drives the whole workload. *)
let of_app (module A : Pmapps.Kv_intf.S) ?(version = Pmalloc.Version.V1_12)
    ?(tx_mode = Spt) ?(pool_size = 0) ?(loc = 0) ~workload () =
  let pool_size = if pool_size > 0 then pool_size else A.min_pool_size in
  let run ~device ~framer =
    let pool = Pmalloc.Pool.create ~version device in
    let heap = Pmalloc.Alloc.attach pool in
    let app = A.create ~framer pool heap in
    match tx_mode with
    | Spt -> List.iter (apply_op (module A) app) workload
    | Grouped n ->
        List.iter
          (fun chunk ->
            (* the batch loop is one code location: frame it so every batch
               shares the same failure-point identities *)
            framer.Pmtrace.Framer.frame "workload.batch" (fun () ->
                Pmalloc.Tx.run ~heap pool (fun _tx ->
                    List.iter (apply_op (module A) app) chunk)))
          (chunks n workload)
  in
  Mumak.Target.make
    ~name:
      (A.name
      ^ (match tx_mode with Spt -> " (SPT)" | Grouped _ -> "")
      ^ " v" ^ Pmalloc.Version.to_string version)
    ~pool_size ~loc ~run ~recover:A.recover ()

let standard_workload ?(ops = 600) ?(key_range = 200) ?(seed = 42L) () =
  Workload.standard ~ops ~key_range ~seed

(* --- Montage targets (library-agnostic analysis, paper section 6.4) --- *)

(* fixed-width encodings: variable record sizes would make every string
   length a distinct code path and distort the path counts *)
let key_string k = Printf.sprintf "key:%012Ld" k
let value_string v = Printf.sprintf "val:%016Ld" (Int64.logand v 0xFFFF_FFFFL)

let of_montage ?(variant = `Buffered) ~workload () =
  match variant with
  | `Buffered ->
      let run ~device ~framer =
        let t = Montage.Hashtable.create ~framer device in
        List.iter
          (fun op ->
            match op with
            | Workload.Put (k, v) -> Montage.Hashtable.put t ~key:k ~value:v
            | Workload.Get k -> ignore (Montage.Hashtable.get t ~key:k)
            | Workload.Delete k -> ignore (Montage.Hashtable.delete t ~key:k))
          workload;
        Montage.Hashtable.close t
      in
      Mumak.Target.make ~name:"montage.Hashtable"
        ~pool_size:Montage.Hashtable.min_pool_size ~loc:6_000 ~run
        ~recover:Montage.Hashtable.recover ()
  | `Lockfree ->
      let run ~device ~framer =
        let t = Montage.Lf_hashtable.create ~framer device in
        List.iter
          (fun op ->
            match op with
            | Workload.Put (k, v) -> Montage.Lf_hashtable.put t ~key:k ~value:v
            | Workload.Get k -> ignore (Montage.Lf_hashtable.get t ~key:k)
            | Workload.Delete k -> ignore (Montage.Lf_hashtable.delete t ~key:k))
          workload;
        Montage.Lf_hashtable.close t
      in
      Mumak.Target.make ~name:"montage.LfHashtable"
        ~pool_size:Montage.Lf_hashtable.min_pool_size ~loc:6_500 ~run
        ~recover:Montage.Lf_hashtable.recover ()

(* --- pmemkv / Redis / RocksDB targets (scalability study, Figure 5) --- *)

let of_pmemkv ~engine ~workload () =
  let run ~device ~framer =
    let pool = Pmalloc.Pool.create ~version:Pmalloc.Version.V1_12 device in
    let heap = Pmalloc.Alloc.attach pool in
    let t = Kvstores.Pmemkv.create ~framer ~engine pool heap in
    List.iter
      (fun op ->
        match op with
        | Workload.Put (k, v) -> Kvstores.Pmemkv.put t (key_string k) (value_string v)
        | Workload.Get k -> ignore (Kvstores.Pmemkv.get t (key_string k))
        | Workload.Delete k -> ignore (Kvstores.Pmemkv.remove t (key_string k)))
      workload
  in
  Mumak.Target.make
    ~name:("pmemkv." ^ Kvstores.Pmemkv.engine_name engine)
    ~pool_size:Kvstores.Pmemkv.min_pool_size
    ~loc:(match engine with Kvstores.Pmemkv.Cmap -> 45_000 | Kvstores.Pmemkv.Stree -> 40_000)
    ~run ~recover:Kvstores.Pmemkv.recover ()

let of_redis ~workload () =
  let run ~device ~framer =
    let pool = Pmalloc.Pool.create ~version:Pmalloc.Version.V1_12 device in
    let heap = Pmalloc.Alloc.attach pool in
    let t = Kvstores.Redis_pm.create ~framer pool heap in
    List.iter
      (fun op ->
        match op with
        | Workload.Put (k, v) -> Kvstores.Redis_pm.set t (key_string k) (value_string v)
        | Workload.Get k -> ignore (Kvstores.Redis_pm.get t (key_string k))
        | Workload.Delete k -> ignore (Kvstores.Redis_pm.del t (key_string k)))
      workload
  in
  Mumak.Target.make ~name:"redis" ~pool_size:Kvstores.Redis_pm.min_pool_size ~loc:115_000
    ~run ~recover:Kvstores.Redis_pm.recover ()

let of_rocksdb ~workload () =
  let run ~device ~framer =
    let pool = Pmalloc.Pool.create ~version:Pmalloc.Version.V1_12 device in
    let heap = Pmalloc.Alloc.attach pool in
    let t = Kvstores.Rocksdb_pm.create ~framer pool heap in
    List.iter
      (fun op ->
        match op with
        | Workload.Put (k, v) -> Kvstores.Rocksdb_pm.put t (key_string k) (value_string v)
        | Workload.Get k -> ignore (Kvstores.Rocksdb_pm.get t (key_string k))
        | Workload.Delete k -> ignore (Kvstores.Rocksdb_pm.delete t (key_string k)))
      workload
  in
  Mumak.Target.make ~name:"rocksdb" ~pool_size:Kvstores.Rocksdb_pm.min_pool_size
    ~loc:280_000 ~run ~recover:Kvstores.Rocksdb_pm.recover ()
