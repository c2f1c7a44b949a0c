(** Target builders: wrap the PM applications into the black-box
    {!Mumak.Target.t} interface the tools analyse. *)

(** [tx_mode] reproduces the evaluation's two workload shapes (paper
    section 6.1): the original libpmemobj examples group puts in an
    enclosing transaction, while the "SPT" variant runs a single put per
    transaction. Grouping is expressed with an outer {!Pmalloc.Tx.run}
    which the applications' inner transactions flatten into. *)
type tx_mode =
  | Spt  (** single put per transaction: each op commits on its own *)
  | Grouped of int  (** the original shape: ops batched inside an outer tx *)

val of_app :
  (module Pmapps.Kv_intf.S) ->
  ?version:Pmalloc.Version.t ->
  ?tx_mode:tx_mode ->
  ?pool_size:int ->
  ?loc:int ->
  workload:Workload.op list ->
  unit ->
  Mumak.Target.t
(** [of_app (module A) ~version ~workload ()] builds a target that formats
    a pool, creates the structure and drives the whole workload.
    [pool_size] defaults to the application's minimum. *)

val standard_workload : ?ops:int -> ?key_range:int -> ?seed:int64 -> unit -> Workload.op list
(** The evaluation mix with the defaults used throughout the test suite
    and benchmarks (600 ops over 200 keys, seed 42). *)

val key_string : int64 -> string
(** Fixed-width key encoding for the string-keyed stores: variable record
    sizes would make every string length a distinct code path and distort
    the path counts. *)

val value_string : int64 -> string

val of_montage :
  ?variant:[ `Buffered | `Lockfree ] -> workload:Workload.op list -> unit -> Mumak.Target.t
(** Montage targets (library-agnostic analysis, paper section 6.4). *)

val of_pmemkv :
  engine:Kvstores.Pmemkv.engine -> workload:Workload.op list -> unit -> Mumak.Target.t
(** pmemkv / Redis / RocksDB targets (scalability study, Figure 5). *)

val of_redis : workload:Workload.op list -> unit -> Mumak.Target.t
val of_rocksdb : workload:Workload.op list -> unit -> Mumak.Target.t
